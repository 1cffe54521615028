import csv
import hashlib
import importlib.resources
import json
from pathlib import Path

import pytest

from lcodr.cli import main


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        assert fh.readline().startswith("# run_id=")
        return list(csv.DictReader(fh))


def test_run_default_emits_48_rows(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out)]) == 0
    rows = read_csv(out / "lcodr_deterministic.csv")
    assert len(rows) == 48
    by_status = {}
    for row in rows:
        by_status.setdefault(row["status"], []).append(row)
    # Seasonal storage rejects everything; black start, power quality and
    # power reliability reject the unidirectional schemes
    unsuitable = {(r["scheme"], r["application"]) for r in by_status["unsuitable"]}
    assert ("smart_charging", "Black start") in unsuitable
    assert ("v2g", "Seasonal storage") in unsuitable
    assert len(unsuitable) == 13
    assert (out / "manifest.json").exists()


def test_run_application_filter(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out),
                 "--applications", "Energy arbitrage"]) == 0
    rows = read_csv(out / "lcodr_deterministic.csv")
    assert len(rows) == 4
    assert {r["application"] for r in rows} == {"Energy arbitrage"}


def test_repeated_scheme_is_kept_once(tmp_path):
    argv = ["mc", "--samples", "50", "--applications", "Energy arbitrage"]
    once, twice = tmp_path / "once", tmp_path / "twice"
    assert main(argv + ["--schemes", "hp_thermal_storage", "--out", str(once)]) == 0
    assert main(argv + ["--schemes", "hp_thermal_storage,hp_thermal_storage",
                        "--out", str(twice)]) == 0
    for name in ("lcodr_mc.csv", "cheapest_probability.csv", "cost_composition.csv"):
        assert (twice / name).read_bytes() == (once / name).read_bytes(), name
    probabilities = read_csv(twice / "cheapest_probability.csv")
    assert sum(float(r["probability"]) for r in probabilities) == pytest.approx(1.0)
    assert main(["run", "--schemes", "v2g,v2g", "--out", str(tmp_path / "run")]) == 0
    assert len(read_csv(tmp_path / "run" / "lcodr_deterministic.csv")) == 12


def test_run_unknown_application_is_config_error(tmp_path):
    assert main(["run", "--out", str(tmp_path / "o"),
                 "--applications", "Not A Service"]) == 2


def test_usage_error_is_exit_1(tmp_path):
    assert main(["frobnicate"]) == 1
    assert main(["run", "--samples"]) == 1


def test_missing_price_csv_is_data_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    code = main(["run", "--out", str(tmp_path / "o"), "--compute-vf",
                 "--price", missing])
    assert code == 3
    assert missing in capsys.readouterr().err


def test_malformed_config_is_config_error(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("charger_power: -4\n", encoding="utf-8")
    assert main(["run", "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 2


_APP = ("applications: [{name: X, power_capacity_mw: %s, discharge_duration_h: 1,"
        " annual_cycles: 10, suitable_schemes: %s}]\n")
_NAMED = ("applications: [{name: %s, power_capacity_mw: 1, discharge_duration_h: 1,"
          " annual_cycles: 10}]\n")


@pytest.mark.parametrize("text,field", [
    (_APP % ("abc", "[v2g]"), "applications[0].power_capacity_mw"),
    (_APP % ("1", "5"), "applications[0].suitable_schemes"),
    (_APP % (".inf", "[v2g]"), "power_capacity"),
    ('assumptions: {rpt_floor_at_base: "no"}\n', "rpt_floor_at_base"),
    ("assumptions: {v2g_rebound_roundtrip: 0}\n", "v2g_rebound_roundtrip"),
    ("assumptions: {reward_base_hours: true}\n", "reward_base_hours"),
    ("lifetime_years: 1000000\n", "lifetime_years"),
    ("battery_capacity: true\n", "battery_capacity"),
    ("value_factors: {heat_pump: true}\n", "value_factors.heat_pump"),
    (_APP % ("true", "[v2g]"), "applications[0].power_capacity_mw"),
    (_NAMED % '"Arbitrage, day-ahead"', "applications[0].name"),
    (_NAMED % "'Say \"when\"'", "applications[0].name"),
    (_NAMED % '"Peak\\rer"', "applications[0].name"),
    (_NAMED % '"Peak\\ner"', "applications[0].name"),
])
@pytest.mark.parametrize("command", [["run"], ["mc", "--samples", "5"]])
def test_bad_config_values_are_config_errors(tmp_path, capsys, text, field, command):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text, encoding="utf-8")
    assert main(command + ["--out", str(tmp_path / "o"), "--config", str(cfg)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: config: {field}:")


def test_reward_base_hours_flag_sets_metadata(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "--reward-base-hours", "10"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    flags = manifest["assumption_flags"]
    assert flags["reward_base_hours"] == 10.0
    assert flags["reward_base_hours_differs_from_base_plugin_time"] is True


def test_assumption_flags_override_only_the_fields_they_name(tmp_path):
    cfg = tmp_path / "assumptions.yaml"
    cfg.write_text("assumptions: {cycle_constraint_direction: as_printed,\n"
                   "              reward_base_hours: 9}\n", encoding="utf-8")
    names = ("rpt_floor_at_base", "v2g_rebound_roundtrip",
             "cycle_constraint_direction", "reward_base_hours")
    for flags, expected in (
            (["--no-rpt-floor", "--simple-rebound"], (False, False, "as_printed", 9)),
            (["--cycle-direction", "scale_up", "--reward-base-hours", "10"],
             (True, True, "scale_up", 10.0))):
        out = tmp_path / flags[0]
        assert main(["run", "--out", str(out), "--config", str(cfg)] + flags) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert tuple(manifest["assumption_flags"][n] for n in names) == expected


def test_vf_constant_price_gives_unit_factors(tmp_path):
    price = tmp_path / "price.csv"
    lines = ["timestamp,value"]
    for day in range(1, 3):
        for hour in range(24):
            lines.append(f"2023-01-{day:02d}T{hour:02d}:00:00,50.0")
    price.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["vf", "--out", str(out), "--price", str(price)]) == 0
    rows = read_csv(out / "value_factors.csv")
    for row in rows:
        assert float(row["value_factor"]) == pytest.approx(1.0, abs=1e-12)


def test_manifest_hashes_each_data_file_from_its_bytes(tmp_path):
    """The loaders feed the manifest's sha256 while they read; it must be the
    file's own, for split and csv.reader (quoted, CRLF) files alike."""
    price = tmp_path / "price.csv"
    price.write_bytes(b"timestamp,value\r\n" + b"".join(
        f'2023-01-01T{h:02d}:00:00,"{h + 1}"\r\n'.encode() for h in range(24)))
    lcos = tmp_path / "lcos.csv"
    lcos.write_bytes(importlib.resources.files("lcodr").joinpath("lcos_reference.csv")
                     .read_bytes())
    assert main(["vf", "--out", str(tmp_path / "vf"), "--price", str(price)]) == 0
    assert main(["mc", "--out", str(tmp_path / "mc"), "--samples", "2",
                 "--lcos", str(lcos)]) == 0
    for out, flag, path in (("vf", "price", price), ("mc", "lcos", lcos)):
        manifest = json.loads((tmp_path / out / "manifest.json").read_text())
        assert manifest["data_files"][flag] == \
            hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def test_vf_subsample_deterministic(tmp_path):
    args = ["vf", "--subsample", "50", "--iterations", "40", "--seed", "7"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "vf_distribution.csv").read_bytes() == \
        (out2 / "vf_distribution.csv").read_bytes()


def test_vf_subsample_iterations_are_a_prefix_of_longer_runs(tmp_path):
    rows = {}
    for n in (300, 2000):
        out = tmp_path / str(n)
        assert main(["vf", "--subsample", "50", "--iterations", str(n), "--seed", "3",
                     "--out", str(out)]) == 0
        rows[n] = read_csv(out / "vf_distribution.csv")
    assert len(rows[2000]) == 2000 and rows[300] == rows[2000][:300]


def test_vf_manifest_records_the_rng_scheme_of_subsample_runs_only(tmp_path):
    from lcodr.valuefactor import VF_RNG_SCHEME
    assert main(["vf", "--subsample", "5", "--iterations", "3",
                 "--out", str(tmp_path / "sub")]) == 0
    assert main(["vf", "--out", str(tmp_path / "full")]) == 0
    manifests = [json.loads((tmp_path / d / "manifest.json").read_text())
                 for d in ("sub", "full")]
    assert manifests[0]["vf_rng_scheme"] == VF_RNG_SCHEME == "philox4x64-argpartition-v1"
    assert "vf_rng_scheme" not in manifests[1]


def test_mc_degenerate_matches_deterministic(tmp_path):
    out = tmp_path / "out"
    assert main(["mc", "--out", str(out), "--samples", "1", "--sigma", "0",
                 "--sigma-vf", "0", "--applications", "Energy arbitrage"]) == 0
    assert main(["run", "--out", str(out), "--applications",
                 "Energy arbitrage"]) == 0
    mc = {r["technology"]: r for r in read_csv(out / "lcodr_mc.csv")}
    det = {r["scheme"]: r for r in read_csv(out / "lcodr_deterministic.csv")}
    for tech, row in mc.items():
        if row["median"]:
            assert float(row["median"]) == pytest.approx(
                float(det[tech]["lcodr_vf_usd_per_mwh"]), rel=1e-12)


def test_mc_outputs_and_composition_shares(tmp_path):
    out = tmp_path / "out"
    assert main(["mc", "--out", str(out), "--samples", "25",
                 "--emit-samples"]) == 0
    comp = read_csv(out / "cost_composition.csv")
    by_tech = {}
    for row in comp:
        by_tech.setdefault(row["technology"], 0.0)
        by_tech[row["technology"]] += float(row["share"])
    for total in by_tech.values():
        assert total == pytest.approx(1.0, abs=1e-9)
    probs = read_csv(out / "cheapest_probability.csv")
    by_app = {}
    for row in probs:
        by_app.setdefault(row["application"], 0.0)
        by_app[row["application"]] += float(row["probability"])
    for total in by_app.values():
        assert total == pytest.approx(1.0, abs=1e-12)
    samples = read_csv(out / "lcodr_samples.csv")
    assert len(samples) == 48 * 25


@pytest.mark.parametrize("argv", [["vf", "--subsample", "5", "--iterations", "-1"],
                                  ["vf", "--subsample", "5", "--iterations", "0"],
                                  ["vf", "--subsample", "-2"],
                                  ["mc", "--samples", "0"],
                                  ["mc", "--samples", "-3"],
                                  ["mc", "--samples", "1", "--workers", "0"],
                                  ["mc", "--samples", "1", "--workers", "-1"]])
def test_bad_counts_are_usage_errors(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: usage:")


def test_mc_reports_skipped_applications(tmp_path, capsys):
    cfg = tmp_path / "apps.yaml"
    cfg.write_text(
        "applications:\n"
        "  - {name: Energy arbitrage, power_capacity_mw: 100,\n"
        "     discharge_duration_h: 4, annual_cycles: 300,\n"
        "     suitable_schemes: [v2g, smart_charging]}\n"
        "  - {name: Nothing fits, power_capacity_mw: 1,\n"
        "     discharge_duration_h: 1, annual_cycles: 10, suitable_schemes: []}\n",
        encoding="utf-8")
    out = tmp_path / "out"
    assert main(["mc", "--out", str(out), "--samples", "5", "--config", str(cfg)]) == 0
    assert "'Nothing fits'" in capsys.readouterr().err
    skipped = json.loads((out / "manifest.json").read_text())["mc"]["skipped_applications"]
    assert [s["application"] for s in skipped] == ["Nothing fits"]
    assert {r["application"] for r in read_csv(out / "cheapest_probability.csv")} == \
        {"Energy arbitrage"}


@pytest.mark.parametrize("argv", [["mc", "--samples", "1", "--seed", "-1"],
                                  ["vf", "--subsample", "5", "--iterations", "3",
                                   "--seed", "-1"]])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == \
        ["error: usage: argument --seed: must be >= 0, got -1"]


@pytest.mark.parametrize("flags,field", [(["--sigma", "nan"], "sigma_inputs"),
                                         (["--sigma", "inf"], "sigma_inputs"),
                                         (["--sigma-vf", "-0.5"], "sigma_vf"),
                                         (["--sigma-vf", "nan"], "sigma_vf")])
def test_non_finite_mc_settings_are_config_errors(tmp_path, flags, field):
    import os
    import subprocess
    import sys
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from lcodr.cli import main; sys.exit(main())",
         "mc", "--samples", "2", "--out", str(tmp_path / "o"), *flags],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: config: {field}:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("text,key", [
    ("charger_power: abc\n", "charger_power"),
    ("value_factors: {v2g_power: [1]}\n", "value_factors.v2g_power"),
    ("assumptions: {reward_base_hours: abc}\n", "reward_base_hours"),
])
def test_non_numeric_config_value_is_config_error(tmp_path, capsys, text, key):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text, encoding="utf-8")
    assert main(["run", "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: config: {key}:")


def test_mc_manifest_records_the_rng_scheme(tmp_path):
    from lcodr.uncertainty import RNG_SCHEME
    out = tmp_path / "out"
    assert main(["mc", "--out", str(out), "--samples", "3"]) == 0
    assert json.loads((out / "manifest.json").read_text())["mc"]["rng_scheme"] == RNG_SCHEME
    assert RNG_SCHEME == "philox4x64-boxmuller-v1"


MC_FILES = ("lcodr_mc.csv", "cheapest_probability.csv", "cost_composition.csv",
            "lcodr_samples.csv")


def test_mc_csvs_are_byte_identical_for_any_worker_count(tmp_path):
    payloads = []
    for workers in (None, 2, 3):
        out = tmp_path / f"w{workers}"
        argv = ["mc", "--out", str(out), "--samples", "37", "--seed", "8",
                "--emit-samples", "--lcos-sampling", "same_scheme"]
        assert main(argv + (["--workers", str(workers)] if workers else [])) == 0
        payloads.append([(out / name).read_bytes() for name in MC_FILES])
    assert payloads[0] == payloads[1] == payloads[2]


def test_sample_lines_format_cells_as_fmt_does():
    import numpy as np
    from lcodr.cli import _fmt, _sample_lines
    from lcodr.uncertainty import McDistribution
    values = np.array([1.0, float("nan"), 1e-300, 12345.678901234567, -0.0, 1e22])
    feasible = ~np.isnan(values)
    dists = [McDistribution.build("v2g", "Energy arbitrage", values, feasible, {}),
             McDistribution.build("smart_charging", "Bill management", values[::-1],
                                  feasible[::-1], {})]
    expected = "".join(
        ",".join(_fmt(cell) for cell in [d.technology, d.application, i, ok, v]) + "\n"
        for d in dists
        for i, (ok, v) in enumerate(zip(d.feasible.tolist(), d.samples.tolist())))
    assert "".join(_sample_lines(dists, len(values))) == expected


def test_run_reads_the_pairing_kernel_directly(tmp_path, monkeypatch):
    """`lcodr run` writes its golden bytes with the one-row wrappers broken
    in every module that holds them."""
    import sys
    from lcodr import costing, sizing
    from test_golden import GOLDEN, _digest

    def broken(*args, **kwargs):
        raise RuntimeError("lcodr run called a one-row wrapper")

    wrappers = (costing.evaluate_pairing, sizing.size_pairing)
    for name, module in list(sys.modules.items()):
        if name == "lcodr" or name.startswith("lcodr."):
            for attr, value in list(vars(module).items()):
                if any(value is wrapper for wrapper in wrappers):
                    monkeypatch.setattr(module, attr, broken)
    argv, expected = GOLDEN["run"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert {p.name: _digest(p) for p in tmp_path.iterdir()} == expected


@pytest.mark.parametrize("flags,lcos,field", [
    (["--sigma", "1.7e308"], None, "sigma_inputs"),
    (["--sigma-vf", "1.7e308"], None, "sigma_vf"),
    (["--sigma", "1", "--lcos-sampling", "same_scheme"], "1e308", "sigma_inputs"),
])
def test_a_sigma_whose_draws_overflow_is_a_config_error(tmp_path, capsys, flags, lcos, field):
    if lcos is not None:
        path = tmp_path / "lcos.csv"
        path.write_text(f"application,technology,lcos_usd_per_mwh\n"
                        f"Energy arbitrage,lithium_ion,{lcos}\n", encoding="utf-8")
        flags = flags + ["--lcos", str(path)]
    out = tmp_path / "o"
    assert main(["mc", "--samples", "5", "--out", str(out), *flags]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: config: {field}:")
    assert not out.exists()


def test_a_wide_sigma_that_stays_in_range_runs_without_warnings(tmp_path):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["mc", "--samples", "20", "--sigma", "1e300", "--lcos-sampling",
                     "same_scheme", "--out", str(tmp_path)]) == 0


def test_an_lcos_technology_named_after_a_scheme_is_a_data_error(tmp_path, capsys):
    bundled = importlib.resources.files("lcodr").joinpath("lcos_reference.csv") \
        .read_text(encoding="utf-8")
    lcos = tmp_path / "lcos.csv"
    lcos.write_text(bundled + "Energy arbitrage,v2g,5.0\n", encoding="utf-8")
    row = len(bundled.splitlines()) + 1
    assert main(["mc", "--samples", "5", "--out", str(tmp_path / "o"),
                 "--lcos", str(lcos)]) == 3
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: data: {lcos}:{row}: technology 'v2g' is named after a scheme"]
