import argparse
import csv
import hashlib
import importlib.resources
import inspect
import json
import re
import tracemalloc
from datetime import datetime, timedelta
from pathlib import Path

import pytest

from lcodr import cli, data
from lcodr.cli import main
from lcodr.model import SchemeKind, default_parameters


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


@pytest.mark.parametrize("command", [["run"], ["mc", "--samples", "5"]])
@pytest.mark.parametrize("flag,separator,message", [
    ("--schemes", ",", "config: scheme: unknown scheme ''"),
    ("--applications", ";", "config: applications: unknown application ''"),
])
def test_an_empty_scheme_or_application_list_is_config_error(tmp_path, capsys, command,
                                                             flag, separator, message):
    # an empty value selects nothing, as a lone separator does, not everything
    for value in ("", separator):
        out = tmp_path / f"o{value}"
        assert main(command + [f"{flag}={value}", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: {message}")
        assert not (out / "manifest.json").exists()


def test_usage_error_is_exit_1(tmp_path):
    assert main(["frobnicate"]) == 1
    assert main(["run", "--samples"]) == 1


def test_missing_price_csv_is_data_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    code = main(["run", "--out", str(tmp_path / "o"), "--compute-vf",
                 "--price", missing])
    assert code == 3
    assert missing in capsys.readouterr().err


@pytest.mark.parametrize("write,named", [
    (lambda cfg: cfg.write_text("charger_power: -4\n", encoding="utf-8"), "charger_power"),
    (lambda cfg: cfg.mkdir(), "path"),                                     # a directory
    (lambda cfg: cfg.write_bytes(b"charger_power: 4\n# \xff\n"), "path"),  # not UTF-8
], ids=["bad-value", "directory", "not-utf8"])
def test_malformed_config_is_config_error(tmp_path, capsys, write, named):
    cfg = tmp_path / "bad.yaml"
    write(cfg)
    assert main(["run", "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: config:")
    assert (str(cfg) if named == "path" else named) in errors[0]


@pytest.mark.parametrize("command", [["run"], ["vf"], ["mc", "--samples", "2"]])
def test_out_that_cannot_be_created_is_usage_error(tmp_path, capsys, monkeypatch, command):
    def never(*args, **kwargs):
        raise AssertionError("--out is checked after the Monte-Carlo run")

    monkeypatch.setattr(cli, "run_monte_carlo", never)
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n", encoding="utf-8")
    for out in (taken, taken / "sub"):
        assert main(command + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith(f"error: usage: --out {out}:")
    assert taken.read_text(encoding="utf-8") == "a file, not a directory\n"


@pytest.mark.parametrize("command,written", [
    (["run"], "lcodr_deterministic.csv"), (["run"], "manifest.json"),
    (["vf"], "value_factors.csv"), (["vf"], "manifest.json"),
    (["mc", "--samples", "2"], "lcodr_mc.csv"), (["mc", "--samples", "2"], "manifest.json"),
])
def test_an_output_file_that_cannot_be_written_is_usage_error(tmp_path, capsys, command,
                                                              written):
    (tmp_path / written).mkdir()   # a directory where the file goes
    assert main(command + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(
        f"error: usage: --out {tmp_path}: cannot write {written}")


@pytest.mark.parametrize("argv,flag", [
    (["run", "--price", "/nonexistent.csv"], "--price"),
    (["mc", "--samples", "2", "--ev-pool", "/nope.csv"], "--ev-pool"),
    (["mc", "--samples", "2", "--v2g-boundaries", "b.csv"], "--v2g-boundaries"),
])
def test_a_data_flag_without_compute_vf_is_usage_error(tmp_path, capsys, argv, flag):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: usage: {flag} is read only with --compute-vf"]
    assert not out.exists()


DATA_FLAGS = {"--out", "--price", "--ev-pool", "--hp-pool", "--v2g-power", "--v2g-boundaries"}
COST_MODEL_FLAGS = {"--config", "--applications", "--schemes", "--no-rpt-floor",
                    "--simple-rebound", "--cycle-direction", "--reward-base-hours"}


def command_flags():
    """{command: the option strings of its cli.build_parser() subparser}."""
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {name: {flag for action in p._actions for flag in action.option_strings}
                   - {"-h", "--help"} for name, p in sub.choices.items()}


def test_each_command_takes_only_the_flags_it_reads():
    assert command_flags() == {
        "run": DATA_FLAGS | COST_MODEL_FLAGS | {"--compute-vf"},
        "vf": DATA_FLAGS | {"--seed", "--subsample", "--iterations"},
        "mc": DATA_FLAGS | COST_MODEL_FLAGS | {
            "--seed", "--compute-vf", "--samples", "--sigma", "--sigma-vf", "--lcos",
            "--lcos-sampling", "--emit-samples", "--workers"},
    }


@pytest.mark.parametrize("argv", [
    ["vf", "--config", "my.yaml"], ["vf", "--applications", "Energy arbitrage"],
    ["vf", "--schemes", "v2g"], ["vf", "--no-rpt-floor"], ["vf", "--simple-rebound"],
    ["vf", "--cycle-direction", "as_printed"], ["vf", "--reward-base-hours", "3"],
    ["run", "--seed", "1"]], ids=lambda argv: " ".join(argv[:2]))
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: usage: unrecognized arguments: {' '.join(argv[1:])}"]
    assert not out.exists()


def test_the_manifest_records_a_seed_and_assumption_flags_where_the_command_has_them(
        tmp_path):
    keys = {}
    for command in (["run"], ["vf"], ["mc", "--samples", "2"]):
        assert main(command + ["--out", str(tmp_path / command[0])]) == 0
        manifest = json.loads((tmp_path / command[0] / "manifest.json").read_text())
        keys[command[0]] = {"seed", "assumption_flags"} & set(manifest)
    assert keys == {"run": {"assumption_flags"}, "vf": {"seed"},
                    "mc": {"seed", "assumption_flags"}}


def readme_synopsis():
    """{command: the flags that the README's usage synopsis gives it}: the
    `lcodr <command>` lines of the sh block under "## CLI" and the indented
    lines that continue each."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    flags, command = {}, None
    for line in block.splitlines():
        if line.startswith("lcodr "):
            command = line.split()[1]
        elif not line.startswith(" "):
            command = None   # a comment or a blank line ends a command
        if command is not None:
            flags.setdefault(command, set()).update(re.findall(r"--[a-z][a-z0-9-]*", line))
    return flags


def test_every_flag_of_the_readme_synopsis_exists_on_its_command():
    synopsis = readme_synopsis()
    assert set(synopsis) == {"run", "vf", "mc"}
    assert "--subsample" in synopsis["vf"] and "--compute-vf" in synopsis["run"]
    flags = command_flags()
    assert {command: given - flags[command] for command, given in synopsis.items()} == \
        {command: set() for command in synopsis}


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
    ("value_factors: {v2g_power: .inf}\n", "v2g_power"),
    (_APP % ("true", "[v2g]"), "applications[0].power_capacity_mw"),
    (_NAMED % '"Arbitrage, day-ahead"', "applications[0].name"),
    (_NAMED % "'Say \"when\"'", "applications[0].name"),
    (_NAMED % '"Peak\\rer"', "applications[0].name"),
    (_NAMED % '"Peak\\ner"', "applications[0].name"),
    ("schema_version: true\n", "schema_version"),
    ("applications:\n"
     "  - {name: A, power_capacity_mw: 1, discharge_duration_h: 1, annual_cycles: 10,\n"
     "     suitable_schemes: [v2g, smart_charging]}\n"
     "  - {name: A, power_capacity_mw: 1, discharge_duration_h: 4, annual_cycles: 10,\n"
     "     suitable_schemes: [hp_thermal_storage]}\n", "applications[1].name"),
])
@pytest.mark.parametrize("command", [["run"], ["mc", "--samples", "5"]])
def test_bad_config_values_are_config_errors(tmp_path, capsys, text, field, command):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text, encoding="utf-8")
    assert main(command + ["--out", str(tmp_path / "o"), "--config", str(cfg)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: config: {field}:")


def test_an_apostrophe_in_an_application_name_keeps_rows_unquoted(tmp_path):
    cfg = tmp_path / "apostrophe.yaml"
    cfg.write_text(_APP.replace("name: X", "name: \"it's\"") % ("1", "[v2g]"),
                   encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", "--out", str(out), "--config", str(cfg)]) == 0
    text = (out / "lcodr_deterministic.csv").read_text(encoding="utf-8")
    assert '"' not in text
    header, *rows = text.splitlines()[1:]
    assert len(rows) == 4
    assert all(len(row.split(",")) == len(header.split(",")) for row in rows)
    assert "smart_charging cannot service 'it's'" in text


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


def test_mc_hashes_no_bundled_lcos_table(tmp_path, monkeypatch):
    import lcodr.cli
    digests = []
    load = lcodr.cli.load_lcos_reference

    def recording(path, **kwargs):
        digests.append(kwargs["digest"])
        return load(path, **kwargs)

    monkeypatch.setattr(lcodr.cli, "load_lcos_reference", recording)
    assert main(["mc", "--out", str(tmp_path), "--samples", "2"]) == 0
    assert digests == [None]
    assert json.loads((tmp_path / "manifest.json").read_text())["data_files"]["lcos"] == \
        "bundled"


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
    assert manifests[0]["vf_rng_scheme"] == VF_RNG_SCHEME == "philox4x64-blake2b-argpartition-v2"
    assert "vf_rng_scheme" not in manifests[1]


def test_each_bundled_input_records_the_bundle_rng_scheme(tmp_path, monkeypatch):
    import lcodr.cli
    from lcodr.data import BUNDLE_RNG_SCHEME
    assert BUNDLE_RNG_SCHEME == "philox4x64-blake2b-as241-v1"
    price = tmp_path / "price.csv"
    start = datetime(2023, 1, 1)
    price.write_text("timestamp,value\n" + "".join(
        f"{(start + timedelta(hours=h)).isoformat()},{10 + h % 24}\n" for h in range(24 * 365)),
        encoding="utf-8")
    runs = {"vf": ["vf"], "vf-price": ["vf", "--price", str(price)],
            "run": ["run", "--compute-vf"], "mc": ["mc", "--samples", "2", "--compute-vf"]}
    for name, argv in runs.items():
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
    manifests = {name: json.loads((tmp_path / name / "manifest.json").read_text())
                 for name in runs}
    bundled = ["price", "ev_pool", "hp_pool", "v2g_power", "v2g_boundaries"]
    for name in ("vf", "run", "mc"):
        assert [manifests[name]["data_files"][flag] for flag in bundled] == \
            [BUNDLE_RNG_SCHEME] * 5
    assert manifests["vf-price"]["data_files"]["price"] != BUNDLE_RNG_SCHEME
    assert manifests["vf-price"]["data_files"]["ev_pool"] == BUNDLE_RNG_SCHEME
    # the scheme keys the run id of a command that hashes its data
    monkeypatch.setattr(lcodr.cli, "BUNDLE_RNG_SCHEME", "another-scheme")
    assert main(["vf", "--out", str(tmp_path / "vf2")]) == 0
    assert json.loads((tmp_path / "vf2" / "manifest.json").read_text())["run_id"] != \
        manifests["vf"]["run_id"]


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
                                  ["vf", "--subsample", "0"],
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
    assert RNG_SCHEME == "philox4x64-blake2b-invcdf-v2"


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
    assert not any(out.iterdir())   # --out is created first, but no file is written


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


def test_a_negative_lcos_is_a_data_error(tmp_path, capsys):
    lcos = tmp_path / "lcos.csv"
    lcos.write_text("application,technology,lcos_usd_per_mwh\n"
                    "Energy arbitrage,Li-ion,0\nEnergy arbitrage,Flow,-20\n", encoding="utf-8")
    assert main(["mc", "--samples", "5", "--applications", "Energy arbitrage",
                 "--out", str(tmp_path / "o"), "--lcos", str(lcos)]) == 3
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: data: {lcos}:3: lcos_usd_per_mwh -20.0 is below 0"]


@pytest.mark.parametrize("row", ["Energy arbitrage,,100", ",Lithium-ion,100",
                                 "Energy arbitrage, ,100"])
def test_an_lcos_row_with_an_empty_name_is_a_data_error(tmp_path, capsys, row):
    # an empty technology cell in cheapest_probability.csv reads as missing
    lcos = tmp_path / "lcos.csv"
    lcos.write_text(f"application,technology,lcos_usd_per_mwh\n{row}\n", encoding="utf-8")
    assert main(["mc", "--samples", "5", "--applications", "Energy arbitrage",
                 "--out", str(tmp_path / "o"), "--lcos", str(lcos)]) == 3
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: data: {lcos}:2: a name is empty"]


def test_an_lcos_row_for_an_application_not_configured_is_a_data_error(tmp_path, capsys):
    # a typo in an application name would otherwise leave the row unused
    lcos = tmp_path / "lcos.csv"
    lcos.write_text("application,technology,lcos_usd_per_mwh\n"
                    "Energy arbitrage,Lithium-ion,100\nEnergy arbitrge,Lithium-ion,100\n",
                    encoding="utf-8")
    assert main(["mc", "--samples", "5", "--applications", "Energy arbitrage",
                 "--out", str(tmp_path / "o"), "--lcos", str(lcos)]) == 3
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: data: {lcos}:3: application 'Energy arbitrge' is not configured"]


def test_an_lcos_row_for_a_configured_application_left_out_is_accepted(tmp_path):
    lcos = tmp_path / "lcos.csv"
    lcos.write_text("application,technology,lcos_usd_per_mwh\n"
                    "Energy arbitrage,Lithium-ion,100\nBill management,Lithium-ion,100\n",
                    encoding="utf-8")
    out = tmp_path / "o"
    assert main(["mc", "--samples", "5", "--applications", "Energy arbitrage",
                 "--out", str(out), "--lcos", str(lcos)]) == 0
    rows = read_csv(out / "cheapest_probability.csv")
    assert [(row["application"], row["technology"]) for row in rows] == (
        [("Energy arbitrage", s.value) for s in SchemeKind] + [("Energy arbitrage", "Lithium-ion")])


def hourly(prefix, year, hours):
    return "".join(f"{prefix}{year}-01-01T{h:02d}:00:00,1\n" for h in range(hours))


@pytest.mark.parametrize("command,flag,text,message", [
    (["vf"], "--ev-pool", "asset_id,timestamp,value\n" + hourly("a,", 2023, 3)
     + hourly("b,", 2023, 2), "asset 'b' is not on the first asset's grid"),
    (["run", "--compute-vf"], "--hp-pool", "asset_id,timestamp,value\n" + hourly("a,", 2023, 3)
     + hourly("b,", 2023, 2), "asset 'b' is not on the first asset's grid"),
    (["vf"], "--v2g-power", "timestamp,value\n" + hourly("", 2030, 3),
     "series do not overlap in time"),
    (["mc", "--samples", "5", "--compute-vf"], "--v2g-boundaries",
     "timestamp,lower,upper\n" + hourly("", 2030, 3).replace(",1\n", ",0,1\n"),
     "series do not overlap in time"),
    # the synthetic V2G profiles do not overlap the price: the price file is named
    (["vf"], "--price", "timestamp,value\n" + hourly("", 2030, 3),
     "series do not overlap in time"),
], ids=["ev-pool-grid", "hp-pool-grid", "v2g-power-overlap", "v2g-boundaries-overlap",
        "price-overlap"])
def test_a_profile_that_does_not_fit_the_price_or_its_pool_names_its_file(
        tmp_path, capsys, command, flag, text, message):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    assert main(command + [flag, str(path), "--out", str(tmp_path / "o")]) == 3
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: data: {path}: {message}"]


def test_a_power_series_half_an_hour_off_the_price_grid_names_its_file(tmp_path, capsys):
    price, power = tmp_path / "price.csv", tmp_path / "power.csv"
    price.write_text("timestamp,value\n" + hourly("", 2023, 24), encoding="utf-8")
    power.write_text("timestamp,value\n" + hourly("", 2023, 24).replace(":00:00,", ":30:00,"),
                     encoding="utf-8")
    assert main(["vf", "--price", str(price), "--v2g-power", str(power),
                 "--out", str(tmp_path / "o")]) == 3
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: data: {power}: series grids are phase-shifted"]


@pytest.mark.parametrize("subsample,message", [
    ("2", "availability series has non-positive mean"),   # the two all-zero assets
    ("5", "need at least 5 asset profiles, got 3"),
    ("201", "need at least 201 asset profiles, got 3"),   # more than the bundled pool
], ids=["all-zero-subset", "too-few-assets", "more-than-the-bundled-pool"])
def test_a_vf_subsample_that_cannot_be_drawn_names_the_pool_and_writes_nothing(
        tmp_path, capsys, subsample, message):
    pool = tmp_path / "pool.csv"
    zero = hourly("z,", 2023, 3) + hourly("y,", 2023, 3)
    pool.write_text("asset_id,timestamp,value\n" + hourly("a,", 2023, 3)
                    + zero.replace(",1\n", ",0\n"), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["vf", "--ev-pool", str(pool), "--subsample", subsample,
                 "--out", str(out)]) == 3
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: data: {pool}: {message}"]
    assert list(out.iterdir()) == []


def test_a_vf_subsample_of_the_bundled_pool_blames_no_file(tmp_path, capsys, monkeypatch):
    price = tmp_path / "price.csv"
    price.write_text("timestamp,value\n" + hourly("", 2023, 24), encoding="utf-8")
    out = tmp_path / "o"

    def unused(*args, **kwargs):
        raise AssertionError("a profile was built")

    monkeypatch.setattr(data, "synthetic_ev_charging_profiles", unused)
    monkeypatch.setattr(data, "synthetic_price", unused)
    assert main(["vf", "--price", str(price), "--subsample", "201", "--iterations", "2",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: usage: --subsample 201 exceeds the bundled EV pool's 200 assets; "
        "give a larger pool with --ev-pool"]
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["mc", "--samples", "5"]])
def test_compute_vf_without_files_streams_the_bundled_pools(tmp_path, monkeypatch, command):
    expected = data.profile_value_factors(*vars(data.default_bundle()).values())

    def unused(*args, **kwargs):
        raise AssertionError("the whole bundled pool was built")

    for name in ("default_bundle", "synthetic_ev_charging_pool", "synthetic_heating_pool"):
        monkeypatch.setattr(data, name, unused)
    computed = []

    def recording(*profiles):
        computed.append(data.profile_value_factors(*profiles))
        return computed[-1]

    monkeypatch.setattr(cli, "profile_value_factors", recording)
    assert main(command + ["--compute-vf", "--out", str(tmp_path / "o")]) == 0
    assert computed == [expected]


def test_each_profile_input_has_one_name():
    # the flag dest is the bundle_sources key and the profile_value_factors
    # parameter, in one order
    names = [name for name, _ in cli._PROFILE_INPUTS]
    args = vars(cli.build_parser().parse_args(
        ["vf"] + [arg for name in names for arg in (f"--{name.replace('_', '-')}", name)]))
    assert [args[name] for name in names] == names
    assert list(data.bundle_sources()) == names
    assert list(inspect.signature(data.profile_value_factors).parameters) == names


def test_compute_vf_without_files_holds_one_asset_at_a_time():
    # the 260 bundled asset profiles together take about 17 MiB
    args = cli.build_parser().parse_args(["mc", "--compute-vf", "--out", "unused"])
    tracemalloc.start()
    try:
        cli._with_computed_value_factors(default_parameters(), args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
