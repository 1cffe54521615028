import ast
import hashlib
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
import yaml

from lcodr.model import (
    CROSS_FIELD_RULES,
    SAMPLE_ROW,
    VALUE_FACTOR_KEYS,
    ApplicationSpec,
    Assumptions,
    EvParameters,
    HeatParameters,
    EconomicParameters,
    PARAMETERS,
    SchemaVersionError,
    SchemeKind,
    TimeSeries,
    ValidationError,
    ValueFactorTable,
    build_parameter_set,
    default_applications,
    default_parameters,
    load_config,
    load_config_dict,
    parameter_set_to_dict,
    ParameterSet,
    parameter_values,
    valid_rows,
)
from lcodr.uncertainty import LCOS_ID_OFFSET

from datetime import datetime, timezone

import numpy as np


def test_ev_derived_quantities():
    ev = EvParameters()
    # 7.4 kW * 0.92 = 6.808 kW at the grid side
    assert ev.effective_charger_power == pytest.approx(6.808)
    # 5.56 kWh/day * 0.9 home share / 6.808 kW = 0.7350 h/day of charging
    assert ev.daily_charge_time == pytest.approx(0.73507, rel=1e-4)
    # 60 kWh * 30% floor leaves a 42 kWh dischargeable band
    assert ev.min_battery_energy == pytest.approx(18.0)
    assert ev.dischargeable_energy == pytest.approx(42.0)


def test_ev_validation():
    with pytest.raises(ValidationError) as err:
        EvParameters(charger_efficiency=1.2)
    assert err.value.field_path == "charger_efficiency"
    with pytest.raises(ValidationError):
        EvParameters(guaranteed_min_charge=1.0)
    with pytest.raises(ValidationError):
        EvParameters(base_plugin_time=25.0)


def test_heat_validation():
    with pytest.raises(ValidationError):
        HeatParameters(hp_active_power=0.3)   # below the average power
    with pytest.raises(ValidationError):
        HeatParameters(seasonal_performance=0.9)
    with pytest.raises(ValidationError):
        HeatParameters(ceiling_height=0.08, wall_thickness=0.05)


def test_econ_validation():
    with pytest.raises(ValidationError):
        EconomicParameters(discount_rate=1.0)
    with pytest.raises(ValidationError):
        EconomicParameters(lifetime_years=0)
    with pytest.raises(ValidationError):
        EconomicParameters(electricity_price=0.0)


def test_value_factor_table_selection():
    from lcodr.model import BindingConstraint
    table = ValueFactorTable(v2g_power=0.97, v2g_energy=0.99,
                             smart_charging=1.2, heat_pump=1.1)
    assert table.for_scheme(SchemeKind.V2G, BindingConstraint.POWER) == 0.97
    assert table.for_scheme(SchemeKind.V2G, BindingConstraint.ENERGY) == 0.99
    assert table.for_scheme(SchemeKind.SMART_CHARGING) == 1.2
    # the two heat-pump schemes share one value
    assert table.for_scheme(SchemeKind.SMART_HEAT_PUMP) == 1.1
    assert table.for_scheme(SchemeKind.HP_THERMAL_STORAGE) == 1.1


def test_application_spec():
    app = ApplicationSpec("Energy arbitrage", 100_000.0, 4.0, 300.0,
                          frozenset({SchemeKind.V2G}))
    # 100 MW * 4 h * 300 cycles = 120,000 MWh a year
    assert app.annual_energy_mwh == pytest.approx(120_000.0)
    with pytest.raises(ValidationError):
        ApplicationSpec("x", 1.0, 700.0, 100.0)   # 70,000 h/year > 8760


def test_timeseries_invariants():
    start = datetime(2023, 1, 1, tzinfo=timezone.utc)
    ts = TimeSeries(start, 3600.0, [1.0, 2.0, 3.0])
    assert len(ts) == 3
    assert ts.end.hour == 3
    with pytest.raises(ValidationError):
        TimeSeries(datetime(2023, 1, 1), 3600.0, [1.0, 2.0])   # naive timestamp
    with pytest.raises(ValidationError):
        TimeSeries(start, 3600.0, [1.0])   # too short
    with pytest.raises(ValidationError):
        TimeSeries(start, 3600.0, [1.0, float("nan")])
    # value buffer is frozen
    with pytest.raises(ValueError):
        ts.values[0] = 9.0


def test_parameter_registry_covers_all_groups():
    params = default_parameters()
    flat = parameter_values(params)
    assert len(flat) == len(PARAMETERS)
    rebuilt = build_parameter_set(flat)
    assert parameter_values(rebuilt) == flat


#: (key, group, perturb, lower, upper) of every registered parameter.
REGISTRY = [
    ("charger_power", "ev", True, 0.0, None),
    ("charger_efficiency", "ev", True, 0.0, 1.0),
    ("battery_capacity", "ev", True, 0.0, None),
    ("guaranteed_min_charge", "ev", True, 0.0, 1.0),
    ("daily_drive_energy", "ev", True, 0.0, None),
    ("home_charge_fraction", "ev", True, 0.0, 1.0),
    ("base_plugin_time", "ev", True, 0.0, 24.0),
    ("v2g_reward_base", "ev", True, 0.0, None),
    ("v2g_reward_per_hour", "ev", True, 0.0, None),
    ("smart_reward_base", "ev", True, 0.0, None),
    ("smart_reward_per_hour", "ev", True, 0.0, None),
    ("hp_average_power", "heat", True, 0.0, None),
    ("hp_active_power", "heat", True, 0.0, None),
    ("seasonal_performance", "heat", True, 1.0, None),
    ("building_heat_capacity", "heat", True, 0.0, None),
    ("building_temp_divergence", "heat", True, 0.0, None),
    ("max_activations_per_month", "heat", True, 0.0, None),
    ("hp_reward_monthly", "heat", True, 0.0, None),
    ("tank_area_reward_monthly", "heat", True, 0.0, None),
    ("water_density", "heat", True, 0.0, None),
    ("water_heat_capacity", "heat", True, 0.0, None),
    ("tank_temp_range", "heat", True, 0.0, None),
    ("wall_thickness", "heat", True, 0.0, None),
    ("ceiling_height", "heat", True, 0.0, None),
    ("discount_rate", "econ", True, 0.0, 1.0),
    ("lifetime_years", "econ", False, None, None),
    ("electricity_price", "econ", True, 0.0, None),
    ("v2g_charger_capex", "econ", True, 0.0, None),
    ("smart_charger_capex", "econ", True, 0.0, None),
    ("thermostat_capex", "econ", True, 0.0, None),
    ("tank_capex_per_m3", "econ", True, 0.0, None),
    ("om_fraction", "econ", False, None, None),
    ("v2g_eol_per_charger", "econ", False, None, None),
    ("tank_eol_per_m2", "econ", False, None, None),
    ("reward_floor", "econ", False, None, None),
]


def test_registry_order_is_stable():
    # Substream ids in the Monte-Carlo machinery are registry positions and
    # the bounds are the domain that perturbed draws are conditioned on, so
    # neither may change without a declared re-baseline.
    got = [(s.key, s.group, s.perturb, s.lower, s.upper) for s in PARAMETERS]
    assert got == REGISTRY
    assert SAMPLE_ROW[:35] == PARAMETERS
    assert [(i, s.key) for i, s in enumerate(SAMPLE_ROW) if s.group == "value_factors"] == [
        (35, "v2g_power"), (36, "v2g_energy"), (37, "smart_charging"), (38, "heat_pump")]
    assert LCOS_ID_OFFSET == 39


def test_config_roundtrip_is_bit_exact():
    params = default_parameters()
    dumped = parameter_set_to_dict(params)
    reloaded, _ = load_config_dict(dumped)
    assert parameter_values(reloaded) == parameter_values(params)
    assert reloaded.value_factors == params.value_factors
    assert reloaded.assumptions == params.assumptions


def test_config_overrides_and_unknown_keys():
    params, _ = load_config_dict({"charger_power": 11.0})
    assert params.ev.charger_power == 11.0
    params, _ = load_config_dict({"parameters": {"discount_rate": 0.05}})
    assert params.econ.discount_rate == 0.05
    with pytest.raises(ValidationError):
        load_config_dict({"chargr_power": 11.0})
    with pytest.raises(ValidationError):
        load_config_dict({"value_factors": {"v2g": 1.0}})
    for version in (99, True, 1.0, "1"):
        with pytest.raises(SchemaVersionError, match="schema_version"):
            load_config_dict({"schema_version": version})


def test_default_applications_table():
    apps = default_applications()
    assert len(apps) == 12
    by_name = {app.name: app for app in apps}
    arb = by_name["Energy arbitrage"]
    assert arb.power_capacity == 100_000.0    # stored in kW
    assert by_name["Seasonal storage"].suitable_schemes == frozenset()
    assert by_name["Black start"].suitable_schemes == frozenset({SchemeKind.V2G})


def test_assumptions_validation():
    with pytest.raises(ValidationError):
        Assumptions(cycle_constraint_direction="sideways")
    with pytest.raises(ValidationError):
        Assumptions(reward_base_hours=30.0)


#: Single-field domains of the scalar parameters: (class, field, op, bound).
#: 'gt'/'lt' are open bounds, 'ge'/'le' closed ones.
DOMAINS = [
    (EvParameters, "charger_power", "gt", 0.0),
    (EvParameters, "charger_efficiency", "gt", 0.0),
    (EvParameters, "charger_efficiency", "le", 1.0),
    (EvParameters, "battery_capacity", "gt", 0.0),
    (EvParameters, "guaranteed_min_charge", "ge", 0.0),
    (EvParameters, "guaranteed_min_charge", "lt", 1.0),
    (EvParameters, "daily_drive_energy", "ge", 0.0),
    (EvParameters, "home_charge_fraction", "ge", 0.0),
    (EvParameters, "home_charge_fraction", "le", 1.0),
    (EvParameters, "base_plugin_time", "ge", 0.0),
    (EvParameters, "base_plugin_time", "le", 24.0),
    (EvParameters, "v2g_reward_base", "ge", 0.0),
    (EvParameters, "v2g_reward_per_hour", "ge", 0.0),
    (EvParameters, "smart_reward_base", "ge", 0.0),
    (EvParameters, "smart_reward_per_hour", "ge", 0.0),
    (HeatParameters, "hp_average_power", "gt", 0.0),
    (HeatParameters, "hp_active_power", "gt", 0.0),
    (HeatParameters, "seasonal_performance", "gt", 1.0),
    (HeatParameters, "building_heat_capacity", "gt", 0.0),
    (HeatParameters, "building_temp_divergence", "ge", 0.0),
    (HeatParameters, "max_activations_per_month", "gt", 0.0),
    (HeatParameters, "hp_reward_monthly", "ge", 0.0),
    (HeatParameters, "tank_area_reward_monthly", "ge", 0.0),
    (HeatParameters, "water_density", "gt", 0.0),
    (HeatParameters, "water_heat_capacity", "gt", 0.0),
    (HeatParameters, "tank_temp_range", "gt", 0.0),
    (HeatParameters, "wall_thickness", "gt", 0.0),
    (HeatParameters, "ceiling_height", "gt", 0.0),
    (EconomicParameters, "discount_rate", "ge", 0.0),
    (EconomicParameters, "discount_rate", "lt", 1.0),
    (EconomicParameters, "lifetime_years", "le", 100),
    (EconomicParameters, "electricity_price", "gt", 0.0),
    (EconomicParameters, "v2g_charger_capex", "ge", 0.0),
    (EconomicParameters, "smart_charger_capex", "ge", 0.0),
    (EconomicParameters, "thermostat_capex", "ge", 0.0),
    (EconomicParameters, "tank_capex_per_m3", "ge", 0.0),
    (EconomicParameters, "om_fraction", "ge", 0.0),
    (EconomicParameters, "v2g_eol_per_charger", "ge", 0.0),
    (EconomicParameters, "tank_eol_per_m2", "ge", 0.0),
    (EconomicParameters, "reward_floor", "ge", 0.0),
]

#: Values just inside a domain that a cross-field check still rejects, with
#: the field that check reports: a vanishing charger power makes the daily
#: charging time exceed 24 h, and the active heat-pump power and the
#: ceiling height must also clear another field. The lifetime just below
#: its bound is not an integer.
CROSS_FIELD = {
    ("lifetime_years", "le"): "lifetime_years",
    ("charger_power", "gt"): "daily_drive_energy",
    ("charger_efficiency", "gt"): "daily_drive_energy",
    ("hp_active_power", "gt"): "hp_active_power",
    ("ceiling_height", "gt"): "ceiling_height",
}


def _field_path(cls, name, value):
    try:
        cls(**{name: value})
    except ValidationError as exc:
        return exc.field_path
    return None


@pytest.mark.parametrize("cls,name,op,bound", DOMAINS,
                         ids=[f"{name}-{op}" for _, name, op, _ in DOMAINS])
def test_single_field_domain_boundaries(cls, name, op, bound):
    outward = -math.inf if op in ("gt", "ge") else math.inf
    inside = math.nextafter(bound, -outward)
    closed = op in ("ge", "le")
    assert _field_path(cls, name, inside) == CROSS_FIELD.get((name, op))
    assert _field_path(cls, name, bound) == (None if closed else name)
    assert _field_path(cls, name, math.nextafter(bound, outward)) == name
    assert _field_path(cls, name, math.nan) == name


def test_default_parameters_are_the_dataclass_defaults():
    # The bundled YAML adds nothing to the dataclass defaults but the
    # golden value factors.
    text = resources.files("lcodr").joinpath("defaults.yaml").read_text(encoding="utf-8")
    goldens = yaml.safe_load(text)["value_factors"]
    assert default_parameters() == ParameterSet(value_factors=ValueFactorTable(**goldens))


def test_a_default_parameter_set_is_the_bundled_default_parameterization():
    # the golden value factors are ValueFactorTable's field defaults
    assert ParameterSet() == default_parameters()


def _random_columns(rng, n):
    """Columns around the defaults, clamped to the registry bounds except
    for a few cells pushed out of their domain (NaN included), with the
    fields of each cross-field rule drawn across its boundary."""
    base = default_parameters()
    columns = {}
    for spec in SAMPLE_ROW:
        value = float(getattr(getattr(base, spec.group), spec.key))
        if not spec.perturb:
            columns[spec.key] = np.full(n, value)
            continue
        col = np.clip(value * rng.uniform(0.3, 1.7, n), spec.lower, spec.upper)
        out = rng.random(n) < 0.01
        col[out] = rng.choice([-1.0, math.nan, math.inf, 1e9], out.sum())
        columns[spec.key] = col
    columns["charger_power"] *= np.where(rng.random(n) < 0.2, 1e-3, 1.0)
    columns["hp_active_power"] = columns["hp_average_power"] * rng.uniform(0.8, 1.2, n)
    columns["ceiling_height"] = 2 * columns["wall_thickness"] * rng.uniform(0.9, 1.1, n)
    return columns


def test_valid_rows_agree_with_post_init():
    rng = np.random.default_rng(31)
    n = 600
    columns = _random_columns(rng, n)
    mask = valid_rows(columns)
    for i in range(n):
        try:
            build_parameter_set({spec.key: columns[spec.key][i] for spec in PARAMETERS},
                                {key: columns[key][i] for key in VALUE_FACTOR_KEYS})
            ok = True
        except ValidationError:
            ok = False
        assert ok == mask[i], i
    assert 0.05 * n < mask.sum() < 0.95 * n
    # each rule alone rejects some rows
    with np.errstate(all="ignore"):
        for _, name, _, holds in CROSS_FIELD_RULES:
            assert not holds(columns).all(), name


@pytest.mark.parametrize("text,field", [
    ("charger_power: abc\n", "charger_power"),
    ("value_factors: {v2g_power: [1]}\n", "value_factors.v2g_power"),
    ("assumptions: {reward_base_hours: abc}\n", "reward_base_hours"),
])
def test_non_numeric_config_value_names_its_key(text, field):
    with pytest.raises(ValidationError) as info:
        load_config_dict(yaml.safe_load(text))
    assert info.value.field_path == field


def _defaults_yaml():
    return str(resources.files("lcodr").joinpath("defaults.yaml"))


def test_defaults_yaml_is_a_complete_config_of_the_bundled_defaults():
    params, apps = load_config(None)
    assert load_config(_defaults_yaml()) == (params, apps)
    assert [app.name for app in apps] == \
        [entry["name"] for entry in yaml.safe_load(Path(_defaults_yaml()).read_text(
            encoding="utf-8"))["applications"]]
    # overrides of every bundled section leave the bundled defaults as they were
    load_config_dict({"value_factors": {"heat_pump": 2.0}, "applications": []})
    assert load_config(None) == (params, apps)


def test_startup_leaves_pyyaml_unimported(tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text("discount_rate: 0.06\n", encoding="utf-8")
    script = ("import sys, lcodr.cli, lcodr.model\n"
              "lcodr.model.load_config(None)\n"
              "assert 'yaml' not in sys.modules, 'yaml imported at start-up'\n"
              "assert 'statistics' not in sys.modules, 'statistics imported at start-up'\n"
              "params, _ = lcodr.model.load_config(sys.argv[1])\n"
              "assert params.econ.discount_rate == 0.06 and 'yaml' in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, str(cfg)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr


def _small_vf_files(directory: Path) -> list:
    """The five `vf` data flags with small files: one day, hourly, 8 EV and
    4 heat-pump assets."""
    stamps = [f"2023-01-01T{h:02d}:00:00" for h in range(24)]

    def pool(prefix, n):
        return "asset_id,timestamp,value\n" + "".join(
            f"{prefix}{a},{t},{(a + h) % 3}\n" for a in range(n) for h, t in enumerate(stamps))

    texts = {"price": "timestamp,value\n" + "".join(f"{t},{20 + h}\n" for h, t in enumerate(stamps)),
             "ev-pool": pool("ev", 8), "hp-pool": pool("hp", 4),
             "v2g-power": "timestamp,value\n" + "".join(f"{t},{1 + h % 2}\n" for h, t in enumerate(stamps)),
             "v2g-boundaries": "timestamp,lower,upper\n" + "".join(
                 f"{t},{h % 2},{2 + h % 3}\n" for h, t in enumerate(stamps))}
    args = []
    for flag, text in texts.items():
        path = directory / f"{flag}.csv"
        path.write_text(text, encoding="utf-8")
        args += [f"--{flag}", str(path)]
    return args


#: Modules that no command loads without a data file: numpy.ma (1.2 MiB, by
#: np.percentile's np.unique), numpy.random and OpenSSL's _hashlib.
_HEAVY = ("numpy.ma", "numpy.random", "_hashlib")


@pytest.mark.parametrize("command,files,unloaded", [
    (["mc", "--samples", "20"], False, (*_HEAVY, "statistics")),
    (["mc", "--samples", "20", "--compute-vf", "--lcos-sampling", "same_scheme"], False, _HEAVY),
    (["run", "--compute-vf"], False, _HEAVY),
    (["vf", "--subsample", "5", "--iterations", "20"], False, _HEAVY),
    # a data file is hashed with hashlib, whose OpenSSL sha256 is the faster
    (["vf", "--subsample", "5", "--iterations", "20"], True, ("numpy.ma", "numpy.random")),
], ids=["mc", "mc-compute-vf-same-scheme", "run-compute-vf", "vf-subsample",
        "vf-subsample-files"])
def test_commands_leave_numpy_ma_numpy_random_and_hashlib_unimported(tmp_path, command, files,
                                                                     unloaded):
    """The summary statistics do without np.percentile; Monte-Carlo, subsample
    and bundle draws come from lcodr's own Philox and inverse-CDF kernels;
    stream keys and run ids are hashed with the interpreter's own BLAKE2b
    and SHA-256 modules. With files, each one's manifest digest is its
    sha256."""
    script = ("import sys, lcodr.cli\n"
              "assert lcodr.cli.main(sys.argv[2:]) == 0\n"
              "loaded = [name for name in sys.argv[1].split(',') if name in sys.modules]\n"
              "assert not loaded, f'{loaded} imported'\n")
    paths = _small_vf_files(tmp_path) if files else []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, ",".join(unloaded), *command, *paths,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    hashes = json.loads((tmp_path / "out" / "manifest.json").read_text())["data_files"]
    for flag, path in zip(paths[::2], paths[1::2]):
        assert hashes[flag[2:].replace("-", "_")] == \
            hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


SRC = Path(__file__).resolve().parents[1] / "src"
#: The environment variables that OpenBLAS reads its thread count from.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _numpy_uses_openblas() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


needs_openblas_threads = pytest.mark.skipif(
    not (os.path.isdir("/proc/self/task") and _numpy_uses_openblas()),
    reason="counts OpenBLAS threads in /proc/self/task")


def _threads_after(imports: str, **variables: str):
    """(threads, whether os.environ is unchanged) in a fresh interpreter after
    `imports`, started with no BLAS thread variable but `variables`."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(variables, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    script = ("import os\nbefore = dict(os.environ)\n" + imports + "\n"
              "print(len(os.listdir('/proc/self/task')), before == dict(os.environ))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    threads, unchanged = proc.stdout.split()
    return int(threads), unchanged == "True"


@needs_openblas_threads
def test_import_loads_numpy_with_one_blas_thread_and_restores_the_environment():
    assert _threads_after("import lcodr") == (1, True)


@needs_openblas_threads
@pytest.mark.skipif(CORES < 2, reason="OpenBLAS caps its threads at the cores")
@pytest.mark.parametrize("variable", BLAS_THREAD_VARIABLES)
def test_a_blas_thread_count_set_by_the_caller_is_kept(variable):
    assert _threads_after("import lcodr", **{variable: "2"}) == (2, True)


@needs_openblas_threads
def test_numpy_imported_before_lcodr_keeps_its_blas_threads():
    alone, _ = _threads_after("import numpy")
    assert _threads_after("import numpy\nimport lcodr") == (alone, True)


#: numpy functions and methods that go to BLAS.
BLAS_NAMES = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum"}


def test_lcodr_makes_no_blas_call():
    """lcodr/__init__.py loads numpy with one OpenBLAS thread because no lcodr
    module calls BLAS; a matrix product or any use of linalg breaks that."""
    found = []
    for path in sorted((SRC / "lcodr").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                what = "@"
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                what = node.func.id if node.func.id in BLAS_NAMES else None
            elif isinstance(node, ast.Attribute):
                what = node.attr if node.attr in BLAS_NAMES | {"linalg"} else None
            elif isinstance(node, ast.Name):
                what = node.id if node.id == "linalg" else None
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names] + [getattr(node, "module", "") or ""]
                what = next((n for n in names if "linalg" in n.split(".")
                             or n.split(".")[-1] in BLAS_NAMES), None)
            else:
                what = None
            if what:
                found.append(f"{path.name}:{node.lineno}: {what}")
    assert not found, (f"BLAS use in lcodr: {found}; the one-thread numpy start-up in "
                       "lcodr/__init__.py assumes none and must be reconsidered")
