"""The pairing kernel against its frozen oracle, tests/oracle.py.

Every comparison is exact (==): the kernel performs the oracle's operations
in the same order, so it must reproduce each value bit for bit. Both the
kernel's per-sample columns and its one-row wrappers (evaluate_pairing,
size_pairing) are compared with the oracle, never with each other.
"""

import ast
import dataclasses
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracle
from lcodr.costing import (
    COST_COMPONENTS,
    FEASIBLE,
    NOT_FINITE,
    PLUGIN_OVER_24H,
    REASONS,
    SIZING_FIELDS,
    UNSUITABLE,
    ZERO_AVAILABILITY,
    ZERO_SHIFTABLE,
    batch_columns,
    batch_row,
    evaluate_batch,
    evaluate_pairing,
)
from lcodr.model import (
    PARAMETERS,
    ApplicationSpec,
    Assumptions,
    BindingConstraint,
    EconomicParameters,
    EvParameters,
    HeatParameters,
    ParameterSet,
    SchemeKind,
    SizingResult,
    ValidationError,
    build_parameter_set,
    default_applications,
    default_parameters,
    parameter_values,
)
from lcodr.sizing import size_pairing
from lcodr.uncertainty import McConfig, perturb_matrix, perturb_parameters, run_monte_carlo

APPS = default_applications()
BASE = default_parameters()


def oracle_code(want) -> int:
    """The reason code of an oracle evaluation, read from its status and
    reason text."""
    if want.status == "ok":
        return FEASIBLE
    if want.status == "unsuitable":
        return UNSUITABLE
    for code in (PLUGIN_OVER_24H, ZERO_AVAILABILITY, ZERO_SHIFTABLE):
        if want.reason.startswith(REASONS[code].split("{")[0]):
            return code
    raise AssertionError(f"oracle reason {want.reason!r} has no code")


def assert_wrapper_matches(scheme, app, params, want):
    got = evaluate_pairing(scheme, app, params)
    assert (got.scheme, got.application) == (scheme, app)
    assert (got.status, got.reason) == (want.status, want.reason), (scheme, app.name)
    assert got.sizing == want.sizing, (scheme, app.name)
    assert got.breakdown == want.breakdown, (scheme, app.name)


def assert_kernel_row(batch, i, want):
    """Sample i of a kernel evaluation against the oracle's evaluation."""
    assert int(batch.reason[i]) == oracle_code(want)
    assert bool(batch.feasible[i]) == want.feasible
    levelised = (batch.lcodr_vf[i], *(batch.components[c][i] for c in COST_COMPONENTS),
                 batch.energy_pv[i], batch.lcodr_energy[i], batch.lcodr_power[i],
                 batch.value_factor[i])
    if not want.feasible:
        assert all(math.isnan(v) for v in levelised)
        assert not batch.energy_bound[i]
        hours = batch.sizing["required_plugin_time"][i]
        assert math.isnan(hours) or batch.reason[i] == PLUGIN_OVER_24H
        assert all(math.isnan(batch.sizing[name][i])
                   for name in SIZING_FIELDS if name != "required_plugin_time")
        return
    s, b = want.sizing, want.breakdown
    assert levelised == (b.lcodr_vf, b.investment, b.om_pv, b.rewards_pv, b.rebound_pv,
                         b.eol_pv, b.energy_pv, b.lcodr_energy, b.lcodr_power,
                         b.value_factor)
    assert bool(batch.energy_bound[i]) == (s.binding_constraint is BindingConstraint.ENERGY)
    for name in SIZING_FIELDS:
        value, expected = batch.sizing[name][i], getattr(s, name)
        assert math.isnan(value) if expected is None else value == expected, name


def assert_matches_oracle(param_sets, assumptions) -> Counter:
    """Compare evaluate_batch and evaluate_pairing with the oracle on every
    pairing and sample; returns the kernel's count of each reason code."""
    columns = batch_columns(np.array([batch_row(p) for p in param_sets]))
    codes, oracle_codes = Counter(), Counter()
    for scheme in SchemeKind:
        for app in APPS:
            batch = evaluate_batch(scheme, app, columns, assumptions)
            codes.update(batch.reason.tolist())
            for i, params in enumerate(param_sets):
                want = oracle.evaluate_pairing(scheme, app, params)
                oracle_codes[oracle_code(want)] += 1
                assert_kernel_row(batch, i, want)
                assert_wrapper_matches(scheme, app, params, want)
    assert codes == oracle_codes
    return codes


def perturbed(base, seed, samples):
    cfg = McConfig(samples=samples, seed=seed)
    return [perturb_parameters(base, cfg, i) for i in range(samples)]


@pytest.mark.parametrize("seed", [3, 17])
def test_batch_equals_oracle_on_perturbed_samples(seed):
    codes = assert_matches_oracle(perturbed(BASE, seed, 300), BASE.assumptions)
    # infeasible samples are part of the comparison
    assert codes[PLUGIN_OVER_24H] > 0 and codes[UNSUITABLE] > 0


@pytest.mark.parametrize("assumptions", [
    Assumptions(rpt_floor_at_base=False),
    Assumptions(v2g_rebound_roundtrip=False),
    Assumptions(cycle_constraint_direction="as_printed"),
    Assumptions(reward_base_hours=9.5),
], ids=["no_rpt_floor", "simple_rebound", "as_printed", "reward_base_hours"])
def test_batch_equals_oracle_under_each_assumption(assumptions):
    base = build_parameter_set(parameter_values(BASE),
                               {"v2g_power": 1.02, "v2g_energy": 0.97,
                                "smart_charging": 1.1, "heat_pump": 1.05},
                               assumptions)
    codes = assert_matches_oracle(perturbed(base, 29, 120), assumptions)
    assert codes[FEASIBLE] < sum(codes.values())


def test_unsuitable_pairing_is_infeasible_everywhere():
    app = next(a for a in APPS if SchemeKind.SMART_CHARGING not in a.suitable_schemes)
    columns = batch_columns(np.array([batch_row(BASE)] * 3))
    batch = evaluate_batch(SchemeKind.SMART_CHARGING, app, columns, BASE.assumptions)
    assert not batch.feasible.any()
    assert np.isnan(batch.lcodr_vf).all()
    assert (batch.reason == UNSUITABLE).all()


def _float_columns(batch):
    return {"lcodr_vf": batch.lcodr_vf, **batch.components, **batch.sizing,
            "energy_pv": batch.energy_pv, "lcodr_energy": batch.lcodr_energy,
            "lcodr_power": batch.lcodr_power, "value_factor": batch.value_factor}


def test_an_unsuitable_pairing_holds_one_shared_read_only_nan_column():
    app = next(a for a in APPS if SchemeKind.SMART_CHARGING not in a.suitable_schemes)
    columns = batch_columns(np.array([batch_row(BASE)] * 4))
    batch = evaluate_batch(SchemeKind.SMART_CHARGING, app, columns, BASE.assumptions)
    for name, column in _float_columns(batch).items():
        assert column.shape == (4,) and np.isnan(column).all(), name
        assert not column.flags.writeable, name
        assert np.shares_memory(column, batch.lcodr_vf), name


def test_the_sizing_fields_of_other_schemes_share_one_nan_column():
    columns = batch_columns(np.array([batch_row(BASE)] * 4))
    sizing = evaluate_batch(SchemeKind.V2G, APPS[0], columns, BASE.assumptions).sizing
    absent = [sizing[name] for name in ("power_reduction", "tank_area", "tank_volume",
                                        "tank_mass")]
    assert all(not column.flags.writeable and np.shares_memory(column, absent[0])
               for column in absent)
    assert np.isnan(absent).all()
    assert sizing["contracted_assets"].flags.writeable


#: (gt, lt) of each scalar parameter: its open bounds, or None.
OPEN_BOUNDS = {f.name: (f.metadata["gt"], f.metadata["lt"])
               for cls in (EvParameters, HeatParameters, EconomicParameters)
               for f in dataclasses.fields(cls)}


def _value_strategy(spec):
    """Values at or near the registry bounds, an open bound moved 1e-9
    inside, with the default in the mix so that most drawn sets stay
    valid."""
    default = parameter_values(BASE)[spec.key]
    options = [st.just(default), st.just(default),
               st.floats(0.5, 1.5).map(lambda f, d=default: d * f)]
    gt, lt = OPEN_BOUNDS[spec.key]
    near = (spec.lower if gt is None else gt + 1e-9, spec.upper if lt is None else lt - 1e-9)
    options += [st.just(bound) for bound in near if bound is not None]
    return st.one_of(options)


@st.composite
def parameter_sets(draw, assumptions):
    """A parameter set near the bounds, or None where the drawn values
    break a model invariant."""
    values = {spec.key: draw(_value_strategy(spec))
              for spec in PARAMETERS if spec.perturb}
    vf = {key: draw(st.sampled_from((1e-9, 0.8, 1.0, 1.3)))
          for key in ("v2g_power", "v2g_energy", "smart_charging", "heat_pump")}
    try:
        return build_parameter_set(values, vf, assumptions)
    except ValidationError:
        return None


ASSUMPTIONS = st.builds(
    Assumptions,
    rpt_floor_at_base=st.booleans(),
    v2g_rebound_roundtrip=st.booleans(),
    cycle_constraint_direction=st.sampled_from(("scale_up", "as_printed")),
    reward_base_hours=st.one_of(st.none(), st.sampled_from((0.0, 10.0, 24.0))),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_batch_equals_oracle_at_parameter_bounds(data):
    assumptions = data.draw(ASSUMPTIONS)
    drawn = data.draw(st.lists(parameter_sets(assumptions), min_size=1, max_size=3))
    param_sets = [p for p in drawn if p is not None]
    assume(param_sets)
    assert_matches_oracle(param_sets, assumptions)


@pytest.mark.parametrize("key,value", [
    ("home_charge_fraction", 0.0),
    ("building_temp_divergence", 0.0),
    ("charger_efficiency", 1.0),
    ("daily_drive_energy", 0.0),
    ("guaranteed_min_charge", 1.0 - 1e-9),
    ("discount_rate", 0.0),
])
def test_batch_equals_oracle_at_named_bounds(key, value):
    values = dict(parameter_values(BASE), **{key: value})
    params = build_parameter_set(values, None, BASE.assumptions)
    assert_matches_oracle([params, BASE], BASE.assumptions)


def test_monte_carlo_rows_equal_the_oracle():
    """Every sample row of a Monte-Carlo run: the kernel's values on the
    perturbed matrix equal the oracle's on that row's perturbed parameter
    set, and each distribution holds that batch's costs, feasibility and
    mean cost shares."""
    cfg = McConfig(samples=60, seed=23)
    dists = run_monte_carlo(list(SchemeKind), APPS, BASE, cfg)
    columns = batch_columns(perturb_matrix(BASE, cfg, 0, cfg.samples))
    pairings = [(scheme, app) for scheme in SchemeKind for app in APPS]
    batches = [evaluate_batch(scheme, app, columns, BASE.assumptions)
               for scheme, app in pairings]
    infeasible = 0
    for i in range(cfg.samples):
        params = perturb_parameters(BASE, cfg, i)
        for (scheme, app), batch in zip(pairings, batches):
            want = oracle.evaluate_pairing(scheme, app, params)
            assert bool(batch.feasible[i]) == want.feasible, (scheme, app.name, i)
            got = (batch.lcodr_vf[i],) + tuple(batch.components[c][i] for c in COST_COMPONENTS)
            if want.feasible:
                b = want.breakdown
                assert got == (b.lcodr_vf, b.investment, b.om_pv, b.rewards_pv,
                               b.rebound_pv, b.eol_pv), (scheme, app.name, i)
            else:
                infeasible += 1
                assert all(math.isnan(v) for v in got), (scheme, app.name, i)
    assert infeasible > 0
    for (scheme, app), batch, d in zip(pairings, batches, dists):
        assert np.array_equal(d.samples, batch.lcodr_vf, equal_nan=True), (scheme, app.name)
        assert np.array_equal(d.feasible, batch.feasible), (scheme, app.name)
        shares = {}
        if batch.feasible.any():
            parts = [batch.components[c][batch.feasible] for c in COST_COMPONENTS]
            total = sum(parts)
            shares = {c: float((part / total).mean()) for c, part in zip(COST_COMPONENTS, parts)}
        assert d.cost_shares == shares, (scheme, app.name)


# ---------------------------------------------------------------------------
# Each reachable reason
# ---------------------------------------------------------------------------

def _params(**values):
    return build_parameter_set(dict(parameter_values(BASE), **values), None,
                               BASE.assumptions)


LONG = ApplicationSpec("Long", 100_000.0, 30.0, 10.0, frozenset(SchemeKind))
ARBITRAGE = next(a for a in APPS if a.name == "Energy arbitrage")
DEFERRAL = next(a for a in APPS if a.name == "T&D investment deferral")
BLACK_START = next(a for a in APPS if a.name == "Black start")


@pytest.mark.parametrize("scheme,app,params,code", [
    (SchemeKind.SMART_CHARGING, BLACK_START, BASE, UNSUITABLE),
    (SchemeKind.V2G, DEFERRAL, BASE, PLUGIN_OVER_24H),
    (SchemeKind.SMART_CHARGING, LONG, BASE, PLUGIN_OVER_24H),
    (SchemeKind.SMART_CHARGING, ARBITRAGE, _params(home_charge_fraction=0.0), ZERO_SHIFTABLE),
    (SchemeKind.SMART_HEAT_PUMP, ARBITRAGE, _params(building_temp_divergence=0.0),
     ZERO_SHIFTABLE),
    # both checks fail: the plug-in time is checked first, as in the oracle
    (SchemeKind.SMART_CHARGING, LONG, _params(home_charge_fraction=0.0), PLUGIN_OVER_24H),
], ids=["unsuitable", "v2g_over_24h", "smart_charging_over_24h",
        "smart_charging_no_shiftable_power", "smart_heat_pump_no_shiftable_power",
        "plugin_time_before_shiftable_power"])
def test_each_reason_matches_the_oracle(scheme, app, params, code):
    want = oracle.evaluate_pairing(scheme, app, params)
    assert oracle_code(want) == code
    columns = batch_columns(np.array([batch_row(params)]))
    batch = evaluate_batch(scheme, app, columns, params.assumptions)
    assert batch.reason.dtype == np.int8
    assert_kernel_row(batch, 0, want)
    assert_wrapper_matches(scheme, app, params, want)
    assert size_pairing(scheme, app, params) == oracle.size_pairing(scheme, app, params)


def test_reason_texts():
    unsuitable = evaluate_pairing(SchemeKind.SMART_CHARGING, BLACK_START, BASE)
    assert unsuitable.reason == "smart_charging cannot service 'Black start'"
    assert size_pairing(SchemeKind.SMART_CHARGING, BLACK_START, BASE).reason == \
        "unsuitable: smart_charging cannot service 'Black start'"
    # 2 * (8 + 42 / 6.808) + 0.735 = 29.07 h of daily plug-in
    over = evaluate_pairing(SchemeKind.V2G, DEFERRAL, BASE)
    assert over.reason == "infeasible: required plug-in time 29.07 h exceeds 24 h"
    assert over.sizing == SizingResult(SchemeKind.V2G, feasible=False, reason=over.reason)
    no_power = evaluate_pairing(SchemeKind.SMART_HEAT_PUMP, ARBITRAGE,
                                _params(building_temp_divergence=0.0))
    assert no_power.reason == "infeasible: average shiftable power must be > 0"


@pytest.mark.parametrize("scheme,values", [
    (SchemeKind.V2G, {"battery_capacity": 1.1125369292536007e-308}),
    (SchemeKind.SMART_HEAT_PUMP, {"hp_average_power": 2.2e-308}),
    (SchemeKind.HP_THERMAL_STORAGE, {"hp_average_power": 2.2e-308}),
])
def test_an_overflowing_fleet_is_infeasible(scheme, values):
    # A per-asset capacity near the float minimum sizes an infinite fleet.
    # The oracle costs it as 'ok' with an infinite or NaN cost; the kernel
    # reports it instead, so `lcodr run` never ceils an infinite count.
    params = _params(**values)
    assert oracle.evaluate_pairing(scheme, ARBITRAGE, params).status == "ok"
    batch = evaluate_batch(scheme, ARBITRAGE, batch_columns(np.array([batch_row(params)])),
                           params.assumptions)
    assert int(batch.reason[0]) == NOT_FINITE and not batch.feasible[0]
    got = evaluate_pairing(scheme, ARBITRAGE, params)
    assert (got.status, got.reason) == ("infeasible", REASONS[NOT_FINITE])


def test_size_pairing_is_the_evaluation_sizing():
    params = ParameterSet()
    for scheme in SchemeKind:
        for app in APPS:
            assert size_pairing(scheme, app, params) == \
                oracle.size_pairing(scheme, app, params), (scheme, app.name)


# ---------------------------------------------------------------------------
# The oracle itself
# ---------------------------------------------------------------------------

def test_oracle_imports_nothing_from_lcodr_but_the_model():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in the oracle"
            modules = [node.module]
        elif isinstance(node, ast.Name):
            assert node.id not in ("__import__", "importlib"), node.id
            continue
        else:
            continue
        for module in modules:
            if module == "lcodr" or module.startswith("lcodr."):
                assert module == "lcodr.model", f"the oracle imports {module}"


def test_build_cash_flows_requires_feasible_sizing():
    params = ParameterSet()
    bad = SizingResult(scheme=SchemeKind.V2G, feasible=False, reason="infeasible: x")
    app = ApplicationSpec("a", 1000.0, 1.0, 10.0, frozenset({SchemeKind.V2G}))
    with pytest.raises(oracle.InfeasibleInput):
        oracle.build_cash_flows(SchemeKind.V2G, app, bad, params)
