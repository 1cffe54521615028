"""The batch kernel against its oracle, the scalar evaluate_pairing.

Every comparison is exact (==): the batch path repeats the scalar path's
operations in the same order, so it must reproduce each value bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lcodr.costing import (
    COST_COMPONENTS,
    batch_columns,
    batch_row,
    evaluate_batch,
    evaluate_pairing,
)
from lcodr.model import (
    PARAMETERS,
    Assumptions,
    SchemeKind,
    ValidationError,
    build_parameter_set,
    default_applications,
    default_parameters,
    parameter_values,
)
from lcodr.uncertainty import McConfig, perturb_parameters, run_monte_carlo

APPS = default_applications()
BASE = default_parameters()


def oracle_values(ev):
    b = ev.breakdown
    return (b.lcodr_vf, b.investment, b.om_pv, b.rewards_pv, b.rebound_pv, b.eol_pv)


def assert_matches_oracle(param_sets, assumptions):
    """Compare evaluate_batch with evaluate_pairing on every pairing and
    sample; returns the number of infeasible (sample, pairing) cases."""
    columns = batch_columns(np.array([batch_row(p) for p in param_sets]))
    infeasible = 0
    for scheme in SchemeKind:
        for app in APPS:
            batch = evaluate_batch(scheme, app, columns, assumptions)
            for i, params in enumerate(param_sets):
                ev = evaluate_pairing(scheme, app, params)
                assert bool(batch.feasible[i]) == ev.feasible, (scheme, app.name, i)
                got = (batch.lcodr_vf[i],) + tuple(batch.components[c][i]
                                                   for c in COST_COMPONENTS)
                if ev.feasible:
                    assert got == oracle_values(ev), (scheme, app.name, i)
                else:
                    infeasible += 1
                    assert all(math.isnan(v) for v in got), (scheme, app.name, i)
    return infeasible


def perturbed(base, seed, samples):
    cfg = McConfig(samples=samples, seed=seed)
    return [perturb_parameters(base, cfg, i) for i in range(samples)]


@pytest.mark.parametrize("seed", [3, 17])
def test_batch_equals_oracle_on_perturbed_samples(seed):
    infeasible = assert_matches_oracle(perturbed(BASE, seed, 300), BASE.assumptions)
    assert infeasible > 0   # infeasible samples are part of the comparison


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
    assert assert_matches_oracle(perturbed(base, 29, 120), assumptions) > 0


def test_unsuitable_pairing_is_infeasible_everywhere():
    app = next(a for a in APPS if SchemeKind.SMART_CHARGING not in a.suitable_schemes)
    columns = batch_columns(np.array([batch_row(BASE)] * 3))
    batch = evaluate_batch(SchemeKind.SMART_CHARGING, app, columns, BASE.assumptions)
    assert not batch.feasible.any()
    assert np.isnan(batch.lcodr_vf).all()


def _value_strategy(spec):
    """Values at or near the registry bounds, with the default in the mix so
    that most drawn sets stay valid."""
    default = parameter_values(BASE)[spec.key]
    options = [st.just(default), st.just(default),
               st.floats(0.5, 1.5).map(lambda f, d=default: d * f)]
    options += [st.just(bound) for bound in (spec.lower, spec.upper) if bound is not None]
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
    """Every sample row of a Monte-Carlo run: the kernel's values equal
    evaluate_pairing's on that row's perturbed parameter set."""
    cfg = McConfig(samples=60, seed=23)
    dists = run_monte_carlo(list(SchemeKind), APPS, BASE, cfg)
    pairings = [(scheme, app) for scheme in SchemeKind for app in APPS]
    infeasible = 0
    for i in range(cfg.samples):
        params = perturb_parameters(BASE, cfg, i)
        for (scheme, app), d in zip(pairings, dists):
            ev = evaluate_pairing(scheme, app, params)
            assert bool(d.feasible[i]) == ev.feasible, (scheme, app.name, i)
            got = (d.samples[i],) + tuple(d.components[c][i] for c in COST_COMPONENTS)
            if ev.feasible:
                assert got == oracle_values(ev), (scheme, app.name, i)
            else:
                infeasible += 1
                assert all(math.isnan(v) for v in got), (scheme, app.name, i)
    assert infeasible > 0
