"""Metamorphic relations of the value factor and of the pairing kernel.

`tests/oracle.py` is a frozen copy of the formulas: it catches a refactor
that moves a number, not a formula that was wrong from the start. These
properties check what must hold between two runs without knowing either
result:

- the value factor is scale-invariant in the price and in the
  availability, and a flat availability is worth exactly its average;
- a pool's factor is that of its summed profile;
- the levelised cost is intensive: scaling an application's power leaves
  it unchanged;
- the value factor divides the cost: scaling it by c divides the cost by c;
- the cost is homogeneous in money: scaling every monetary input by c
  scales it by c;
- the cost is monotone: a rise of a cost input never lowers it, and a rise
  of a value factor never raises it;
- at the defaults, each input moves each feasible pairing's cost the way a
  pinned sign table says.
"""

from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lcodr.costing import BATCH_COLUMNS, batch_columns, batch_row, evaluate_batch
from lcodr.data import _pool_total, profile_value_factors
from lcodr.model import (
    VALUE_FACTOR_KEYS,
    Assumptions,
    SchemeKind,
    TimeSeries,
    default_applications,
    default_parameters,
    valid_rows,
)
from lcodr.uncertainty import McConfig, perturb_matrix
from lcodr.valuefactor import AvailabilityProfile, profile_factor

START = datetime(2023, 1, 1, tzinfo=timezone.utc)
APPS = default_applications()
BASE = default_parameters()
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

PRICES = st.floats(1e-2, 1e3)
AVAILABILITY = st.one_of(st.just(0.0), st.floats(1e-3, 1e2))
SCALES = st.floats(1e-3, 1e3)


def series(values, start=START):
    return TimeSeries(start, 3600.0, np.asarray(values, dtype=float))


@st.composite
def price_and_profile(draw, availability=AVAILABILITY):
    """A positive hourly price and a profile of `availability` values that
    starts 0 to 3 hours later and ends 0 to 3 hours earlier, so that
    aligning crops the price; the profile's mean is positive."""
    n = draw(st.integers(2, 200))
    head, tail = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    price = draw(arrays(np.float64, n + head + tail, elements=PRICES))
    values = draw(arrays(np.float64, n, elements=availability))
    if not values.any():
        values[draw(st.integers(0, n - 1))] = draw(st.floats(1e-3, 1e2))
    return (series(price, START - timedelta(hours=head)),
            AvailabilityProfile(series(values)))


def close(a, b, rel=1e-12) -> bool:
    return abs(a - b) <= rel * abs(b)


@SETTINGS
@given(price_and_profile(), SCALES)
def test_value_factor_is_scale_invariant_in_price_and_availability(inputs, c):
    price, profile = inputs
    vf = profile_factor(price, profile)
    scaled_profile = AvailabilityProfile(profile.series.with_values(profile.series.values * c))
    assert close(profile_factor(price.with_values(price.values * c), profile), vf)
    assert close(profile_factor(price, scaled_profile), vf)


@SETTINGS
@given(price_and_profile(availability=st.just(1.0)), st.floats(1e-3, 1e3))
def test_a_flat_availability_is_worth_its_average(inputs, level):
    price, ones = inputs
    assert profile_factor(price, ones) == 1.0
    flat = AvailabilityProfile(ones.series.with_values(ones.series.values * level))
    assert close(profile_factor(price, flat), 1.0)


@SETTINGS
@given(st.data())
def test_a_pool_has_the_factor_of_its_total(data):
    n = data.draw(st.integers(2, 100))
    price = series(data.draw(arrays(np.float64, n, elements=PRICES)))
    assets = [data.draw(arrays(np.float64, n, elements=AVAILABILITY))
              for _ in range(data.draw(st.integers(1, 5)))]
    assets[0][0] = 1.0   # a positive total
    pool = [AvailabilityProfile(series(values), asset_id=f"a{i}")
            for i, values in enumerate(assets)]
    power = AvailabilityProfile(series(np.ones(n)))
    energy = AvailabilityProfile(series(np.zeros(n)), upper=series(np.ones(n)))
    total = [_pool_total(pool)]
    pooled = profile_value_factors(price, pool, pool, power, energy)
    summed = profile_value_factors(price, total, total, power, energy)
    for scheme in ("smart_charging", "heat_pump"):
        assert pooled[scheme] == summed[scheme]


ASSUMPTIONS = st.builds(
    Assumptions,
    rpt_floor_at_base=st.booleans(),
    v2g_rebound_roundtrip=st.booleans(),
    cycle_constraint_direction=st.sampled_from(("scale_up", "as_printed")),
)


def valid_matrix(seed: int, sigma: float, samples: int = 64) -> np.ndarray:
    """Perturbed rows around the defaults that pass model.valid_rows."""
    matrix = perturb_matrix(BASE, McConfig(samples=samples, seed=seed, sigma_inputs=sigma,
                                           sigma_vf=sigma), 0, samples)
    return matrix[valid_rows(batch_columns(matrix))]


def pairings():
    return [(scheme, app) for scheme in SchemeKind for app in APPS
            if scheme in app.suitable_schemes]


@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.5), st.floats(1e-3, 1e3), ASSUMPTIONS)
def test_the_cost_is_intensive_in_the_application_power(seed, sigma, c, assumptions):
    columns = batch_columns(valid_matrix(seed, sigma))
    feasible = 0
    for scheme, app in pairings():
        base = evaluate_batch(scheme, app, columns, assumptions)
        scaled = evaluate_batch(scheme, replace(app, power_capacity=app.power_capacity * c),
                                columns, assumptions)
        assert np.array_equal(scaled.feasible, base.feasible), (scheme, app.name)
        ok = base.feasible
        feasible += ok.sum()
        np.testing.assert_allclose(scaled.lcodr_vf[ok], base.lcodr_vf[ok], rtol=1e-12, atol=0,
                                   err_msg=f"{scheme} {app.name}")
    assert feasible > 0


@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.5), st.floats(1e-3, 1e3), ASSUMPTIONS)
def test_the_value_factor_divides_the_cost(seed, sigma, c, assumptions):
    matrix = valid_matrix(seed, sigma)
    scaled_matrix = matrix.copy()
    scaled_matrix[:, [BATCH_COLUMNS.index(key) for key in VALUE_FACTOR_KEYS]] *= c
    columns, scaled_columns = batch_columns(matrix), batch_columns(scaled_matrix)
    feasible = 0
    for scheme, app in pairings():
        base = evaluate_batch(scheme, app, columns, assumptions)
        scaled = evaluate_batch(scheme, app, scaled_columns, assumptions)
        assert np.array_equal(scaled.feasible, base.feasible), (scheme, app.name)
        ok = base.feasible
        feasible += ok.sum()
        np.testing.assert_allclose(scaled.lcodr_vf[ok] * c, base.lcodr_vf[ok], rtol=1e-12,
                                   atol=0, err_msg=f"{scheme} {app.name}")
    assert feasible > 0


#: The monetary inputs: capex, rewards, end-of-life costs, the electricity
#: price and the reward floor.
MONEY = ("v2g_reward_base", "v2g_reward_per_hour", "smart_reward_base", "smart_reward_per_hour",
         "hp_reward_monthly", "tank_area_reward_monthly", "electricity_price",
         "v2g_charger_capex", "smart_charger_capex", "thermostat_capex", "tank_capex_per_m3",
         "v2g_eol_per_charger", "tank_eol_per_m2", "reward_floor")

#: Inputs that only add to a cost: capex, base and flat rewards, end-of-life
#: costs, O&M, the electricity price, the discount rate and the reward floor.
COST_INPUTS = ("v2g_charger_capex", "smart_charger_capex", "thermostat_capex",
               "tank_capex_per_m3", "v2g_reward_base", "smart_reward_base",
               "hp_reward_monthly", "tank_area_reward_monthly", "v2g_eol_per_charger",
               "tank_eol_per_m2", "om_fraction", "electricity_price", "discount_rate",
               "reward_floor")


def scaled(matrix: np.ndarray, keys, c: float) -> np.ndarray:
    """`matrix` with the columns of `keys` multiplied by c."""
    out = matrix.copy()
    out[:, [BATCH_COLUMNS.index(key) for key in keys]] *= c
    return out


def evaluations(matrix: np.ndarray, assumptions):
    columns = batch_columns(matrix)
    return [evaluate_batch(scheme, app, columns, assumptions) for scheme, app in pairings()]


@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.5), ASSUMPTIONS)
def test_the_cost_is_homogeneous_in_money(seed, sigma, assumptions):
    matrix = valid_matrix(seed, sigma)
    base = evaluations(matrix, assumptions)
    assert sum(b.feasible.sum() for b in base) > 0
    # times 2 is exact; times 3.7 rounds each scaled input and every step
    # after it (8 ulps at most over 61,440 perturbed rows)
    for c, rtol in ((2.0, 0.0), (3.7, 4e-15)):
        for (scheme, app), b, s in zip(pairings(), base,
                                       evaluations(scaled(matrix, MONEY, c), assumptions)):
            assert np.array_equal(s.feasible, b.feasible), (scheme, app.name, c)
            ok = b.feasible
            np.testing.assert_allclose(s.lcodr_vf[ok], c * b.lcodr_vf[ok], rtol=rtol, atol=0,
                                       err_msg=f"{scheme} {app.name} x{c}")


@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.5), ASSUMPTIONS)
def test_a_cost_input_never_lowers_and_a_value_factor_never_raises_the_cost(
        seed, sigma, assumptions):
    matrix = valid_matrix(seed, sigma)
    base = evaluations(matrix, assumptions)
    for key, sign in [(key, 1) for key in COST_INPUTS] + [(key, -1) for key in VALUE_FACTOR_KEYS]:
        for (scheme, app), b, r in zip(pairings(), base,
                                       evaluations(scaled(matrix, [key], 1.05), assumptions)):
            assert np.array_equal(r.feasible, b.feasible), (scheme, app.name, key)
            ok = b.feasible
            assert (sign * (r.lcodr_vf[ok] - b.lcodr_vf[ok]) >= 0).all(), (scheme, app.name, key)


#: The relative step of each input in the sign table. `lifetime_years` is an
#: integer that the kernel truncates (1 % of 15 years steps nothing), so it
#: is stepped by one year.
STEP = 0.01

#: Per pairing feasible at the defaults, one mark per BATCH_COLUMNS input:
#: the sign of lcodr_vf(x + step) - lcodr_vf(x - step); '0' where that
#: change is within 1e-12 of the cost, which is rounding (the smallest real
#: change is 2e-6 of the cost); '!' where a step makes the pairing
#: infeasible or moves V2G's binding constraint, which no step does at the
#: defaults. A model change that flips a mark is a declared re-baseline.
#: The table shows, for example, that the per-hour rewards move no cost (the
#: contracted plug-in time is floored at the base plug-in time), that V2G
#: is power-bound (`v2g_energy` moves nothing) and that a longer lifetime
#: lowers every cost.
SIGN_TABLE = {
    ("v2g", "Energy arbitrage"): "--+-++-++000000000000000+-++000++00-000",
    ("v2g", "Primary response"): "--+-++-++000000000000000+-++000++00-000",
    ("v2g", "Secondary response"): "--+-++-++000000000000000+-++000++00-000",
    ("v2g", "Tertiary response"): "--+-++-++000000000000000+-++000++00-000",
    ("v2g", "Peaker replacement"): "--+-++-++000000000000000+-++000++00-000",
    ("v2g", "Black start"): "--+-++-++000000000000000+-++000++00-000",
    ("v2g", "Congestion management"): "--+-++-++000000000000000+-++000++00-000",
    ("v2g", "Bill management"): "--+-++-++000000000000000+-++000++00-000",
    ("v2g", "Power quality"): "--+-++-++000000000000000+-++000++00-000",
    ("smart_charging", "Energy arbitrage"): "0000--000+00000000000000+-+0+00+00000-0",
    ("smart_charging", "Primary response"): "0000--000+00000000000000+-+0+00+00000-0",
    ("smart_charging", "Secondary response"): "0000--000+00000000000000+-+0+00+00000-0",
    ("smart_charging", "Tertiary response"): "0000--000+00000000000000+-+0+00+00000-0",
    ("smart_charging", "Peaker replacement"): "0000--000+00000000000000+-+0+00+00000-0",
    ("smart_charging", "T&D investment deferral"): "0000--000+00000000000000+-+0+00+00000-0",
    ("smart_charging", "Congestion management"): "0000--000+00000000000000+-+0+00+00000-0",
    ("smart_charging", "Bill management"): "0000--000+00000000000000+-+0+00+00000-0",
    ("smart_heat_pump", "Energy arbitrage"): "00000000000-0000-+000000+-+00+0+000000-",
    ("smart_heat_pump", "Primary response"): "00000000000-0000-+000000+-+00+0+000000-",
    ("smart_heat_pump", "Secondary response"): "00000000000-0000-+000000+-+00+0+000000-",
    ("smart_heat_pump", "Tertiary response"): "00000000000-00000+000000+-+00+0+000000-",
    ("smart_heat_pump", "Peaker replacement"): "00000000000-0000-+000000+-+00+0+000000-",
    ("smart_heat_pump", "T&D investment deferral"): "00000000000-++---+000000+-+00+0+000000-",
    ("smart_heat_pump", "Congestion management"): "00000000000-0000-+000000+-+00+0+000000-",
    ("smart_heat_pump", "Bill management"): "00000000000-0000-+000000+-+00+0+000000-",
    ("hp_thermal_storage", "Energy arbitrage"): "00000000000-++0000+---+-+-+00+++0+0000-",
    ("hp_thermal_storage", "Primary response"): "00000000000-++00000---+-+-+00+++0++000-",
    ("hp_thermal_storage", "Secondary response"): "00000000000-++00000---+-+-+00+++0++000-",
    ("hp_thermal_storage", "Tertiary response"): "00000000000-++0000+---+-+-+00+++0+0000-",
    ("hp_thermal_storage", "Peaker replacement"): "00000000000-++0000+---+-+-+00+++0+0000-",
    ("hp_thermal_storage", "T&D investment deferral"): "00000000000-++0000+---+-+-+00+++0+0000-",
    ("hp_thermal_storage", "Congestion management"): "00000000000-++00000---+-+-+00+++0++000-",
    ("hp_thermal_storage", "Bill management"): "00000000000-++0000+---+-+-+00+++0+0000-",
}


def _mark(batch, i: int) -> str:
    """The sign-table mark of input i: rows 2i + 1 and 2i + 2 of `batch`
    step it down and up, row 0 is the defaults."""
    steps = [2 * i + 1, 2 * i + 2]
    if (not batch.feasible[steps].all()
            or (batch.energy_bound[steps] != batch.energy_bound[0]).any()):
        return "!"
    down, up = batch.lcodr_vf[steps]
    if abs(up - down) <= 1e-12 * batch.lcodr_vf[0]:
        return "0"
    return "+" if up > down else "-"


def test_each_input_moves_each_cost_as_the_sign_table_says():
    base = np.array(batch_row(BASE))
    rows = [base]
    for i, key in enumerate(BATCH_COLUMNS):
        step = np.zeros_like(base)
        step[i] = 1.0 if key == "lifetime_years" else STEP * base[i]
        rows += [base - step, base + step]
    columns = batch_columns(np.array(rows))
    assert valid_rows(columns).all()
    table = {}
    for scheme, app in pairings():
        batch = evaluate_batch(scheme, app, columns, BASE.assumptions)
        if batch.feasible[0]:
            table[scheme.value, app.name] = "".join(_mark(batch, i)
                                                    for i in range(len(BATCH_COLUMNS)))
    assert table == SIGN_TABLE
