import math

import pytest

from lcodr.costing import (
    evaluate_pairing,
    left_to_right_sum,
    monthly_reward,
    present_value_annual,
)
from lcodr.model import (
    ApplicationSpec,
    Assumptions,
    BindingConstraint,
    ParameterSet,
    SchemeKind,
    ValidationError,
    ValueFactorTable,
    load_config_dict,
    parameter_values,
)

ARBITRAGE = ApplicationSpec("Energy arbitrage", 100_000.0, 4.0, 300.0, frozenset(SchemeKind))
#: Overrides under which smart charging costs nothing but rebound energy.
REBOUND_ONLY = {"smart_charger_capex": 0.0, "smart_reward_base": 0.0,
                "smart_reward_per_hour": 0.0, "reward_floor": 0.0}


def annuity(r, years):
    """Closed-form present value of 1 per year — the independent oracle."""
    if r == 0:
        return float(years)
    return (1.0 - (1.0 + r) ** -years) / r


def reward(scheme, params, **sizing):
    """The monthly reward on `params` for a plug-in time or tank area."""
    return monthly_reward(scheme, parameter_values(params), params.assumptions, **sizing)


def test_present_value_matches_annuity():
    for r in (0.0, 0.03, 0.08, 0.15):
        for years in (1, 5, 15, 30):
            assert present_value_annual(1.0, r, years) == \
                pytest.approx(annuity(r, years), rel=1e-12)


def test_sums_add_left_to_right_not_compensated():
    # inputs on which math.fsum, and so sum() of floats from Python 3.12 on,
    # rounds differently from adding one value at a time
    cancelling = [1.0, 1e100, 1.0, -1e100]
    assert math.fsum(cancelling) == 2.0
    assert left_to_right_sum(cancelling) == 0.0
    terms = [1.05 ** -t for t in range(1, 16)]
    total = 0.0
    for term in terms:
        total += term
    assert math.fsum(terms) != total
    assert left_to_right_sum(terms) == total
    assert present_value_annual(1.0, 0.05, 15) == total


def test_monthly_reward_smart_charging():
    params = ParameterSet()
    # base contract: 11.5 h plug-in pays exactly the base reward
    assert reward(SchemeKind.SMART_CHARGING, params,
                  plugin_time=11.5) == pytest.approx(40.81)
    # 15 h: 40.81 + 3.5 * 11.8 = 82.11
    assert reward(SchemeKind.SMART_CHARGING, params,
                  plugin_time=15.0) == pytest.approx(82.11)
    # 8 h: 40.81 - 3.5 * 11.8 = -0.49, floored at the 5 $ minimum
    assert reward(SchemeKind.SMART_CHARGING, params,
                  plugin_time=8.0) == pytest.approx(5.0)


def test_monthly_reward_base_hours_override():
    # anchoring the base reward at 10 h instead of the observed plug-in time:
    # 40.81 + (15 - 10) * 11.8 = 99.81
    params = ParameterSet(assumptions=Assumptions(reward_base_hours=10.0))
    assert reward(SchemeKind.SMART_CHARGING, params,
                  plugin_time=15.0) == pytest.approx(99.81)


def test_monthly_reward_v2g_and_heat():
    params = ParameterSet()
    # 59.1 + 2.5 * 29 = 131.6
    assert reward(SchemeKind.V2G, params, plugin_time=14.0) == pytest.approx(131.6)
    assert reward(SchemeKind.SMART_HEAT_PUMP, params) == 10.7
    # 17.7 $/m2 * 0.3712 m2 = 6.57 $/month, above the floor
    assert reward(SchemeKind.HP_THERMAL_STORAGE, params, tank_area=0.3712) \
        == pytest.approx(6.570, rel=1e-3)


def test_reward_floor_under_perturbation():
    # the floor holds even when the area reward collapses
    params, _ = load_config_dict({"tank_area_reward_monthly": 0.01})
    assert reward(SchemeKind.HP_THERMAL_STORAGE, params, tank_area=0.3712) == 5.0


def test_rebound_factor():
    def factor(scheme, params):
        # rebound PV over the PV of the shifted energy at 50 $/MWh
        b = evaluate_pairing(scheme, ARBITRAGE, params).breakdown
        return b.rebound_pv / (b.energy_pv * 50.0)

    params = ParameterSet()
    # V2G loses efficiency on discharge and recharge: 1/0.92^2 = 1.1815
    assert factor(SchemeKind.V2G, params) == pytest.approx(1.18147, rel=1e-4)
    assert factor(SchemeKind.SMART_CHARGING, params) == pytest.approx(1.0, rel=1e-12)
    assert factor(SchemeKind.HP_THERMAL_STORAGE, params) == pytest.approx(1.0, rel=1e-12)
    simple = ParameterSet(assumptions=Assumptions(v2g_rebound_roundtrip=False))
    assert factor(SchemeKind.V2G, simple) == pytest.approx(1.0, rel=1e-12)

def test_rebound_only_lcodr_equals_energy_price():
    # with every other cost zero, the levelised cost is exactly the rebound
    # price per MWh (50 $/MWh by default), independent of discounting
    for r in (0.0, 0.05, 0.12):
        for years in (1, 7, 25):
            params, _ = load_config_dict(dict(REBOUND_ONLY, discount_rate=r,
                                              lifetime_years=years))
            b = evaluate_pairing(SchemeKind.SMART_CHARGING, ARBITRAGE, params).breakdown
            assert b.lcodr_energy == pytest.approx(50.0, rel=1e-12)


def test_eol_discounted_one_year_after_life():
    params = ParameterSet()
    result = evaluate_pairing(SchemeKind.V2G, ARBITRAGE, params)
    # the default 15-year life at 8 %: due in year 16
    assert result.breakdown.eol_pv == (result.sizing.contracted_assets
                                       * parameter_values(params)["v2g_eol_per_charger"]
                                       * 1.08 ** -16)


def test_lcodr_power_term():
    b = evaluate_pairing(SchemeKind.SMART_HEAT_PUMP, ARBITRAGE, ParameterSet()).breakdown
    # total cost / (100,000 kW * annuity) $/kW-year
    assert b.lcodr_power == pytest.approx(
        b.total_cost_pv / (100_000.0 * annuity(0.08, 15)), rel=1e-12)

def test_zero_energy_and_value_factor_guards():
    # the shifted energy of the smallest positive capacity rounds to 0 MWh
    tiny = ApplicationSpec("tiny", 5e-324, 1.0, 1.0, frozenset(SchemeKind))
    assert tiny.annual_energy_mwh == 0.0
    result = evaluate_pairing(SchemeKind.SMART_CHARGING, tiny, ParameterSet())
    assert result.reason == "infeasible: fleet size or cost exceeds the float range"
    with pytest.raises(ValidationError):
        ValueFactorTable(smart_charging=0.0)
    params = ParameterSet(value_factors=ValueFactorTable(smart_charging=1.25))
    b = evaluate_pairing(SchemeKind.SMART_CHARGING, ARBITRAGE, params).breakdown
    assert b.value_factor == 1.25
    assert b.lcodr_vf == b.lcodr_energy / 1.25

def test_evaluate_pairing_v2g_arbitrage():
    result = evaluate_pairing(SchemeKind.V2G, ARBITRAGE, ParameterSet())
    assert result.feasible
    assert result.sizing.binding_constraint is BindingConstraint.POWER
    b = result.breakdown
    # investment = 3000 $ * contracted chargers
    assert b.investment == pytest.approx(3000.0 * result.sizing.contracted_assets)
    # the components sum to the numerator behind the levelised figure
    assert b.lcodr_energy == pytest.approx(b.total_cost_pv / b.energy_pv, rel=1e-12)
    assert b.lcodr_vf == pytest.approx(b.lcodr_energy / b.value_factor, rel=1e-12)


def test_evaluate_pairing_statuses():
    params = ParameterSet()
    app = ApplicationSpec("Black start", 10_000.0, 1.0, 10.0,
                          frozenset({SchemeKind.V2G}))
    assert evaluate_pairing(SchemeKind.SMART_CHARGING, app, params).status == \
        "unsuitable"
    long_app = ApplicationSpec("deferral", 100_000.0, 8.0, 300.0,
                               frozenset(SchemeKind))
    assert evaluate_pairing(SchemeKind.V2G, long_app, params).status == "infeasible"
