import math

import pytest

from lcodr.model import (
    ApplicationSpec,
    Assumptions,
    BindingConstraint,
    EvParameters,
    HeatParameters,
    ParameterSet,
    SchemeKind,
)
from lcodr.sizing import (
    AreaTooSmall,
    availability_factor,
    hp_max_discharge_duration,
    size_pairing,
    smart_charging_max_discharge_duration,
    tank_mass_from_area,
    thermal_storage_max_discharge_duration,
    v2g_max_discharge_duration,
)

EV = EvParameters()
HEAT = HeatParameters()
#: The contracted plug-in time is the kernel's inverse, not floored at the
#: observed base plug-in time.
UNFLOORED = ParameterSet(assumptions=Assumptions(rpt_floor_at_base=False))


def app(power_mw, duration_h, cycles, schemes=frozenset(SchemeKind)):
    return ApplicationSpec("test", power_mw * 1000.0, duration_h, cycles,
                           frozenset(schemes))


def test_v2g_charger_counts():
    # 100,000 kW / 6.808 kW per charger = 14,688.6 chargers
    res = size_pairing(SchemeKind.V2G, app(100, 4, 300), ParameterSet())
    assert res.binding_constraint is BindingConstraint.POWER      # 14,689 > 9,524
    assert res.available_assets == pytest.approx(14688.60, rel=1e-4)
    # a 22 kW charger (20.24 kW effective) binds on energy instead:
    # 100 MW * 4 h / 42 kWh per battery band = 9,523.8 chargers > 4,940.7
    fast = ParameterSet(ev=EvParameters(charger_power=22.0))
    res = size_pairing(SchemeKind.V2G, app(100, 4, 300), fast)
    assert res.binding_constraint is BindingConstraint.ENERGY
    assert res.available_assets == pytest.approx(9523.81, rel=1e-4)

def test_v2g_energy_binding():
    # 8 h duration: energy count 100,000*8/42 = 19,047.6 > 14,688.6 power
    # count; with a 22 kW charger the 8 h plug-in requirement fits in 24 h
    fast = ParameterSet(ev=EvParameters(charger_power=22.0))
    res = size_pairing(SchemeKind.V2G, app(100, 8, 300), fast)
    assert res.binding_constraint is BindingConstraint.ENERGY
    assert res.available_assets == pytest.approx(19047.62, rel=1e-4)

def test_availability_factor():
    # (11.5 - 0.735) / 24 = 0.4485
    assert availability_factor(11.5, EV.daily_charge_time) == pytest.approx(0.44854, rel=1e-4)


def test_unidirectional_assets():
    # 100,000 kW / 0.46 kW = 217,391.3 heat pumps
    res = size_pairing(SchemeKind.HP_THERMAL_STORAGE, app(100, 4, 300), ParameterSet())
    assert res.contracted_assets == pytest.approx(217391.3, rel=1e-4)
    assert res.available_assets == res.contracted_assets
    no_home_charging = ParameterSet(ev=EvParameters(home_charge_fraction=0.0))
    res = size_pairing(SchemeKind.SMART_CHARGING, app(1, 1, 10), no_home_charging)
    assert not res.feasible
    assert res.reason == "infeasible: average shiftable power must be > 0"

def test_min_required_plugin_time_v2g():
    # recharge of the 42 kWh band takes 42/6.808 = 6.169 h; a 0.5 h discharge
    # needs 2*(0.5 + 6.169) + 0.735 = 14.073 h of daily plug-in
    rpt = size_pairing(SchemeKind.V2G, app(100, 0.5, 300), UNFLOORED).required_plugin_time
    assert rpt == pytest.approx(14.0735, rel=1e-4)
    # the forward duration limit reproduces the requested duration
    assert v2g_max_discharge_duration(rpt, EV) == pytest.approx(0.5, rel=1e-9)
    # 8 h would need 2*(8 + 6.169) + 0.735 = 29.07 h > 24 h
    res = size_pairing(SchemeKind.V2G, app(100, 8, 300), UNFLOORED)
    assert res.reason == "infeasible: required plug-in time 29.07 h exceeds 24 h"


def test_min_required_plugin_time_smart_charging():
    rpt = size_pairing(SchemeKind.SMART_CHARGING, app(100, 4, 300),
                       UNFLOORED).required_plugin_time
    assert rpt == pytest.approx(4.0 + EV.daily_charge_time)
    assert smart_charging_max_discharge_duration(rpt, EV) == pytest.approx(4.0)


def test_hp_power_reduction_and_duration():
    # heat band 34780 kJ/K * 1.67 K / 3600 = 16.13 kWh of electricity-equivalent
    # full active power can be shed up to 2*16.13/(1.68*2.71) = 7.088 h
    assert hp_max_discharge_duration(HEAT) == pytest.approx(7.088, rel=1e-3)
    params = ParameterSet()
    res = size_pairing(SchemeKind.SMART_HEAT_PUMP, app(100, 4, 300), params)
    assert res.power_reduction == pytest.approx(HEAT.hp_active_power)
    # beyond the limit the reduction shrinks proportionally
    red = size_pairing(SchemeKind.SMART_HEAT_PUMP, app(100, 10, 300), params).power_reduction
    assert red == pytest.approx(2 * 16.1346 / (2.71 * 10.0), rel=1e-3)
    assert red < HEAT.hp_active_power

def test_hp_cycle_adjustment():
    def growth(cycles, direction="scale_up"):
        params = ParameterSet(assumptions=Assumptions(cycle_constraint_direction=direction))
        res = size_pairing(SchemeKind.SMART_HEAT_PUMP, app(100, 1, cycles), params)
        return res.contracted_assets / res.available_assets

    # allowance 12*3.33 = 39.96 activations a year
    assert growth(300.0) == pytest.approx(300.0 / 39.96)
    # fewer cycles than allowed never shrinks the fleet in scale_up mode
    assert growth(10.0) == 1.0
    # the printed-variant comparison mode applies the reciprocal factor
    assert growth(10.0, "as_printed") == pytest.approx(39.96 / 10.0)

def test_min_tank_area_fixture():
    # 4 h at full active power: 1.68*2.71*4 = 18.21 kWh thermal
    # mass = 18.21*3600/(4.18*35) = 448.1 kg; r = sqrt(V/(pi*2.2)); A = (2(r+L))^2
    res = size_pairing(SchemeKind.HP_THERMAL_STORAGE, app(100, 4, 300), ParameterSet())
    assert res.tank_mass == pytest.approx(448.13, rel=1e-3)
    assert res.tank_volume == pytest.approx(0.44813, rel=1e-3)
    assert res.tank_area == pytest.approx(0.3712, rel=1e-3)
    # forward formula reproduces the duration
    assert thermal_storage_max_discharge_duration(res.tank_area, HEAT) == \
        pytest.approx(4.0, rel=1e-9)


def test_tank_mass_rejects_tiny_area():
    with pytest.raises(AreaTooSmall):
        tank_mass_from_area(0.005, HEAT)


def test_size_pairing_v2g_floor():
    params = ParameterSet()
    res = size_pairing(SchemeKind.V2G, app(100, 0.5, 5000), params)
    # required 14.073 h exceeds the 11.5 h base, so no floor effect
    assert res.feasible
    assert res.required_plugin_time == pytest.approx(14.0735, rel=1e-4)
    # a very short duration would need less than the base plug-in time;
    # the contract is floored at the observed 11.5 h
    res = size_pairing(SchemeKind.SMART_CHARGING, app(100, 1, 300), params)
    assert res.required_plugin_time == 11.5


def test_size_pairing_no_floor_mode():
    params = ParameterSet(assumptions=Assumptions(rpt_floor_at_base=False))
    res = size_pairing(SchemeKind.SMART_CHARGING, app(100, 1, 300), params)
    assert res.required_plugin_time == pytest.approx(1.0 + EV.daily_charge_time)


def test_size_pairing_unsuitable_and_infeasible():
    params = ParameterSet()
    res = size_pairing(SchemeKind.SMART_CHARGING, app(10, 1, 10, {SchemeKind.V2G}),
                       params)
    assert not res.feasible
    assert "unsuitable" in res.reason
    res = size_pairing(SchemeKind.V2G, app(100, 8, 300), params)
    assert not res.feasible
    assert "exceeds 24 h" in res.reason


def test_size_pairing_thermal_storage():
    params = ParameterSet()
    res = size_pairing(SchemeKind.HP_THERMAL_STORAGE, app(100, 4, 300), params)
    assert res.feasible
    assert res.contracted_assets == pytest.approx(217391.3, rel=1e-4)
    assert res.tank_area == pytest.approx(0.3712, rel=1e-3)


def test_size_pairing_smart_heat_pump_partial_reduction():
    params = ParameterSet()
    # 8 h exceeds the 7.088 h full-power limit, so the per-pump reduction is
    # partial and the fleet grows proportionally
    res = size_pairing(SchemeKind.SMART_HEAT_PUMP, app(100, 8, 300), params)
    assert res.feasible
    assert res.power_reduction < HEAT.hp_active_power
    full = size_pairing(SchemeKind.SMART_HEAT_PUMP, app(100, 4, 300), params)
    assert res.contracted_assets > full.contracted_assets
