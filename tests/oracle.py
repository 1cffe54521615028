"""Frozen scalar reference for sizing and costing one pairing.

A plain-Python copy of the chain that `lcodr.costing.evaluate_batch`
computes: size the fleet, build the annual cash flows, levelise them and
divide by the value factor, one ParameterSet at a time. The kernel and its
one-row wrappers (`evaluate_pairing`, `size_pairing`) are compared against
this copy in tests/test_batch.py, so the kernel is never checked against
itself.

Keep it frozen: a change to the model is made in `src/lcodr/` first, and
here only as a deliberate, reviewed edit of the reference. It imports
nothing from lcodr but `lcodr.model` (tests/test_batch.py checks this), so
it cannot come to call the code it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from lcodr.model import (
    ApplicationSpec,
    BindingConstraint,
    CostBreakdown,
    LcodrError,
    ParameterSet,
    SchemeKind,
    SizingResult,
)

KJ_PER_KWH = 3600.0


# ---------------------------------------------------------------------------
# Sizing
# ---------------------------------------------------------------------------

class SizingError(LcodrError):
    pass


class InfeasibleDuration(SizingError):
    def __init__(self, required_hours: float):
        self.required_hours = required_hours
        super().__init__(f"required plug-in time {required_hours:.2f} h exceeds 24 h")


def v2g_required_available(app: ApplicationSpec, ev):
    n_power = app.power_capacity / ev.effective_charger_power
    n_energy = app.power_capacity * app.discharge_duration / ev.dischargeable_energy
    if n_energy > n_power:
        return n_energy, BindingConstraint.ENERGY
    return n_power, BindingConstraint.POWER


def v2g_availability_factor(required_plugin_time: float, ev) -> float:
    t_cha = ev.daily_charge_time
    if required_plugin_time > 24.0:
        raise SizingError(f"required plug-in time {required_plugin_time} h exceeds 24 h")
    if required_plugin_time < t_cha:
        raise SizingError(
            f"required plug-in time {required_plugin_time} h is below the "
            f"daily charging time {t_cha:.3f} h")
    return (required_plugin_time - t_cha) / 24.0


def contracted_from_available(n_available: float, availability: float) -> float:
    if availability <= 0:
        raise SizingError("availability factor must be > 0")
    return n_available / availability


def unidirectional_assets(power_capacity: float, avg_shiftable_power: float) -> float:
    if avg_shiftable_power <= 0:
        raise SizingError("average shiftable power must be > 0")
    return power_capacity / avg_shiftable_power


def min_required_plugin_time(scheme: SchemeKind, discharge_duration: float, ev) -> float:
    t_cha = ev.daily_charge_time
    if scheme is SchemeKind.SMART_CHARGING:
        required = discharge_duration + t_cha
    else:
        recharge = ev.dischargeable_energy / ev.effective_charger_power
        required = 2.0 * (discharge_duration + recharge) + t_cha
    if required > 24.0:
        raise InfeasibleDuration(required)
    return required


def hp_power_reduction(discharge_duration: float, heat) -> float:
    heat_band_kwh = heat.building_heat_capacity * heat.building_temp_divergence / KJ_PER_KWH
    unclamped = 2.0 * heat_band_kwh / (heat.seasonal_performance * discharge_duration)
    return min(heat.hp_active_power, unclamped)


def hp_cycle_adjusted_assets(n_unadjusted: float, annual_cycles: float,
                             max_activations_per_month: float, direction: str) -> float:
    if max_activations_per_month <= 0:
        raise SizingError("activation allowance must be > 0")
    allowance = 12.0 * max_activations_per_month
    if direction == "as_printed":
        return n_unadjusted * allowance / annual_cycles
    return n_unadjusted * max(1.0, annual_cycles / allowance)


def min_tank_area(discharge_duration: float, heat):
    thermal_kwh = heat.hp_active_power * heat.seasonal_performance * discharge_duration
    mass = thermal_kwh * KJ_PER_KWH / (heat.water_heat_capacity * heat.tank_temp_range)
    volume = mass / heat.water_density
    height = heat.ceiling_height - 2.0 * heat.wall_thickness
    radius = math.sqrt(volume / (math.pi * height))
    side = 2.0 * (radius + heat.wall_thickness)
    return side ** 2, volume, mass


def _contract_plugin_time(scheme, app, params) -> float:
    required = min_required_plugin_time(scheme, app.discharge_duration, params.ev)
    if params.assumptions.rpt_floor_at_base:
        required = max(required, params.ev.base_plugin_time)
    return required


def size_pairing(scheme: SchemeKind, app: ApplicationSpec,
                 params: ParameterSet) -> SizingResult:
    if scheme not in app.suitable_schemes:
        return SizingResult(scheme=scheme, feasible=False,
                            reason=f"unsuitable: {scheme.value} cannot service {app.name!r}")
    try:
        if scheme is SchemeKind.V2G:
            return _size_v2g(app, params)
        if scheme is SchemeKind.SMART_CHARGING:
            return _size_smart_charging(app, params)
        if scheme is SchemeKind.SMART_HEAT_PUMP:
            return _size_smart_heat_pump(app, params)
        return _size_thermal_storage(app, params)
    except InfeasibleDuration as exc:
        reason = f"infeasible: required plug-in time {exc.required_hours:.2f} h exceeds 24 h"
    except SizingError as exc:
        reason = f"infeasible: {exc}"
    return SizingResult(scheme=scheme, feasible=False, reason=reason)


def _size_v2g(app, params) -> SizingResult:
    ev = params.ev
    plugin_time = _contract_plugin_time(SchemeKind.V2G, app, params)
    n_available, binding = v2g_required_available(app, ev)
    availability = v2g_availability_factor(plugin_time, ev)
    n_contracted = contracted_from_available(n_available, availability)
    return SizingResult(
        scheme=SchemeKind.V2G, feasible=True,
        contracted_assets=n_contracted, available_assets=n_available,
        binding_constraint=binding, required_plugin_time=plugin_time)


def _size_smart_charging(app, params) -> SizingResult:
    ev = params.ev
    plugin_time = _contract_plugin_time(SchemeKind.SMART_CHARGING, app, params)
    avg_shiftable = ev.daily_drive_energy * ev.home_charge_fraction / 24.0
    n_assets = unidirectional_assets(app.power_capacity, avg_shiftable)
    return SizingResult(
        scheme=SchemeKind.SMART_CHARGING, feasible=True,
        contracted_assets=n_assets, available_assets=n_assets,
        required_plugin_time=plugin_time)


def _size_smart_heat_pump(app, params) -> SizingResult:
    heat = params.heat
    reduction = hp_power_reduction(app.discharge_duration, heat)
    effective_shiftable = heat.hp_average_power * reduction / heat.hp_active_power
    n_unadjusted = unidirectional_assets(app.power_capacity, effective_shiftable)
    n_contracted = hp_cycle_adjusted_assets(
        n_unadjusted, app.annual_cycles, heat.max_activations_per_month,
        params.assumptions.cycle_constraint_direction)
    return SizingResult(
        scheme=SchemeKind.SMART_HEAT_PUMP, feasible=True,
        contracted_assets=n_contracted,
        available_assets=min(n_unadjusted, n_contracted),
        power_reduction=reduction)


def _size_thermal_storage(app, params) -> SizingResult:
    heat = params.heat
    n_assets = unidirectional_assets(app.power_capacity, heat.hp_average_power)
    area, volume, mass = min_tank_area(app.discharge_duration, heat)
    return SizingResult(
        scheme=SchemeKind.HP_THERMAL_STORAGE, feasible=True,
        contracted_assets=n_assets, available_assets=n_assets,
        tank_area=area, tank_volume=volume, tank_mass=mass)


# ---------------------------------------------------------------------------
# Costing
# ---------------------------------------------------------------------------

class InfeasibleInput(LcodrError):
    """Cash flows were requested for an infeasible sizing."""


@dataclass(frozen=True)
class CashFlowSchedule:
    investment_t0: float
    annual_om: float
    annual_rewards: float
    annual_rebound: float
    eol_cost: float
    annual_energy: float
    lifetime_years: int
    discount_rate: float


def present_value_annual(amount: float, discount_rate: float, years: int) -> float:
    return amount * sum((1.0 + discount_rate) ** -t for t in range(1, years + 1))


def monthly_reward_per_asset(scheme, sizing, params) -> float:
    ev, econ = params.ev, params.econ
    base_hours = params.assumptions.reward_base_hours
    if base_hours is None:
        base_hours = ev.base_plugin_time
    if scheme is SchemeKind.V2G:
        reward = ev.v2g_reward_base + (sizing.required_plugin_time - base_hours) \
            * ev.v2g_reward_per_hour
        return max(econ.reward_floor, reward)
    if scheme is SchemeKind.SMART_CHARGING:
        reward = ev.smart_reward_base + (sizing.required_plugin_time - base_hours) \
            * ev.smart_reward_per_hour
        return max(econ.reward_floor, reward)
    if scheme is SchemeKind.SMART_HEAT_PUMP:
        return params.heat.hp_reward_monthly
    return max(econ.reward_floor, params.heat.tank_area_reward_monthly * sizing.tank_area)


def _capex_per_asset(scheme, sizing, params) -> float:
    econ = params.econ
    if scheme is SchemeKind.V2G:
        return econ.v2g_charger_capex
    if scheme is SchemeKind.SMART_CHARGING:
        return econ.smart_charger_capex
    if scheme is SchemeKind.SMART_HEAT_PUMP:
        return econ.thermostat_capex
    return econ.thermostat_capex + econ.tank_capex_per_m3 * sizing.tank_volume


def _eol_per_asset(scheme, sizing, params) -> float:
    if scheme is SchemeKind.V2G:
        return params.econ.v2g_eol_per_charger
    if scheme is SchemeKind.HP_THERMAL_STORAGE:
        return params.econ.tank_eol_per_m2 * sizing.tank_area
    return 0.0


def rebound_factor(scheme, params) -> float:
    if scheme is SchemeKind.V2G and params.assumptions.v2g_rebound_roundtrip:
        return 1.0 / params.ev.charger_efficiency ** 2
    return 1.0


def build_cash_flows(scheme, app, sizing, params) -> CashFlowSchedule:
    if not sizing.feasible:
        raise InfeasibleInput(sizing.reason)
    econ = params.econ
    n = sizing.contracted_assets
    investment = n * _capex_per_asset(scheme, sizing, params)
    annual_energy = app.annual_energy_mwh
    price_per_mwh = econ.electricity_price * 1000.0
    return CashFlowSchedule(
        investment_t0=investment,
        annual_om=econ.om_fraction * investment,
        annual_rewards=12.0 * n * monthly_reward_per_asset(scheme, sizing, params),
        annual_rebound=annual_energy * price_per_mwh * rebound_factor(scheme, params),
        eol_cost=n * _eol_per_asset(scheme, sizing, params),
        annual_energy=annual_energy,
        lifetime_years=econ.lifetime_years,
        discount_rate=econ.discount_rate,
    )


def _pv_components(cf: CashFlowSchedule):
    r, years = cf.discount_rate, cf.lifetime_years
    om = present_value_annual(cf.annual_om, r, years)
    rewards = present_value_annual(cf.annual_rewards, r, years)
    rebound = present_value_annual(cf.annual_rebound, r, years)
    eol = cf.eol_cost * (1.0 + r) ** -(years + 1)
    energy = present_value_annual(cf.annual_energy, r, years)
    return om, rewards, rebound, eol, energy


@dataclass(frozen=True)
class Evaluation:
    """What `lcodr.costing.PairingEvaluation` holds, field for field."""

    status: str
    reason: str = ""
    sizing: Optional[SizingResult] = None
    breakdown: Optional[CostBreakdown] = None

    @property
    def feasible(self) -> bool:
        return self.status == "ok"


def evaluate_pairing(scheme: SchemeKind, app: ApplicationSpec,
                     params: ParameterSet) -> Evaluation:
    if scheme not in app.suitable_schemes:
        return Evaluation("unsuitable", f"{scheme.value} cannot service {app.name!r}")
    sizing = size_pairing(scheme, app, params)
    if not sizing.feasible:
        return Evaluation("infeasible", sizing.reason, sizing=sizing)
    cf = build_cash_flows(scheme, app, sizing, params)
    om, rewards, rebound, eol, energy = _pv_components(cf)
    total = cf.investment_t0 + om + rewards + rebound + eol
    energy_cost = total / energy
    capacity_years = present_value_annual(app.power_capacity, cf.discount_rate,
                                          cf.lifetime_years)
    vf = params.value_factors.for_scheme(scheme, sizing.binding_constraint)
    breakdown = CostBreakdown(
        investment=cf.investment_t0,
        om_pv=om, rewards_pv=rewards, rebound_pv=rebound, eol_pv=eol,
        energy_pv=energy,
        lcodr_energy=energy_cost,
        lcodr_power=total / capacity_years,
        value_factor=vf,
        lcodr_vf=energy_cost / vf,
    )
    return Evaluation("ok", sizing=sizing, breakdown=breakdown)
