"""Lifetime cash flows and levelised cost reduction.

Builds the aggregator's discounted cost schedule for a sized pairing —
investment, O&M, consumer rewards, rebound energy purchases, end-of-life —
and reduces it to the levelised cost per shifted MWh (and per kW-year),
optionally adjusted by the scheme's availability-profile value factor.

`evaluate_pairing` works on one ParameterSet and is the reference
definition. `evaluate_batch` sizes and costs a pairing over many parameter
samples at once with numpy; it repeats the scalar path's operations in the
same order, so every value it returns equals the scalar one exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from .model import (
    PARAMETERS,
    VALUE_FACTOR_KEYS,
    ApplicationSpec,
    Assumptions,
    BindingConstraint,
    CostBreakdown,
    LcodrError,
    ParameterSet,
    SchemeKind,
    SizingResult,
    parameter_values,
)
from .sizing import KJ_PER_KWH, size_pairing

COST_COMPONENTS = ("investment", "om", "rewards", "rebound", "eol")


class CostingError(LcodrError):
    pass


class InfeasibleInput(CostingError):
    """Cash flows were requested for an infeasible sizing."""


class ZeroEnergy(CostingError):
    pass


class NonPositiveValueFactor(CostingError):
    pass


@dataclass(frozen=True)
class CashFlowSchedule:
    """Constant annual cash flows over the scheme lifetime.

    Monetary fields in $, energy in MWh/year. End-of-life costs fall due one
    year after the last operating year.
    """

    investment_t0: float
    annual_om: float
    annual_rewards: float
    annual_rebound: float
    eol_cost: float
    annual_energy: float
    lifetime_years: int
    discount_rate: float


def present_value_annual(amount: float, discount_rate: float, years: int) -> float:
    """Present value of a constant annual amount paid at the end of years
    1..T. Computed by explicit summation; the year-by-year sum is the
    definition, not an approximation of the annuity formula."""
    return amount * sum((1.0 + discount_rate) ** -t for t in range(1, years + 1))


def monthly_reward_per_asset(scheme: SchemeKind, sizing: SizingResult,
                             params: ParameterSet) -> float:
    """Monthly payment to one contracted consumer, $.

    EV schemes pay a base reward plus a per-hour rate on plug-in time above
    the base contract; thermal storage pays for the tank's floor area; the
    smart heat-pump reward is a flat thermostat payment. V2G, smart charging
    and thermal storage are floored at the minimum monthly reward.
    """
    if not sizing.feasible:
        raise InfeasibleInput(sizing.reason)
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
    return max(econ.reward_floor,
               params.heat.tank_area_reward_monthly * sizing.tank_area)


def _capex_per_asset(scheme: SchemeKind, sizing: SizingResult,
                     params: ParameterSet) -> float:
    econ = params.econ
    if scheme is SchemeKind.V2G:
        return econ.v2g_charger_capex
    if scheme is SchemeKind.SMART_CHARGING:
        return econ.smart_charger_capex
    if scheme is SchemeKind.SMART_HEAT_PUMP:
        return econ.thermostat_capex
    return econ.thermostat_capex + econ.tank_capex_per_m3 * sizing.tank_volume


def _eol_per_asset(scheme: SchemeKind, sizing: SizingResult,
                   params: ParameterSet) -> float:
    if scheme is SchemeKind.V2G:
        return params.econ.v2g_eol_per_charger
    if scheme is SchemeKind.HP_THERMAL_STORAGE:
        return params.econ.tank_eol_per_m2 * sizing.tank_area
    return 0.0


def rebound_factor(scheme: SchemeKind, params: ParameterSet) -> float:
    """Grid energy drawn per unit of delivered demand reduction.

    V2G loses efficiency twice (discharge delivers eta from the battery,
    recharge draws 1/eta from the grid); load shifting moves energy at
    factor one, and tank losses are designed small enough to neglect.
    """
    if scheme is SchemeKind.V2G and params.assumptions.v2g_rebound_roundtrip:
        return 1.0 / params.ev.charger_efficiency ** 2
    return 1.0


def build_cash_flows(scheme: SchemeKind, app: ApplicationSpec,
                     sizing: SizingResult, params: ParameterSet) -> CashFlowSchedule:
    """Assemble the annual cash flows of a feasible sized pairing."""
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


def lcodr_energy(cf: CashFlowSchedule) -> float:
    """Levelised cost per discounted MWh of shifted energy, $/MWh."""
    if cf.annual_energy <= 0:
        raise ZeroEnergy("annual shifted energy must be > 0")
    om, rewards, rebound, eol, energy = _pv_components(cf)
    return (cf.investment_t0 + om + rewards + rebound + eol) / energy


def lcodr_power(cf: CashFlowSchedule, power_capacity: float) -> float:
    """Levelised cost per discounted kW-year of capacity, $/kW-year."""
    if power_capacity <= 0:
        raise CostingError("power capacity must be > 0")
    om, rewards, rebound, eol, _ = _pv_components(cf)
    capacity_years = present_value_annual(power_capacity, cf.discount_rate,
                                          cf.lifetime_years)
    return (cf.investment_t0 + om + rewards + rebound + eol) / capacity_years


def apply_value_factor(lcodr: float, value_factor: float) -> float:
    """Divide a levelised cost by the availability-profile value factor."""
    if value_factor <= 0:
        raise NonPositiveValueFactor("value factor must be > 0")
    return lcodr / value_factor


@dataclass(frozen=True)
class PairingEvaluation:
    """Full outcome for one (scheme, application) pairing.

    status is 'ok', 'unsuitable' or 'infeasible'; breakdown is present only
    when status is 'ok'.
    """

    scheme: SchemeKind
    application: ApplicationSpec
    status: str
    reason: str = ""
    sizing: Optional[SizingResult] = None
    breakdown: Optional[CostBreakdown] = None

    @property
    def feasible(self) -> bool:
        return self.status == "ok"


def evaluate_pairing(scheme: SchemeKind, app: ApplicationSpec,
                     params: ParameterSet) -> PairingEvaluation:
    """Size, cost and value-adjust one pairing. Never raises for domain
    outcomes; unsuitable and infeasible pairings carry their reason."""
    if scheme not in app.suitable_schemes:
        return PairingEvaluation(scheme, app, "unsuitable",
                                 f"{scheme.value} cannot service {app.name!r}")
    sizing = size_pairing(scheme, app, params)
    if not sizing.feasible:
        return PairingEvaluation(scheme, app, "infeasible", sizing.reason,
                                 sizing=sizing)
    cf = build_cash_flows(scheme, app, sizing, params)
    om, rewards, rebound, eol, energy = _pv_components(cf)
    energy_cost = lcodr_energy(cf)
    vf = params.value_factors.for_scheme(scheme, sizing.binding_constraint)
    breakdown = CostBreakdown(
        investment=cf.investment_t0,
        om_pv=om, rewards_pv=rewards, rebound_pv=rebound, eol_pv=eol,
        energy_pv=energy,
        lcodr_energy=energy_cost,
        lcodr_power=lcodr_power(cf, app.power_capacity),
        value_factor=vf,
        lcodr_vf=apply_value_factor(energy_cost, vf),
    )
    return PairingEvaluation(scheme, app, "ok", sizing=sizing, breakdown=breakdown)


# ---------------------------------------------------------------------------
# Batch evaluation over parameter samples
# ---------------------------------------------------------------------------
#
# Each helper below mirrors one scalar function line by line. Basic
# arithmetic, sqrt, min, max and comparisons are correctly rounded in numpy
# as in Python, so keeping the operation order keeps every value exact. Two
# things need care: every `**` goes through Python's float pow, because
# numpy squares `x ** 2` instead of calling libm; and the discount sums are
# taken per sample with `present_value_annual`, because numpy sums pairwise
# where Python sums left to right.

#: Column order of a samples x columns parameter matrix: every registered
#: scalar parameter, then the value factors.
BATCH_COLUMNS = tuple(spec.key for spec in PARAMETERS) + VALUE_FACTOR_KEYS


def batch_row(params: ParameterSet) -> list:
    """One parameter set as a row of the samples x BATCH_COLUMNS matrix."""
    vf = params.value_factors
    return [*parameter_values(params).values(),
            *(getattr(vf, key) for key in VALUE_FACTOR_KEYS)]


@dataclass(frozen=True)
class BatchEvaluation:
    """`evaluate_pairing` over a batch of samples.

    lcodr_vf and each of the COST_COMPONENTS hold one value per sample, NaN
    where the sample is infeasible (or the pairing unsuitable).
    """

    lcodr_vf: np.ndarray
    feasible: np.ndarray
    components: Dict[str, np.ndarray]


def batch_columns(matrix: np.ndarray) -> Dict[str, np.ndarray]:
    """Named columns of a samples x BATCH_COLUMNS matrix, plus the per-sample
    discount terms `annuity` (present value of 1 per year) and `eol_discount`
    (the end-of-life factor one year after the last operating year)."""
    columns = dict(zip(BATCH_COLUMNS, np.ascontiguousarray(matrix.T)))
    rates = columns["discount_rate"].tolist()
    years = [int(t) for t in columns["lifetime_years"].tolist()]
    columns["annuity"] = np.array(
        [present_value_annual(1.0, r, t) for r, t in zip(rates, years)])
    columns["eol_discount"] = np.array(
        [(1.0 + r) ** -(t + 1) for r, t in zip(rates, years)])
    return columns


def _pow(x: np.ndarray, y: float) -> np.ndarray:
    """x ** y element-wise through Python's float pow."""
    return np.array([v ** y for v in x.tolist()])


def _plugin_time(scheme: SchemeKind, app: ApplicationSpec, c,
                 assumptions: Assumptions):
    """Batch `_contract_plugin_time`: (feasible, contracted plug-in time)."""
    if scheme is SchemeKind.SMART_CHARGING:
        required = app.discharge_duration + c["t_cha"]
    else:
        recharge = c["dischargeable"] / c["ecp"]
        required = 2.0 * (app.discharge_duration + recharge) + c["t_cha"]
    ok = ~(required > 24.0)
    if assumptions.rpt_floor_at_base:
        required = np.maximum(required, c["base_plugin_time"])
    return ok, required


def _ev_reward(c, plugin_time, base, per_hour, assumptions: Assumptions):
    base_hours = assumptions.reward_base_hours
    if base_hours is None:
        base_hours = c["base_plugin_time"]
    reward = c[base] + (plugin_time - base_hours) * c[per_hour]
    return np.maximum(c["reward_floor"], reward)


def _batch_v2g(app, c, assumptions):
    t_cha = c["t_cha"]
    ok, plugin_time = _plugin_time(SchemeKind.V2G, app, c, assumptions)
    n_power = app.power_capacity / c["ecp"]
    n_energy = (app.power_capacity * app.discharge_duration) / c["dischargeable"]
    energy_bound = n_energy > n_power
    n_available = np.where(energy_bound, n_energy, n_power)
    ok &= ~(plugin_time > 24.0) & ~(plugin_time < t_cha)
    availability = (plugin_time - t_cha) / 24.0
    ok &= ~(availability <= 0)
    rebound = 1.0
    if assumptions.v2g_rebound_roundtrip:
        rebound = 1.0 / _pow(c["charger_efficiency"], 2)
    return (ok, n_available / availability, c["v2g_charger_capex"],
            _ev_reward(c, plugin_time, "v2g_reward_base", "v2g_reward_per_hour",
                       assumptions),
            c["v2g_eol_per_charger"], rebound,
            np.where(energy_bound, c["v2g_energy"], c["v2g_power"]))


def _batch_smart_charging(app, c, assumptions):
    ok, plugin_time = _plugin_time(SchemeKind.SMART_CHARGING, app, c, assumptions)
    avg_shiftable = c["daily_drive_energy"] * c["home_charge_fraction"] / 24.0
    ok &= ~(avg_shiftable <= 0)
    return (ok, app.power_capacity / avg_shiftable, c["smart_charger_capex"],
            _ev_reward(c, plugin_time, "smart_reward_base", "smart_reward_per_hour",
                       assumptions),
            0.0, 1.0, c["smart_charging"])


def _batch_smart_heat_pump(app, c, assumptions):
    heat_band_kwh = c["building_heat_capacity"] * c["building_temp_divergence"] / KJ_PER_KWH
    unclamped = 2.0 * heat_band_kwh / (c["seasonal_performance"] * app.discharge_duration)
    reduction = np.minimum(c["hp_active_power"], unclamped)
    effective_shiftable = c["hp_average_power"] * reduction / c["hp_active_power"]
    ok = ~(effective_shiftable <= 0) & ~(c["max_activations_per_month"] <= 0)
    n_unadjusted = app.power_capacity / effective_shiftable
    allowance = 12.0 * c["max_activations_per_month"]
    if assumptions.cycle_constraint_direction == "as_printed":
        n_contracted = n_unadjusted * allowance / app.annual_cycles
    else:
        n_contracted = n_unadjusted * np.maximum(1.0, app.annual_cycles / allowance)
    return (ok, n_contracted, c["thermostat_capex"], c["hp_reward_monthly"],
            0.0, 1.0, c["heat_pump"])


def _batch_thermal_storage(app, c, assumptions):
    ok = ~(c["hp_average_power"] <= 0)
    n_assets = app.power_capacity / c["hp_average_power"]
    thermal_kwh = c["hp_active_power"] * c["seasonal_performance"] * app.discharge_duration
    mass = thermal_kwh * KJ_PER_KWH / (c["water_heat_capacity"] * c["tank_temp_range"])
    volume = mass / c["water_density"]
    height = c["ceiling_height"] - 2.0 * c["wall_thickness"]
    radius = np.sqrt(volume / (math.pi * height))
    area = _pow(2.0 * (radius + c["wall_thickness"]), 2)
    return (ok, n_assets,
            c["thermostat_capex"] + c["tank_capex_per_m3"] * volume,
            np.maximum(c["reward_floor"], c["tank_area_reward_monthly"] * area),
            c["tank_eol_per_m2"] * area, 1.0, c["heat_pump"])


#: Batch `size_pairing` plus the scheme branches of `build_cash_flows`. Each
#: returns, per sample: (feasible, contracted assets, capex per asset,
#: monthly reward per asset, end-of-life cost per asset, rebound factor,
#: value factor).
_BATCH_SIZERS = {
    SchemeKind.V2G: _batch_v2g,
    SchemeKind.SMART_CHARGING: _batch_smart_charging,
    SchemeKind.SMART_HEAT_PUMP: _batch_smart_heat_pump,
    SchemeKind.HP_THERMAL_STORAGE: _batch_thermal_storage,
}


def evaluate_batch(scheme: SchemeKind, app: ApplicationSpec,
                   columns: Mapping[str, np.ndarray],
                   assumptions: Assumptions) -> BatchEvaluation:
    """`evaluate_pairing` for every sample of `columns` (from batch_columns).

    Sample i's lcodr_vf and components equal, exactly, those of
    evaluate_pairing on the ParameterSet behind row i; feasible is True where
    its status would be 'ok'.
    """
    if scheme not in app.suitable_schemes:
        n = len(columns["annuity"])
        nan = np.full(n, np.nan)
        return BatchEvaluation(nan, np.zeros(n, dtype=bool),
                               {name: nan.copy() for name in COST_COMPONENTS})
    with np.errstate(all="ignore"):
        c = dict(columns)
        c["ecp"] = c["charger_power"] * c["charger_efficiency"]
        c["t_cha"] = c["daily_drive_energy"] * c["home_charge_fraction"] / c["ecp"]
        c["dischargeable"] = (c["battery_capacity"]
                              - c["battery_capacity"] * c["guaranteed_min_charge"])
        ok, n_assets, capex, reward, eol_per_asset, rebound, vf = \
            _BATCH_SIZERS[scheme](app, c, assumptions)
        investment = n_assets * capex
        annual_om = c["om_fraction"] * investment
        annual_rewards = 12.0 * n_assets * reward
        annual_rebound = (app.annual_energy_mwh * (c["electricity_price"] * 1000.0)
                          * rebound)
        eol_cost = n_assets * eol_per_asset
        annuity = c["annuity"]
        components = {
            "investment": investment,
            "om": annual_om * annuity,
            "rewards": annual_rewards * annuity,
            "rebound": annual_rebound * annuity,
            "eol": eol_cost * c["eol_discount"],
        }
        energy = app.annual_energy_mwh * annuity
        total = (components["investment"] + components["om"] + components["rewards"]
                 + components["rebound"] + components["eol"])
        lcodr_vf = total / energy / vf
    components = {name: np.where(ok, value, np.nan)
                  for name, value in components.items()}
    return BatchEvaluation(np.where(ok, lcodr_vf, np.nan), ok, components)
