"""The pairing kernel: fleet sizing, lifetime cash flows and levelised cost.

`evaluate_batch` is the one place that sizes and costs a (scheme,
application) pairing. It works on a samples x parameters matrix with numpy
over the sample axis; a sample is a row laid out as `model.SAMPLE_ROW`,
whose column keys are BATCH_COLUMNS. Per sample it sizes the fleet, builds
the aggregator's annual cash flows (investment, O&M, consumer rewards,
rebound energy purchases, end-of-life), discounts them, levelises them per
shifted MWh and per kW-year, and divides by the scheme's
availability-profile value factor. A sample that cannot be evaluated
carries a code into REASONS.

`lcodr run` and `evaluate_pairing` call the kernel on the single row of one
ParameterSet and read it through `sample_values`, as Python values by
SIZING_FIELDS and CostBreakdown field name; `lcodr mc` calls the kernel on
whole sample ranges. There is no second, scalar route to a levelised
cost. The consumer reward formula, `monthly_reward`, is the kernel's own
and takes floats and columns alike.

Numerical care: basic arithmetic, sqrt, min, max and comparisons are
correctly rounded in numpy as in Python, so a value does not depend on
whether it was computed on one row or many. Two things would break that:
numpy squares `x ** 2` instead of calling libm, so every `**` goes through
`sizing.python_pow`; and numpy sums pairwise where Python sums left to
right, so the discount sums are taken per sample with `present_value_annual`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, Mapping, Optional

import numpy as np

from .model import (
    SAMPLE_ROW,
    ApplicationSpec,
    Assumptions,
    BindingConstraint,
    CostBreakdown,
    ParameterSet,
    SchemeKind,
    SizingResult,
)
from .sizing import (
    KJ_PER_KWH,
    availability_factor,
    python_pow,
    required_plugin_time,
    tank_geometry,
)

COST_COMPONENTS = ("investment", "om", "rewards", "rebound", "eol")

#: The SizingResult fields that evaluate_batch returns a column of.
SIZING_FIELDS = ("contracted_assets", "available_assets", "required_plugin_time",
                 "power_reduction", "tank_area", "tank_volume", "tank_mass")

#: Why a sample has no cost, indexed by BatchEvaluation.reason; code 0 is a
#: feasible sample. Formatted with the scheme value, the application name
#: and the required plug-in hours. The name goes in single quotes as given,
#: not by repr, which switches to double quotes for a name holding an
#: apostrophe; a name cannot hold a double quote (model.CSV_UNSAFE).
REASONS = (
    "",
    "{scheme} cannot service '{app}'",
    "infeasible: required plug-in time {hours:.2f} h exceeds 24 h",
    "infeasible: availability factor must be > 0",
    "infeasible: average shiftable power must be > 0",
    "infeasible: fleet size or cost exceeds the float range",
)
(FEASIBLE, UNSUITABLE, PLUGIN_OVER_24H, ZERO_AVAILABILITY, ZERO_SHIFTABLE,
 NOT_FINITE) = range(len(REASONS))


def left_to_right_sum(values) -> float:
    """The values added one at a time from the left. Python's sum() does so
    before 3.12; from 3.12 on it compensates float sums, which can round
    differently."""
    total = 0.0
    for value in values:
        total += value
    return total


def present_value_annual(amount: float, discount_rate: float, years: int) -> float:
    """Present value of a constant annual amount paid at the end of years
    1..T. Computed by explicit summation; the year-by-year sum is the
    definition, not an approximation of the annuity formula."""
    return amount * left_to_right_sum((1.0 + discount_rate) ** -t for t in range(1, years + 1))


def _ev_reward(p, plugin_time, base, per_hour, assumptions: Assumptions):
    base_hours = assumptions.reward_base_hours
    if base_hours is None:
        base_hours = p["base_plugin_time"]
    return np.maximum(p["reward_floor"], p[base] + (plugin_time - base_hours) * p[per_hour])


def monthly_reward(scheme: SchemeKind, p: Mapping, assumptions: Assumptions,
                   plugin_time=None, tank_area=None):
    """Monthly payment to one contracted consumer, $; `p` maps parameter
    keys to values or columns.

    EV schemes pay a base reward plus a per-hour rate on the contracted
    plug-in time above the base contract; thermal storage pays for the
    tank's floor area; the smart heat-pump reward is a flat thermostat
    payment. V2G, smart charging and thermal storage are floored at the
    minimum monthly reward.
    """
    if scheme is SchemeKind.V2G:
        return _ev_reward(p, plugin_time, "v2g_reward_base", "v2g_reward_per_hour", assumptions)
    if scheme is SchemeKind.SMART_CHARGING:
        return _ev_reward(p, plugin_time, "smart_reward_base", "smart_reward_per_hour",
                          assumptions)
    if scheme is SchemeKind.SMART_HEAT_PUMP:
        return p["hp_reward_monthly"]
    return np.maximum(p["reward_floor"], p["tank_area_reward_monthly"] * tank_area)


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------

#: The key of each column of a samples x parameters matrix (model.SAMPLE_ROW).
BATCH_COLUMNS = tuple(spec.key for spec in SAMPLE_ROW)


def batch_row(params: ParameterSet) -> list:
    """One parameter set as a row of the samples x BATCH_COLUMNS matrix."""
    return [getattr(getattr(params, spec.group), spec.key) for spec in SAMPLE_ROW]


def batch_columns(matrix: np.ndarray) -> Dict[str, np.ndarray]:
    """Named columns of a samples x BATCH_COLUMNS matrix, plus the per-sample
    discount terms `annuity` (present value of 1 per year) and `eol_discount`
    (the end-of-life factor one year after the last operating year)."""
    columns = dict(zip(BATCH_COLUMNS, np.ascontiguousarray(matrix.T)))
    rates = columns["discount_rate"].tolist()
    years = [int(t) for t in columns["lifetime_years"].tolist()]
    columns["annuity"] = np.array(
        [present_value_annual(1.0, r, t) for r, t in zip(rates, years)])
    columns["eol_discount"] = np.array([(1.0 + r) ** -(t + 1) for r, t in zip(rates, years)])
    return columns


@dataclass(frozen=True)
class BatchEvaluation:
    """`evaluate_pairing` over a batch of samples.

    Each float column holds one value per sample: NaN where the sample is
    infeasible or the pairing unsuitable, and in the sizing columns that do
    not apply to the scheme. The exception is sizing["required_plugin_time"],
    which also holds the hours that the PLUGIN_OVER_24H reason quotes. A
    column that the evaluation did not compute (every float column of an
    unsuitable pairing, a sizing field of another scheme) is a read-only
    all-NaN view that such columns share.
    """

    lcodr_vf: np.ndarray
    feasible: np.ndarray
    components: Dict[str, np.ndarray]   # by COST_COMPONENTS name
    reason: np.ndarray                  # int8 index into REASONS
    energy_bound: np.ndarray            # V2G fleet sized by the energy requirement
    sizing: Dict[str, np.ndarray]       # by SIZING_FIELDS name
    energy_pv: np.ndarray
    lcodr_energy: np.ndarray
    lcodr_power: np.ndarray
    value_factor: np.ndarray


def _plugin_time(scheme: SchemeKind, app: ApplicationSpec, c, assumptions: Assumptions):
    """(required plug-in time over 24 h, contracted plug-in time).

    The contract takes the required time, floored at the observed base
    plug-in time when the corresponding assumption is on: contracts are not
    assumed to demand less plug-in than consumers already provide.
    """
    required = required_plugin_time(scheme, app.discharge_duration, c["t_cha"],
                                     c["dischargeable"] / c["ecp"])
    contracted = required
    if assumptions.rpt_floor_at_base:
        contracted = np.maximum(required, c["base_plugin_time"])
    return required > 24.0, contracted


# Each sizer returns, as per-sample columns or scalars: `failures`, its
# (reason code, failed mask) checks in order; the SIZING_FIELDS that apply
# to the scheme; and the capex and end-of-life cost per asset, the rebound
# factor (grid energy drawn per unit of delivered demand reduction) and the
# value factor.

def _v2g_fleet(app, c, assumptions):
    over_24h, plugin_time = _plugin_time(SchemeKind.V2G, app, c, assumptions)
    n_power = app.power_capacity / c["ecp"]
    # A single EV contributes its battery band between full charge and the
    # guaranteed minimum.
    n_energy = (app.power_capacity * app.discharge_duration) / c["dischargeable"]
    energy_bound = n_energy > n_power   # ties go to power
    n_available = np.where(energy_bound, n_energy, n_power)
    availability = availability_factor(plugin_time, c["t_cha"])
    # Discharge delivers eta from the battery and recharge draws 1/eta.
    rebound = 1.0
    if assumptions.v2g_rebound_roundtrip:
        rebound = 1.0 / python_pow(c["charger_efficiency"], 2)
    return dict(
        failures=((PLUGIN_OVER_24H, over_24h), (ZERO_AVAILABILITY, availability <= 0)),
        contracted_assets=n_available / availability, available_assets=n_available,
        required_plugin_time=plugin_time, energy_bound=energy_bound,
        capex=c["v2g_charger_capex"], eol=c["v2g_eol_per_charger"], rebound=rebound,
        value_factor=np.where(energy_bound, c["v2g_energy"], c["v2g_power"]))


def _smart_charging_fleet(app, c, assumptions):
    over_24h, plugin_time = _plugin_time(SchemeKind.SMART_CHARGING, app, c, assumptions)
    # Average home-charging power spread over the day: the shiftable load,
    # which already embodies availability.
    avg_shiftable = c["daily_drive_energy"] * c["home_charge_fraction"] / 24.0
    n_assets = app.power_capacity / avg_shiftable
    return dict(
        failures=((PLUGIN_OVER_24H, over_24h), (ZERO_SHIFTABLE, avg_shiftable <= 0)),
        contracted_assets=n_assets, available_assets=n_assets,
        required_plugin_time=plugin_time,
        capex=c["smart_charger_capex"], eol=0.0, rebound=1.0,
        value_factor=c["smart_charging"])


def _smart_heat_pump_fleet(app, c, assumptions):
    # The tolerated indoor temperature divergence, usable before and after
    # the activation, limits the power reduction below the active power.
    heat_band_kwh = c["building_heat_capacity"] * c["building_temp_divergence"] / KJ_PER_KWH
    unclamped = 2.0 * heat_band_kwh / (c["seasonal_performance"] * app.discharge_duration)
    reduction = np.minimum(c["hp_active_power"], unclamped)
    # A partial power reduction proportionally shrinks the shiftable share
    # of the average consumption.
    effective_shiftable = c["hp_average_power"] * reduction / c["hp_active_power"]
    n_unadjusted = app.power_capacity / effective_shiftable
    # Grow the fleet when the application cycles more often than a contract
    # allows; 'as_printed' applies the reciprocal factor instead.
    allowance = 12.0 * c["max_activations_per_month"]
    if assumptions.cycle_constraint_direction == "as_printed":
        n_contracted = n_unadjusted * allowance / app.annual_cycles
    else:
        n_contracted = n_unadjusted * np.maximum(1.0, app.annual_cycles / allowance)
    return dict(
        failures=((ZERO_SHIFTABLE, effective_shiftable <= 0),),
        contracted_assets=n_contracted,
        available_assets=np.minimum(n_unadjusted, n_contracted),
        power_reduction=reduction,
        capex=c["thermostat_capex"], eol=0.0, rebound=1.0, value_factor=c["heat_pump"])


def _thermal_storage_fleet(app, c, assumptions):
    # Tank losses are designed small enough to neglect: rebound factor one.
    area, volume, mass = tank_geometry(app.discharge_duration, c)
    n_assets = app.power_capacity / c["hp_average_power"]
    return dict(
        failures=(),
        contracted_assets=n_assets, available_assets=n_assets,
        tank_area=area, tank_volume=volume, tank_mass=mass,
        capex=c["thermostat_capex"] + c["tank_capex_per_m3"] * volume,
        eol=c["tank_eol_per_m2"] * area, rebound=1.0, value_factor=c["heat_pump"])


_BATCH_SIZERS = {
    SchemeKind.V2G: _v2g_fleet,
    SchemeKind.SMART_CHARGING: _smart_charging_fleet,
    SchemeKind.SMART_HEAT_PUMP: _smart_heat_pump_fleet,
    SchemeKind.HP_THERMAL_STORAGE: _thermal_storage_fleet,
}


def _first_failure(n: int, failures) -> np.ndarray:
    """Per sample, the code of the first failing check, FEASIBLE where none
    fails."""
    reason = np.zeros(n, dtype=np.int8)
    for code, failed in reversed(failures):
        reason[failed] = code
    return reason


def _result(reason: np.ndarray, values: dict) -> BatchEvaluation:
    """The BatchEvaluation of per-sample reason codes and the unmasked
    columns in `values`. Every missing column is one shared read-only NaN
    view, so an unsuitable pairing holds no per-sample floats."""
    ok = reason == FEASIBLE
    quoted = ok | (reason == PLUGIN_OVER_24H)
    absent = np.broadcast_to(np.nan, len(reason))

    def column(name, keep=ok):
        return np.where(keep, values[name], np.nan) if name in values else absent

    return BatchEvaluation(
        lcodr_vf=column("lcodr_vf"), feasible=ok,
        components={name: column(name) for name in COST_COMPONENTS},
        reason=reason, energy_bound=ok & values.get("energy_bound", False),
        sizing={name: column(name, quoted if name == "required_plugin_time" else ok)
                for name in SIZING_FIELDS},
        energy_pv=column("energy_pv"), lcodr_energy=column("lcodr_energy"),
        lcodr_power=column("lcodr_power"), value_factor=column("value_factor"))


def evaluate_batch(scheme: SchemeKind, app: ApplicationSpec,
                   columns: Mapping[str, np.ndarray],
                   assumptions: Assumptions) -> BatchEvaluation:
    """Size, cost and value-adjust one pairing for every sample of `columns`
    (from batch_columns). Sample i's values depend on row i only."""
    n = len(columns["annuity"])
    if scheme not in app.suitable_schemes:
        return _result(np.full(n, UNSUITABLE, dtype=np.int8), {})
    with np.errstate(all="ignore"):
        c = dict(columns)
        c["ecp"] = c["charger_power"] * c["charger_efficiency"]
        c["t_cha"] = c["daily_drive_energy"] * c["home_charge_fraction"] / c["ecp"]
        c["dischargeable"] = (c["battery_capacity"]
                              - c["battery_capacity"] * c["guaranteed_min_charge"])
        values = _BATCH_SIZERS[scheme](app, c, assumptions)
        n_assets = values["contracted_assets"]
        investment = n_assets * values["capex"]
        reward = monthly_reward(scheme, c, assumptions, values.get("required_plugin_time"),
                                values.get("tank_area"))
        annual_rebound = (app.annual_energy_mwh * (c["electricity_price"] * 1000.0)
                          * values["rebound"])
        annuity = c["annuity"]
        pv = {"investment": investment, "om": c["om_fraction"] * investment * annuity,
              "rewards": 12.0 * n_assets * reward * annuity, "rebound": annual_rebound * annuity,
              "eol": n_assets * values["eol"] * c["eol_discount"]}
        total = pv["investment"] + pv["om"] + pv["rewards"] + pv["rebound"] + pv["eol"]
        values.update(pv)
        values["energy_pv"] = app.annual_energy_mwh * annuity
        values["lcodr_energy"] = total / values["energy_pv"]
        values["lcodr_power"] = total / (app.power_capacity * annuity)
        values["lcodr_vf"] = values["lcodr_energy"] / values["value_factor"]
    # a per-asset capacity near the float minimum sizes an infinite fleet
    failures = (*values["failures"], (NOT_FINITE, ~np.isfinite(values["lcodr_vf"])))
    return _result(_first_failure(n, failures), values)


# ---------------------------------------------------------------------------
# One pairing on one parameter set
# ---------------------------------------------------------------------------

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


def sample_values(scheme: SchemeKind, app: ApplicationSpec, batch: BatchEvaluation) -> dict:
    """Sample 0 of `batch` as Python values: 'status' ('ok', 'unsuitable' or
    'infeasible'), 'reason', 'binding_constraint' (None when unsuitable),
    each SIZING_FIELDS, 'contracted_assets_ceiled' and each CostBreakdown
    field. A sizing or cost value is None where it does not apply to the
    scheme, and everywhere unless the status is 'ok'."""
    code = int(batch.reason[0])
    ok = code == FEASIBLE
    columns = dict(batch.sizing)
    for f in fields(CostBreakdown):
        # a cost component, named without the _pv of its present value, or a
        # column of the same name
        component = f.name.removesuffix("_pv")
        columns[f.name] = (batch.components[component] if component in batch.components
                           else getattr(batch, f.name))
    first = [column[0].item() if ok else None for column in columns.values()]
    values = {name: None if v != v else v for name, v in zip(columns, first)}   # NaN
    binding = None if code == UNSUITABLE else BindingConstraint.NOT_APPLICABLE
    if ok and scheme is SchemeKind.V2G:
        binding = BindingConstraint.ENERGY if batch.energy_bound[0] else BindingConstraint.POWER
    status = "ok" if ok else "unsuitable" if code == UNSUITABLE else "infeasible"
    hours = batch.sizing["required_plugin_time"][0].item()
    n = values["contracted_assets"]
    return dict(values, status=status, binding_constraint=binding,
                reason=REASONS[code].format(scheme=scheme.value, app=app.name, hours=hours),
                contracted_assets_ceiled=None if n is None else math.ceil(n - 1e-9))


def evaluate_pairing(scheme: SchemeKind, app: ApplicationSpec,
                     params: ParameterSet) -> PairingEvaluation:
    """`evaluate_batch` on the single row of `params`, as Python values.
    Never raises for domain outcomes; unsuitable and infeasible pairings
    carry their reason."""
    values = sample_values(scheme, app, evaluate_batch(
        scheme, app, batch_columns(np.array([batch_row(params)])), params.assumptions))
    status, reason = values["status"], values["reason"]
    if status == "unsuitable":
        return PairingEvaluation(scheme, app, status, reason)
    sizing = SizingResult(scheme, status == "ok", reason,
                          binding_constraint=values["binding_constraint"],
                          **{name: values[name] for name in SIZING_FIELDS})
    breakdown = (CostBreakdown(**{f.name: values[f.name] for f in fields(CostBreakdown)})
                 if status == "ok" else None)
    return PairingEvaluation(scheme, app, status, reason, sizing, breakdown)
