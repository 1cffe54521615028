"""Fleet sizing formulas for (scheme, application) pairings.

How many demand-response assets a storage application needs, and the
contract terms that follow: the required plug-in time of EV schemes and the
tank geometry of thermal storage. The sizing itself is done, for one sample
or many, by `costing.evaluate_batch`, on the shared formulas below, which
take numpy columns. The forward duration limits, which
those formulas invert, are the references the kernel's inverse is checked
against.

`size_pairing` sizes one pairing on one ParameterSet. It never raises for
domain outcomes: unsuitable or infeasible pairings come back as a
SizingResult with feasible=False and a reason.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (
    ApplicationSpec,
    EvParameters,
    HeatParameters,
    LcodrError,
    ParameterSet,
    SchemeKind,
    SizingResult,
)

KJ_PER_KWH = 3600.0


class SizingError(LcodrError):
    """A sizing computation cannot proceed with the given inputs."""


class AreaTooSmall(SizingError):
    pass


def _pow(x: float, y: float) -> float:
    try:
        return x ** y
    except OverflowError:   # a finite result beyond the float range
        return math.inf


def python_pow(x: np.ndarray, y: float) -> np.ndarray:
    """x ** y (x >= 0) for each element of the column x, through Python's
    float pow, inf where it overflows: numpy squares `x ** 2` instead of
    calling libm, which can differ in the last bit."""
    return np.array([_pow(v, y) for v in x.tolist()])


# ---------------------------------------------------------------------------
# Formulas of the batch kernel (over columns)
# ---------------------------------------------------------------------------

def required_plugin_time(scheme: SchemeKind, discharge_duration: float, t_cha, recharge):
    """Smallest daily plug-in time, h, whose discharge-duration limit covers
    `discharge_duration`: the closed-form inversion of the duration limits.
    t_cha is the daily charging time and recharge the time to refill the
    dischargeable battery band (used by V2G only)."""
    if scheme is SchemeKind.SMART_CHARGING:
        return discharge_duration + t_cha
    return 2.0 * (discharge_duration + recharge) + t_cha


def availability_factor(plugin_time, t_cha):
    """Fraction of the day a contracted EV is plugged in and not charging."""
    return (plugin_time - t_cha) / 24.0


def tank_geometry(discharge_duration: float, heat):
    """(area m^2, volume m^3, water mass kg) of the smallest tank covering a
    discharge duration; `heat` maps HeatParameters field names to columns."""
    thermal_kwh = heat["hp_active_power"] * heat["seasonal_performance"] * discharge_duration
    mass = thermal_kwh * KJ_PER_KWH / (heat["water_heat_capacity"] * heat["tank_temp_range"])
    volume = mass / heat["water_density"]
    height = heat["ceiling_height"] - 2.0 * heat["wall_thickness"]
    radius = np.sqrt(volume / (math.pi * height))
    side = 2.0 * (radius + heat["wall_thickness"])
    return python_pow(side, 2), volume, mass


# ---------------------------------------------------------------------------
# Forward duration limits on one parameter group
# ---------------------------------------------------------------------------

def v2g_max_discharge_duration(required_plugin_time: float, ev: EvParameters) -> float:
    """Longest V2G discharge a plug-in window supports, hours.

    Discharge is assumed to start halfway through the plug-in period; time
    spent charging driving energy and recharging the discharged battery band
    is unavailable. Clamped at 0 (no discharge possible).
    """
    half_window = (required_plugin_time - ev.daily_charge_time) / 2.0
    return max(0.0, half_window - ev.dischargeable_energy / ev.effective_charger_power)


def smart_charging_max_discharge_duration(required_plugin_time: float,
                                          ev: EvParameters) -> float:
    """Longest charging delay a plug-in window supports, hours."""
    return max(0.0, required_plugin_time - ev.daily_charge_time)


def hp_max_discharge_duration(heat: HeatParameters) -> float:
    """Activation length at which the full active power can be shed, hours.

    Limited by the tolerated indoor temperature divergence, usable both
    before and after the activation (hence the factor 2).
    """
    heat_band_kwh = heat.building_heat_capacity * heat.building_temp_divergence / KJ_PER_KWH
    return 2.0 * heat_band_kwh / (heat.hp_active_power * heat.seasonal_performance)


def tank_mass_from_area(area: float, heat: HeatParameters) -> float:
    """Water mass of a cylindrical tank occupying a square floor area, kg."""
    radius = math.sqrt(area) / 2.0 - heat.wall_thickness
    if radius < 0:
        raise AreaTooSmall(
            f"area {area} m^2 leaves no interior after the tank wall")
    height = heat.ceiling_height - 2.0 * heat.wall_thickness
    return heat.water_density * height * math.pi * radius ** 2


def thermal_storage_max_discharge_duration(area: float, heat: HeatParameters) -> float:
    """Hours a tank of the given footprint can replace the running heat pump."""
    mass = tank_mass_from_area(area, heat)
    stored_kwh = mass * heat.water_heat_capacity * heat.tank_temp_range / KJ_PER_KWH
    return stored_kwh / (heat.hp_active_power * heat.seasonal_performance)


def size_pairing(scheme: SchemeKind, app: ApplicationSpec,
                 params: ParameterSet) -> SizingResult:
    """Size one scheme for one application: the sizing of
    `costing.evaluate_pairing`. An unsuitable pairing is reported as
    infeasible with a reason starting 'unsuitable: '."""
    from .costing import evaluate_pairing   # costing builds on this module

    evaluation = evaluate_pairing(scheme, app, params)
    if evaluation.sizing is None:
        return SizingResult(scheme=scheme, feasible=False,
                            reason=f"unsuitable: {evaluation.reason}")
    return evaluation.sizing
