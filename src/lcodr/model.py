"""Domain types, default parameterization and configuration handling.

All quantities are kept in a single internal unit system: kW, kWh, hours,
years and US dollars. Application power capacities are commonly quoted in
MW and are converted to kW at load time.

Every type is an immutable dataclass and validates its own invariants on
construction, so a ParameterSet that exists is always internally
consistent. Monte-Carlo draws whole matrices of perturbed values instead,
and checks their rows with `valid_rows`, the same single-field domains and
cross-field rules as arrays.

The random numbers of Monte-Carlo, the subsampler and the synthetic bundle
all come from here: `philox_uniforms`, a counter-based Philox4x64-10
kernel keyed by a BLAKE2b digest, and `normal_quantiles`, the inverse
normal CDF. Neither loads numpy.random or OpenSSL's hashlib, and both use
only arithmetic that gives the same bits on every CPU.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from typing import Optional

import numpy as np

try:
    # hashlib loads OpenSSL's _hashlib; the stream keys need only BLAKE2b
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

CONFIG_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class LcodrError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LcodrError):
    """Input file could not be parsed at all."""


class ValidationError(LcodrError):
    """A value violates a model invariant. Carries the offending field."""

    def __init__(self, message: str, field_path: str = ""):
        self.message, self.field_path = message, field_path
        super().__init__(f"{field_path}: {message}" if field_path else message)


class SchemaVersionError(LcodrError):
    """Configuration file declares an unsupported schema version."""


# ---------------------------------------------------------------------------
# Enumerations
# ---------------------------------------------------------------------------

class SchemeKind(enum.Enum):
    """The four direct-load-control schemes."""

    V2G = "v2g"
    SMART_CHARGING = "smart_charging"
    SMART_HEAT_PUMP = "smart_heat_pump"
    HP_THERMAL_STORAGE = "hp_thermal_storage"

    @classmethod
    def from_name(cls, name: str) -> "SchemeKind":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValidationError(f"unknown scheme {name!r} (expected one of {valid})",
                                  "scheme") from None


class BindingConstraint(enum.Enum):
    POWER = "power"
    ENERGY = "energy"
    NOT_APPLICABLE = "not_applicable"


# ---------------------------------------------------------------------------
# Parameter groups
# ---------------------------------------------------------------------------
#
# Each scalar parameter is declared once, with _param: its default, its
# single-field domain and whether Monte-Carlo perturbs it. The registry
# (PARAMETERS) and each group's single-field checks are derived from these
# declarations; only cross-field checks are written out in __post_init__.
#
# Default values are transcribed from published estimates for a
# Great-Britain case study (charger hardware, driving statistics, heat-pump
# monitoring, willingness-to-accept surveys, equipment costs). The discount
# rate is a modeling default, not a published figure.

def _check(cond: bool, message: str, field_path: str) -> None:
    if not cond:
        raise ValidationError(message, field_path)


def _param(default, *, gt=None, ge=None, lt=None, le=None, perturb: bool = True):
    """A scalar parameter field. gt/lt are open bounds of its domain, ge/le
    closed ones; perturb says whether Monte-Carlo draws it."""
    return field(default=default,
                 metadata={"gt": gt, "ge": ge, "lt": lt, "le": le, "perturb": perturb})


_BOUND_TESTS = (("gt", operator.gt, ">"), ("ge", operator.ge, ">="),
                ("lt", operator.lt, "<"), ("le", operator.le, "<="))


def _domain_checks(cls) -> tuple:
    """(field, test, bound, message) per single-field bound, in declaration order."""
    return tuple((f.name, test, f.metadata[kind], f"must be {symbol} {f.metadata[kind]}")
                 for f in fields(cls)
                 for kind, test, symbol in _BOUND_TESTS
                 if f.metadata[kind] is not None)


def _daily_charge_time(c) -> float:
    """Hours per day the charger is busy replacing driving energy, from a
    {field: value} mapping of EV parameters."""
    return (c["daily_drive_energy"] * c["home_charge_fraction"]
            / (c["charger_power"] * c["charger_efficiency"]))


#: Cross-field rules: (group class name, field named in the error, message,
#: test over a {field: value} mapping that holds for a valid set). The tests
#: take scalars in __post_init__ and numpy columns in `valid_rows`.
CROSS_FIELD_RULES = (
    ("EvParameters", "daily_drive_energy", "daily home charging alone would exceed 24 h",
     lambda c: _daily_charge_time(c) < 24),
    ("HeatParameters", "hp_active_power", "active power must be >= average power",
     lambda c: c["hp_active_power"] >= c["hp_average_power"]),
    ("HeatParameters", "ceiling_height", "ceiling height must exceed twice the wall thickness",
     lambda c: c["ceiling_height"] > 2 * c["wall_thickness"]),
)


def _check_fields(obj) -> None:
    """The single-field domains of obj's fields, then its cross-field rules."""
    # NaN fails every test, so it is rejected wherever a bound is declared.
    for name, test, bound, message in _DOMAIN_CHECKS[type(obj)]:
        if not test(getattr(obj, name), bound):
            raise ValidationError(message, name)
    values = vars(obj)
    for group, name, message, holds in CROSS_FIELD_RULES:
        if group == type(obj).__name__ and not holds(values):
            raise ValidationError(message, name)


@dataclass(frozen=True)
class EvParameters:
    """EV-scheme inputs: charger hardware, driving pattern and reward rates.

    base_plugin_time is the observed average daily plug-in time and also the
    required plug-in time at which the base reward applies. The reward rates
    are monthly willingness-to-accept for a V2G or smart-charging contract:
    a base rate and a rate per plug-in hour beyond the base time.
    """

    charger_power: float = _param(7.4, gt=0.0)                 # kW, rated
    charger_efficiency: float = _param(0.92, gt=0.0, le=1.0)   # one-way (dis-)charging
    battery_capacity: float = _param(60.0, gt=0.0)             # kWh
    # Battery fraction the aggregator must never discharge below.
    guaranteed_min_charge: float = _param(0.30, ge=0.0, lt=1.0)
    daily_drive_energy: float = _param(5.56, ge=0.0)           # kWh/day
    # Share of driving energy charged at the home charger.
    home_charge_fraction: float = _param(0.90, ge=0.0, le=1.0)
    base_plugin_time: float = _param(11.5, ge=0.0, le=24.0)    # h/day
    v2g_reward_base: float = _param(59.1, ge=0.0)              # $/month/charger
    v2g_reward_per_hour: float = _param(29.0, ge=0.0)          # $/month per extra hour
    smart_reward_base: float = _param(40.81, ge=0.0)           # $/month/charger
    smart_reward_per_hour: float = _param(11.8, ge=0.0)        # $/month per extra hour

    def __post_init__(self):
        _check_fields(self)

    @property
    def effective_charger_power(self) -> float:
        """Grid-side charger power after efficiency, kW."""
        return self.charger_power * self.charger_efficiency

    @property
    def daily_charge_time(self) -> float:
        """Hours per day the charger is busy replacing driving energy."""
        return _daily_charge_time(vars(self))

    @property
    def min_battery_energy(self) -> float:
        """Guaranteed minimum energy level, kWh. Always derived, never stored."""
        return self.battery_capacity * self.guaranteed_min_charge

    @property
    def dischargeable_energy(self) -> float:
        """Battery band available to the aggregator, kWh."""
        return self.battery_capacity - self.min_battery_energy


@dataclass(frozen=True)
class HeatParameters:
    """Heat-pump-scheme inputs: thermal constants, contract terms, tank geometry.

    building_heat_capacity and water_heat_capacity are in kJ/K and
    kJ/(kg.K) respectively; conversions to kWh happen at the point of use.
    The tank's high temperature is assumed to stay below boiling; absolute
    temperatures are not modeled, only the usable range tank_temp_range.
    """

    hp_average_power: float = _param(0.46, gt=0.0)        # kW, average over all hours
    hp_active_power: float = _param(1.68, gt=0.0)         # kW, average while the unit runs
    seasonal_performance: float = _param(2.71, gt=1.0)    # heat out per electricity in
    building_heat_capacity: float = _param(34780.0, gt=0.0)   # kJ/K
    building_temp_divergence: float = _param(1.67, ge=0.0)    # K, tolerated set-point deviation
    max_activations_per_month: float = _param(3.33, gt=0.0)
    hp_reward_monthly: float = _param(10.7, ge=0.0)           # $/month/thermostat
    tank_area_reward_monthly: float = _param(17.7, ge=0.0)    # $/month/m^2 of floor space
    water_density: float = _param(1000.0, gt=0.0)             # kg/m^3
    water_heat_capacity: float = _param(4.18, gt=0.0)         # kJ/(kg.K)
    tank_temp_range: float = _param(35.0, gt=0.0)             # K
    wall_thickness: float = _param(0.05, gt=0.0)              # m, tank insulation
    ceiling_height: float = _param(2.3, gt=0.0)               # m

    def __post_init__(self):
        _check_fields(self)


@dataclass(frozen=True)
class EconomicParameters:
    """Discounting, prices, capital and end-of-life costs.

    electricity_price is in $/kWh (the conventional 50 $/MWh default is
    0.05 here). The default discount rate of 8 %/year is a modeling choice,
    configurable via ``discount_rate``.
    """

    discount_rate: float = _param(0.08, ge=0.0, lt=1.0)       # per year
    lifetime_years: int = _param(15, le=100, perturb=False)
    electricity_price: float = _param(0.05, gt=0.0)           # $/kWh
    v2g_charger_capex: float = _param(3000.0, ge=0.0)         # $/charger
    smart_charger_capex: float = _param(107.0, ge=0.0)        # $/charger
    thermostat_capex: float = _param(85.0, ge=0.0)            # $/thermostat
    tank_capex_per_m3: float = _param(2042.0, ge=0.0)         # $/m^3
    om_fraction: float = _param(0.05, ge=0.0, perturb=False)  # of capex, per year
    v2g_eol_per_charger: float = _param(50.0, ge=0.0, perturb=False)  # $ at end of life
    tank_eol_per_m2: float = _param(10.0, ge=0.0, perturb=False)  # $/m^2 at end of life
    reward_floor: float = _param(5.0, ge=0.0, perturb=False)  # $/month minimum reward

    def __post_init__(self):
        _check_fields(self)
        _check(isinstance(self.lifetime_years, int) and self.lifetime_years >= 1,
               "lifetime must be an integer >= 1", "lifetime_years")


@dataclass(frozen=True)
class ValueFactorTable:
    """Per-scheme value factors. V2G carries a power and an energy variant;
    the two heat-pump schemes share a single value because their
    uncontrolled demand profile is the same. The defaults are the golden
    value factors, those of the bundled synthetic profiles at the bundled
    seed (see `data.profile_value_factors`; tests hold them to 1e-12
    relative); replace them when supplying real data."""

    v2g_power: float = _param(0.9696432285834468, gt=0.0)
    v2g_energy: float = _param(0.9748063414556309, gt=0.0)
    smart_charging: float = _param(1.206913296683417, gt=0.0)
    heat_pump: float = _param(1.1406399576763313, gt=0.0)

    def __post_init__(self):
        _check_fields(self)
        # the kernel divides by the factor: an infinite one prices a pairing at 0
        for name, value in vars(self).items():
            _check(math.isfinite(value), "must be finite", name)

    def for_scheme(self, scheme: SchemeKind,
                   binding: BindingConstraint = BindingConstraint.NOT_APPLICABLE) -> float:
        if scheme is SchemeKind.V2G:
            if binding is BindingConstraint.ENERGY:
                return self.v2g_energy
            return self.v2g_power
        if scheme is SchemeKind.SMART_CHARGING:
            return self.smart_charging
        return self.heat_pump


#: The groups of the sample row, by their ParameterSet field name, in row order.
_ROW_GROUPS = (("ev", EvParameters), ("heat", HeatParameters), ("econ", EconomicParameters),
               ("value_factors", ValueFactorTable))

_DOMAIN_CHECKS = {cls: _domain_checks(cls) for _, cls in _ROW_GROUPS}


@dataclass(frozen=True)
class Assumptions:
    """Explicit toggles for modeling choices that fill gaps in the source data.

    rpt_floor_at_base: contracts never require less plug-in time than the
        observed base plug-in time (consumers already plug in that long, and
        the reward data is anchored to the base contract).
    v2g_rebound_roundtrip: price V2G rebound energy at 1/efficiency^2 per
        delivered unit (discharge loses eta, recharge draws 1/eta).
    cycle_constraint_direction: 'scale_up' grows the heat-pump fleet when an
        application needs more cycles than a contract allows; 'as_printed'
        applies the reciprocal factor instead.
    reward_base_hours: override for the plug-in hours at which the base
        reward applies in the reward formula (None: use base_plugin_time).
    """

    rpt_floor_at_base: bool = True
    v2g_rebound_roundtrip: bool = True
    cycle_constraint_direction: str = "scale_up"
    reward_base_hours: Optional[float] = None

    def __post_init__(self):
        for name in ("rpt_floor_at_base", "v2g_rebound_roundtrip"):
            _check(isinstance(getattr(self, name), bool), "must be true or false", name)
        _check(self.cycle_constraint_direction in ("scale_up", "as_printed"),
               "must be 'scale_up' or 'as_printed'", "cycle_constraint_direction")
        hours = self.reward_base_hours
        if hours is not None:
            _check(isinstance(hours, (int, float)) and not isinstance(hours, bool)
                   and 0 <= hours <= 24, "must be a number in [0, 24] h", "reward_base_hours")


@dataclass(frozen=True)
class ParameterSet:
    """The full numeric input vector: the unit perturbed by Monte-Carlo."""

    ev: EvParameters = field(default_factory=EvParameters)
    heat: HeatParameters = field(default_factory=HeatParameters)
    econ: EconomicParameters = field(default_factory=EconomicParameters)
    value_factors: ValueFactorTable = field(default_factory=ValueFactorTable)
    assumptions: Assumptions = field(default_factory=Assumptions)


# ---------------------------------------------------------------------------
# Applications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApplicationSpec:
    """A storage application: what the grid service requires.

    power_capacity is stored in kW (config files use MW, converted at load).
    """

    name: str
    power_capacity: float         # kW
    discharge_duration: float     # hours per activation
    annual_cycles: float          # activations per year
    suitable_schemes: frozenset = frozenset()

    def __post_init__(self):
        _check(bool(self.name), "application name must not be empty", "name")
        _check(0 < self.power_capacity < math.inf, "power capacity must be finite and > 0",
               "power_capacity")
        _check(self.discharge_duration > 0, "discharge duration must be > 0",
               "discharge_duration")
        _check(self.annual_cycles >= 1, "annual cycles must be >= 1", "annual_cycles")
        _check(self.annual_cycles * self.discharge_duration <= 8760.0,
               "annual discharge hours exceed hours in a year", "annual_cycles")
        object.__setattr__(self, "suitable_schemes", frozenset(self.suitable_schemes))
        for s in self.suitable_schemes:
            _check(isinstance(s, SchemeKind), "suitable_schemes must contain SchemeKind",
                   "suitable_schemes")

    @property
    def annual_energy_mwh(self) -> float:
        """Energy shifted per year when the service is fully delivered, MWh."""
        return self.power_capacity * self.discharge_duration * self.annual_cycles / 1000.0


# ---------------------------------------------------------------------------
# Time series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeSeries:
    """A regularly spaced series of numbers.

    Gaps are a load-time error; a TimeSeries that exists has no missing
    values. The value buffer is frozen so instances can be shared safely.
    """

    start: datetime
    interval_seconds: float
    values: np.ndarray

    def __post_init__(self):
        _check(self.start.tzinfo is not None, "start timestamp must be timezone-aware",
               "start")
        _check(self.interval_seconds > 0, "interval must be > 0 s", "interval_seconds")
        vals = np.asarray(self.values, dtype=np.float64)
        _check(vals.ndim == 1, "values must be one-dimensional", "values")
        _check(len(vals) >= 2, "a time series needs at least 2 points", "values")
        _check(bool(np.isfinite(vals).all()), "values must all be finite", "values")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "start", self.start.astimezone(timezone.utc))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> datetime:
        """Exclusive end instant of the covered range."""
        from datetime import timedelta
        return self.start + timedelta(seconds=self.interval_seconds * len(self.values))

    def with_values(self, values: np.ndarray) -> "TimeSeries":
        return TimeSeries(self.start, self.interval_seconds, values)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SizingResult:
    """Outcome of sizing one (scheme, application) pairing.

    Asset counts are real-valued. Fields that do not apply to a scheme stay
    None.
    """

    scheme: SchemeKind
    feasible: bool
    reason: str = ""
    contracted_assets: Optional[float] = None
    available_assets: Optional[float] = None
    binding_constraint: BindingConstraint = BindingConstraint.NOT_APPLICABLE
    required_plugin_time: Optional[float] = None   # h, EV schemes
    power_reduction: Optional[float] = None        # kW, smart heat pump
    tank_area: Optional[float] = None              # m^2 per dwelling
    tank_volume: Optional[float] = None            # m^3 per dwelling
    tank_mass: Optional[float] = None              # kg per dwelling

    def __post_init__(self):
        if self.feasible:
            _check(self.contracted_assets is not None and self.contracted_assets > 0,
                   "feasible sizing needs a positive contracted count", "contracted_assets")
            _check(self.available_assets is not None and self.available_assets > 0,
                   "feasible sizing needs a positive available count", "available_assets")
            _check(self.contracted_assets >= self.available_assets - 1e-9,
                   "contracted count cannot be below available count", "contracted_assets")
        else:
            _check(bool(self.reason), "infeasible sizing must carry a reason", "reason")


@dataclass(frozen=True)
class CostBreakdown:
    """Discounted cost components and the resulting levelised figures."""

    investment: float          # $ at t = 0
    om_pv: float               # $ present value of O&M
    rewards_pv: float          # $ present value of consumer rewards
    rebound_pv: float          # $ present value of rebound energy purchases
    eol_pv: float              # $ present value of end-of-life costs
    energy_pv: float           # MWh, discounted delivered energy
    lcodr_energy: float        # $/MWh
    lcodr_power: float         # $/kW-year
    value_factor: float
    lcodr_vf: float            # $/MWh, availability-profile adjusted

    @property
    def total_cost_pv(self) -> float:
        return (self.investment + self.om_pv + self.rewards_pv
                + self.rebound_pv + self.eol_pv)


# ---------------------------------------------------------------------------
# Parameter registry (drives config validation and Monte-Carlo perturbation)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSpec:
    """One scalar input: where it lives, whether uncertainty applies to it,
    and the bounds of its draws: Monte-Carlo draws it conditioned on
    [lower, upper], where None is unbounded. An open bound is recorded as
    it is; `valid_rows` rejects a draw that lands on it."""

    key: str
    group: str                 # 'ev' | 'heat' | 'econ' | 'value_factors'
    perturb: bool = True
    lower: Optional[float] = None
    upper: Optional[float] = None


def _draw_bounds(f) -> tuple:
    """(lower, upper) that the perturbed draws of field f are conditioned on,
    open or closed; None for fields that Monte-Carlo leaves alone."""
    m = f.metadata
    if not m["perturb"]:
        return None, None
    lower = m["ge"] if m["gt"] is None else m["gt"]
    upper = m["le"] if m["lt"] is None else m["lt"]
    return lower, upper


#: The sample row: every scalar parameter, then the value factors, each in
#: declaration order. A sample is one row of a samples x SAMPLE_ROW matrix,
#: and a column's position is its stable id for seeded Monte-Carlo
#: substreams, so the fields above are never reordered.
SAMPLE_ROW: tuple = tuple(ParamSpec(f.name, group, f.metadata["perturb"], *_draw_bounds(f))
                          for group, cls in _ROW_GROUPS for f in fields(cls))

#: The registry of the scalar parameters: the sample row without the value
#: factors.
PARAMETERS: tuple = tuple(spec for spec in SAMPLE_ROW if spec.group != "value_factors")

PARAMETER_INDEX = {spec.key: i for i, spec in enumerate(PARAMETERS)}

VALUE_FACTOR_KEYS = tuple(f.name for f in fields(ValueFactorTable))


def parameter_values(params: ParameterSet) -> dict:
    """Flat {key: value} view of every registered scalar parameter."""
    return {spec.key: getattr(getattr(params, spec.group), spec.key) for spec in PARAMETERS}


def build_parameter_set(values: dict, value_factors: Optional[dict] = None,
                        assumptions: Optional[Assumptions] = None) -> ParameterSet:
    """Construct a validated ParameterSet from a flat {key: value} mapping.

    Missing keys take the dataclass defaults; validation errors propagate
    with the offending field path.
    """
    groups = {"ev": {}, "heat": {}, "econ": {}}
    for key, value in values.items():
        if key not in PARAMETER_INDEX:
            raise ValidationError(f"unknown parameter {key!r}", key)
        spec = PARAMETERS[PARAMETER_INDEX[key]]
        value = _number(value, key)
        if key == "lifetime_years":
            if not value.is_integer():
                raise ValidationError("lifetime must be an integer number of years", key)
            value = int(value)
        groups[spec.group][key] = value
    factors = dict(value_factors or {})
    for key, value in factors.items():
        if key not in VALUE_FACTOR_KEYS:
            raise ValidationError(f"unknown value factor key {key!r}", f"value_factors.{key}")
        factors[key] = _number(value, f"value_factors.{key}")
    vf = ValueFactorTable(**factors)
    return ParameterSet(
        ev=EvParameters(**groups["ev"]),
        heat=HeatParameters(**groups["heat"]),
        econ=EconomicParameters(**groups["econ"]),
        value_factors=vf,
        assumptions=assumptions if assumptions is not None else Assumptions(),
    )


def _number(value, field_path: str) -> float:
    """value as a float; a ValidationError naming field_path if it is not a
    number. A bool is not, though Python would take true for 1."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValidationError(f"must be a number, got {value!r}", field_path)


def valid_rows(columns) -> np.ndarray:
    """Which rows of a {key: column} mapping over every SAMPLE_ROW key would
    build a valid ParameterSet: the single-field domains and
    CROSS_FIELD_RULES that __post_init__ checks, as boolean masks. The
    integer lifetime is not checked. A rule whose arithmetic
    overflows or divides by zero fails, as inf and NaN compare."""
    ok = np.ones(len(columns[VALUE_FACTOR_KEYS[0]]), dtype=bool)
    for checks in _DOMAIN_CHECKS.values():
        for name, test, bound, _ in checks:
            ok &= test(columns[name], bound)
    with np.errstate(all="ignore"):
        for _, _, _, holds in CROSS_FIELD_RULES:
            ok &= holds(columns)
    return ok


# ---------------------------------------------------------------------------
# Counter-based random numbers
# ---------------------------------------------------------------------------

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
#: Philox4x64-10 (Salmon et al., SC'11): the round multipliers and the key
#: increments of each round.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
#: Counter blocks per kernel pass, over as many streams as fit. A temporary
#: is then at most 16 KiB, well under glibc's 128 KiB mmap threshold; one
#: pass over the 34 streams x 375 blocks of `mc --samples 1500` (100 KiB a
#: temporary) raised that command's peak resident set by 0.46 MiB.
PHILOX_CHUNK = 2048


def _philox_key(seed: int, key: tuple) -> tuple:
    """The two 64-bit key words of the Philox4x64 stream (seed, *key): the
    16-byte BLAKE2b digest of the ints in lower-case hexadecimal, joined by
    ",", read as two little-endian words. Hexadecimal, unlike decimal, has
    no digit limit (`sys.get_int_max_str_digits`)."""
    words = [operator.index(word) for word in (seed, *key)]
    if min(words) < 0:
        raise ValueError(f"expected non-negative integers, got {(seed, *key)}")
    text = ",".join(format(word, "x") for word in words)
    digest = blake2b(text.encode(), digest_size=16).digest()
    return int.from_bytes(digest[:8], "little"), int.from_bytes(digest[8:], "little")


def _mulhilo(a: np.ndarray, m: int) -> tuple:
    """The high and low 64-bit words of each 128-bit product a * m, built
    from 32-bit halves; uint64 array arithmetic wraps without a warning."""
    a_lo, a_hi = a & _M32, a >> 32
    m_lo, m_hi = m & _M32, m >> 32
    t = a_hi * m_lo + (a_lo * m_lo >> 32)
    u = (t & _M32) + a_lo * m_hi
    return a_hi * m_hi + (t >> 32) + (u >> 32), a * m


def philox_uniforms(seed: int, keys, start: int, stop: int) -> np.ndarray:
    """Uniform words [start, stop) of the Philox4x64-10 streams (seed, *key)
    for each key tuple in `keys`, one row per stream, bit for bit those of
    `np.random.Generator(np.random.Philox(key=_philox_key(seed,
    key))).random()`. Different keys give independent streams.

    Word i is lane i % 4 of counter block i // 4 + 1 (numpy bumps the
    counter before its first use), mapped to (w >> 11) * 2**-53. The
    blocks are computed PHILOX_CHUNK at a time, for as many streams as fit.
    """
    first, n_blocks = start // 4, -(-stop // 4) - start // 4
    stream_keys = [_philox_key(seed, key) for key in keys]
    # round r adds r increments to the key, mod 2**64: in Python ints, as a
    # numpy uint64 scalar would warn on the overflow
    round_keys = np.array([[[(k + r * w) & _M64 for k, w in zip(words, _PHILOX_W)]
                            for r in range(_PHILOX_ROUNDS)] for words in stream_keys],
                          dtype=np.uint64).reshape(len(keys), _PHILOX_ROUNDS, 2)
    out = np.empty((len(keys), n_blocks, 4))
    rows = max(1, PHILOX_CHUNK // max(n_blocks, 1))
    for r0 in range(0, len(keys), rows):
        k = round_keys[r0:r0 + rows, :, :, None]
        for b0 in range(0, n_blocks, PHILOX_CHUNK):
            b1 = min(b0 + PHILOX_CHUNK, n_blocks)
            x0 = np.repeat(np.arange(first + b0 + 1, first + b1 + 1, dtype=np.uint64)[None, :],
                           len(k), axis=0)
            x1 = x2 = x3 = np.zeros_like(x0)
            for r in range(_PHILOX_ROUNDS):
                hi0, lo0 = _mulhilo(x0, _PHILOX_M[0])
                hi1, lo1 = _mulhilo(x2, _PHILOX_M[1])
                x0, x1, x2, x3 = hi1 ^ x1 ^ k[:, r, 0], lo1, hi0 ^ x3 ^ k[:, r, 1], lo0
            for lane, x in enumerate((x0, x1, x2, x3)):
                np.multiply(x >> 11, 2.0 ** -53, out=out[r0:r0 + rows, b0:b1, lane])
    return out.reshape(len(keys), 4 * n_blocks)[:, start % 4:start % 4 + stop - start]


#: Wichura's AS241 (Applied Statistics 37(3), 1988): the numerator and
#: denominator coefficients of each branch, highest power first, as
#: `statistics.NormalDist.inv_cdf` writes them. The central branch is a
#: polynomial in r = 0.180625 - q**2; the tails in r = sqrt(-log(min(p, 1 - p))),
#: shifted by 1.6 where r <= 5 and by 5 beyond. np.polyval evaluates each
#: by Horner's rule, (...(c0 * r + c1) * r + ...) * r + c_last, as statistics does.
_AS241_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0))
_AS241_NEAR_TAIL = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0))
_AS241_FAR_TAIL = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0))


def normal_quantiles(p: np.ndarray) -> np.ndarray:
    """Phi^-1(p) for levels 0 < p < 1, bit for bit
    `statistics.NormalDist().inv_cdf`: AS241's three branches, in its order
    of evaluation. Only the levels with |p - 0.5| > 0.425 enter the tail
    branches, which take the logarithm with `math.log`, element by element,
    as numpy's `np.log` differs between CPUs. A level of 0 or 1 has no
    finite quantile: `math.log` refuses it with a ValueError."""
    q = p - 0.5
    central_r = 0.180625 - q * q
    x = np.polyval(_AS241_CENTRAL[0], central_r) * q / np.polyval(_AS241_CENTRAL[1], central_r)
    tail = np.abs(q) > 0.425
    if tail.any():
        q = q[tail]
        low = np.where(q <= 0.0, p[tail], 1.0 - p[tail])   # the smaller of p and 1 - p
        r = np.sqrt(-np.fromiter(map(math.log, low.tolist()), float, len(low)))
        near = r <= 5.0
        t = np.where(near, r - 1.6, r - 5.0)
        x_tail = np.where(near,
                          np.polyval(_AS241_NEAR_TAIL[0], t) / np.polyval(_AS241_NEAR_TAIL[1], t),
                          np.polyval(_AS241_FAR_TAIL[0], t) / np.polyval(_AS241_FAR_TAIL[1], t))
        x[tail] = np.where(q < 0.0, -x_tail, x_tail)
    return x


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------

_EVERY_SCHEME = tuple(kind.value for kind in SchemeKind)

#: The bundled defaults that the dataclasses do not carry, in config-file
#: units: one row per storage application (name, MW, hours per activation,
#: activations per year, suitable schemes). `defaults.yaml` writes them, and
#: the golden value factors of ValueFactorTable, as a config file.
_DEFAULT_APPLICATIONS = (
    ("Energy arbitrage", 100, 4, 300, _EVERY_SCHEME),
    ("Primary response", 10, 0.5, 5000, _EVERY_SCHEME),
    ("Secondary response", 100, 1, 1000, _EVERY_SCHEME),
    ("Tertiary response", 100, 4, 10, _EVERY_SCHEME),
    ("Peaker replacement", 100, 4, 50, _EVERY_SCHEME),
    ("Black start", 10, 1, 10, ("v2g",)),
    ("Seasonal storage", 100, 700, 3, ()),
    ("T&D investment deferral", 100, 8, 300, _EVERY_SCHEME),
    ("Congestion management", 100, 1, 300, _EVERY_SCHEME),
    ("Bill management", 1, 4, 500, _EVERY_SCHEME),
    ("Power quality", 1, 0.5, 100, ("v2g",)),
    ("Power reliability", 1, 8, 50, ("v2g",)),
)


#: Characters that would split or quote a cell of an output CSV: no
#: application or storage technology name may hold one.
CSV_UNSAFE = frozenset(',"\r\n')

_ALLOWED_APP_KEYS = {"name", "power_capacity_mw", "discharge_duration_h",
                     "annual_cycles", "suitable_schemes"}
_ALLOWED_ASSUMPTION_KEYS = {f.name for f in fields(Assumptions)}
#: The entry key behind each ApplicationSpec field named otherwise, and behind
#: the "scheme" of SchemeKind.from_name's error.
_APP_FIELD_KEYS = {"power_capacity": "power_capacity_mw",
                   "discharge_duration": "discharge_duration_h", "scheme": "suitable_schemes"}


def _applications_from_config(entries: list) -> list:
    apps = []
    for i, entry in enumerate(entries):
        path = f"applications[{i}]"
        if not isinstance(entry, dict):
            raise ValidationError("application entry must be a mapping", path)
        unknown = set(entry) - _ALLOWED_APP_KEYS
        if unknown:
            raise ValidationError(f"unknown keys {sorted(unknown)}", path)
        try:
            name = entry["name"]
            power, duration, cycles = (
                _number(entry[key], f"{path}.{key}")
                for key in ("power_capacity_mw", "discharge_duration_h", "annual_cycles"))
        except KeyError as exc:
            raise ValidationError(f"missing key {exc.args[0]!r}", path) from None
        if not isinstance(name, str):
            raise ValidationError("must be a string", f"{path}.name")
        name = name.strip()
        if CSV_UNSAFE.intersection(name):
            raise ValidationError("must not hold a comma, a double quote or a line break",
                                  f"{path}.name")
        if any(app.name == name for app in apps):
            raise ValidationError(f"repeats the application name {name!r}", f"{path}.name")
        schemes = entry.get("suitable_schemes", [])
        if not isinstance(schemes, list):
            raise ValidationError("must be a list", f"{path}.suitable_schemes")
        try:
            apps.append(ApplicationSpec(name, power * 1000.0, duration, cycles,
                                        frozenset(SchemeKind.from_name(s) for s in schemes)))
        except ValidationError as exc:
            key = _APP_FIELD_KEYS.get(exc.field_path, exc.field_path)
            raise ValidationError(exc.message, f"{path}.{key}") from None
    return apps


def load_config_dict(overrides: Optional[dict]):
    """Merge an override mapping onto the bundled defaults.

    The defaults are the dataclass field defaults, the golden value factors
    among them, plus the bundled applications. Returns (ParameterSet, list
    of ApplicationSpec). Parameter overrides may appear either under a
    ``parameters`` section or directly at the top level. Unknown keys
    anywhere are an error.
    """
    merged = {"parameters": {}, "value_factors": {}, "assumptions": {}}
    app_entries = [{"name": name, "power_capacity_mw": mw, "discharge_duration_h": hours,
                    "annual_cycles": cycles, "suitable_schemes": list(schemes)}
                   for name, mw, hours, cycles, schemes in _DEFAULT_APPLICATIONS]

    overrides = overrides or {}
    if not isinstance(overrides, dict):
        raise ParseError("configuration root must be a mapping")

    version = overrides.get("schema_version")
    # type(): True == 1 and 1.0 == 1, but neither is schema version 1
    if version is not None and (type(version) is not int or version != CONFIG_SCHEMA_VERSION):
        raise SchemaVersionError(f"schema_version: unsupported version {version!r} "
                                 f"(expected {CONFIG_SCHEMA_VERSION})")

    for key, value in overrides.items():
        if key == "schema_version":
            continue
        elif key in merged:
            if not isinstance(value, dict):
                raise ValidationError("must be a mapping", key)
            # parameter and value-factor keys are checked as they are built
            unknown = set(value) - _ALLOWED_ASSUMPTION_KEYS if key == "assumptions" else ()
            if unknown:
                raise ValidationError(f"unknown keys {sorted(unknown)}", key)
            merged[key].update(value)
        elif key == "applications":
            if not isinstance(value, list):
                raise ValidationError("must be a list", "applications")
            app_entries = value
        elif key in PARAMETER_INDEX:
            # flat parameter override at the top level
            merged["parameters"][key] = value
        else:
            raise ValidationError(f"unknown configuration key {key!r}", key)

    assumptions = Assumptions(**merged["assumptions"])
    params = build_parameter_set(merged["parameters"], merged["value_factors"], assumptions)
    apps = _applications_from_config(app_entries)
    return params, apps


def load_config(path: Optional[str] = None):
    """Load a configuration file (YAML) merged over the bundled defaults.

    ``path=None`` or an empty file yields the full default parameterization.
    """
    overrides = None
    if path is not None:
        import yaml   # only a config file needs PyYAML: it stays out of start-up
        try:
            with open(path, "r", encoding="utf-8") as fh:
                overrides = yaml.safe_load(fh)
        except FileNotFoundError:
            raise ParseError(f"configuration file not found: {path}") from None
        except OSError as exc:   # a directory, no permission, ...
            raise ParseError(f"unreadable configuration file {path}: "
                             f"{exc.strerror or exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"configuration file {path} is not UTF-8 text: {exc}") from None
        except yaml.YAMLError as exc:
            raise ParseError(f"malformed configuration file {path}: {exc}") from None
    return load_config_dict(overrides)


def parameter_set_to_dict(params: ParameterSet) -> dict:
    """Serialize a ParameterSet into a config-shaped mapping.

    Round-trips bit-exactly: load_config_dict(parameter_set_to_dict(p))
    reproduces every numeric field.
    """
    return {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "parameters": parameter_values(params),
        "value_factors": asdict(params.value_factors),
        "assumptions": asdict(params.assumptions),
    }


def default_parameters() -> ParameterSet:
    """The bundled default parameterization."""
    params, _ = load_config_dict(None)
    return params


def default_applications() -> list:
    """The twelve bundled storage applications with their suitability sets."""
    _, apps = load_config_dict(None)
    return apps
