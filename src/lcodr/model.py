"""Domain types, default parameterization and configuration handling.

All quantities are kept in a single internal unit system: kW, kWh, hours,
years and US dollars. Application power capacities are commonly quoted in
MW and are converted to kW at load time.

Every type is an immutable dataclass and validates its own invariants on
construction, so a ParameterSet that exists is always internally
consistent. This matters for the Monte-Carlo machinery, which rebuilds
parameter sets from perturbed values and relies on construction-time
re-validation.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from importlib import resources
from typing import Optional

import numpy as np
import yaml

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
        self.field_path = field_path
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


#: Schemes that can only shift load, not export power.
UNIDIRECTIONAL_SCHEMES = frozenset(
    {SchemeKind.SMART_CHARGING, SchemeKind.SMART_HEAT_PUMP, SchemeKind.HP_THERMAL_STORAGE}
)


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


#: The three scalar parameter groups, by their ParameterSet field name.
_GROUPS = (("ev", EvParameters), ("heat", HeatParameters), ("econ", EconomicParameters))


@dataclass(frozen=True)
class ValueFactorTable:
    """Per-scheme value factors. V2G carries a power and an energy variant;
    the two heat-pump schemes share a single value because their
    uncontrolled demand profile is the same."""

    v2g_power: float = _param(1.0, gt=0.0)
    v2g_energy: float = _param(1.0, gt=0.0)
    smart_charging: float = _param(1.0, gt=0.0)
    heat_pump: float = _param(1.0, gt=0.0)

    def __post_init__(self):
        _check_fields(self)

    def for_scheme(self, scheme: SchemeKind,
                   binding: BindingConstraint = BindingConstraint.NOT_APPLICABLE) -> float:
        if scheme is SchemeKind.V2G:
            if binding is BindingConstraint.ENERGY:
                return self.v2g_energy
            return self.v2g_power
        if scheme is SchemeKind.SMART_CHARGING:
            return self.smart_charging
        return self.heat_pump


_DOMAIN_CHECKS = {cls: _domain_checks(cls)
                  for cls in (EvParameters, HeatParameters, EconomicParameters, ValueFactorTable)}


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
    """A regularly spaced series of numbers with a declared unit.

    Gaps are a load-time error; a TimeSeries that exists has no missing
    values. The value buffer is frozen so instances can be shared safely.
    """

    start: datetime
    interval_seconds: float
    values: np.ndarray
    unit: str = ""

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

    def with_values(self, values: np.ndarray, unit: Optional[str] = None) -> "TimeSeries":
        return TimeSeries(self.start, self.interval_seconds, values,
                          self.unit if unit is None else unit)


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
    and the domain it must be clamped to after perturbation."""

    key: str
    group: str                 # 'ev' | 'heat' | 'econ' | 'value_factors'
    perturb: bool = True
    lower: Optional[float] = None
    upper: Optional[float] = None


_EPS = 1e-9


def _clamp_bounds(f) -> tuple:
    """(lower, upper) that a perturbed draw of field f is clamped to: a closed
    bound as it is, an open one moved _EPS inside; None for fields that
    Monte-Carlo leaves alone."""
    m = f.metadata
    if not m["perturb"]:
        return None, None
    lower = m["ge"] if m["gt"] is None else m["gt"] + _EPS
    upper = m["le"] if m["lt"] is None else m["lt"] - _EPS
    return lower, upper


#: Ordered registry of every scalar parameter, in declaration order. The
#: position in this tuple is the parameter's stable id for seeded
#: Monte-Carlo substreams, so the fields above are never reordered.
PARAMETERS: tuple = tuple(ParamSpec(f.name, group, f.metadata["perturb"], *_clamp_bounds(f))
                          for group, cls in _GROUPS for f in fields(cls))

PARAMETER_INDEX = {spec.key: i for i, spec in enumerate(PARAMETERS)}

#: The value factors in the same form, perturbed with their own sigma; in
#: Monte-Carlo their substream ids follow those of PARAMETERS.
VALUE_FACTOR_SPECS: tuple = tuple(ParamSpec(f.name, "value_factors", True, *_clamp_bounds(f))
                                  for f in fields(ValueFactorTable))

VALUE_FACTOR_KEYS = tuple(spec.key for spec in VALUE_FACTOR_SPECS)


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
    vf = ValueFactorTable(**{k: _number(v, f"value_factors.{k}")
                             for k, v in (value_factors or {}).items() if _known_vf_key(k)})
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
    """Which rows of a {key: column} mapping over every PARAMETERS and
    VALUE_FACTOR_KEYS key would build a valid ParameterSet: the single-field
    domains and CROSS_FIELD_RULES that __post_init__ checks, as boolean
    masks. The integer lifetime is not checked. A rule whose arithmetic
    overflows or divides by zero fails, as inf and NaN compare."""
    ok = np.ones(len(columns[VALUE_FACTOR_KEYS[0]]), dtype=bool)
    for checks in _DOMAIN_CHECKS.values():
        for name, test, bound, _ in checks:
            ok &= test(columns[name], bound)
    with np.errstate(all="ignore"):
        for _, _, _, holds in CROSS_FIELD_RULES:
            ok &= holds(columns)
    return ok


def philox_generator(seed: int, *key: int, counter: int = 0) -> np.random.Generator:
    """The Philox4x64 generator of one (seed, *key) stream, at counter block
    `counter`; it yields the stream from word 4 * counter on."""
    words = np.random.SeedSequence(seed, spawn_key=key).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=words, counter=counter))


def _known_vf_key(key: str) -> bool:
    if key not in VALUE_FACTOR_KEYS:
        raise ValidationError(f"unknown value factor key {key!r}", f"value_factors.{key}")
    return True


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------

#: The safe YAML loader, in C when PyYAML was built with libyaml. Only the
#: bundled defaults use it: user config files go through yaml.safe_load,
#: whose error texts are shown to users.
_FAST_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _bundled_defaults() -> dict:
    text = resources.files("lcodr").joinpath("defaults.yaml").read_text(encoding="utf-8")
    return yaml.load(text, Loader=_FAST_SAFE_LOADER)


#: Characters that would split or quote a cell of an output CSV: no
#: application or storage technology name may hold one.
CSV_UNSAFE = frozenset(',"\r\n')

_ALLOWED_APP_KEYS = {"name", "power_capacity_mw", "discharge_duration_h",
                     "annual_cycles", "suitable_schemes"}
_ALLOWED_ASSUMPTION_KEYS = {f.name for f in fields(Assumptions)}


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
            name = str(entry["name"])
            power, duration, cycles = (
                _number(entry[key], f"{path}.{key}")
                for key in ("power_capacity_mw", "discharge_duration_h", "annual_cycles"))
        except KeyError as exc:
            raise ValidationError(f"missing key {exc.args[0]!r}", path) from None
        if CSV_UNSAFE.intersection(name):
            raise ValidationError("must not hold a comma, a double quote or a line break",
                                  f"{path}.name")
        schemes = entry.get("suitable_schemes", [])
        if not isinstance(schemes, list):
            raise ValidationError("must be a list", f"{path}.suitable_schemes")
        apps.append(ApplicationSpec(name, power * 1000.0, duration, cycles,
                                    frozenset(SchemeKind.from_name(s) for s in schemes)))
    return apps


def load_config_dict(overrides: Optional[dict]):
    """Merge an override mapping onto the bundled defaults.

    The defaults are the dataclass field defaults plus the bundled value
    factors and applications. Returns (ParameterSet, list of
    ApplicationSpec). Parameter overrides may appear either under a
    ``parameters`` section or directly at the top level. Unknown keys
    anywhere are an error.
    """
    base = _bundled_defaults()
    merged_params = {}
    merged_vf = dict(base["value_factors"])
    merged_assumptions = {}
    app_entries = base["applications"]

    overrides = overrides or {}
    if not isinstance(overrides, dict):
        raise ParseError("configuration root must be a mapping")

    version = overrides.get("schema_version")
    if version is not None and version != CONFIG_SCHEMA_VERSION:
        raise SchemaVersionError(
            f"unsupported schema_version {version!r} (expected {CONFIG_SCHEMA_VERSION})")

    for key, value in overrides.items():
        if key == "schema_version":
            continue
        elif key == "parameters":
            if not isinstance(value, dict):
                raise ValidationError("must be a mapping", "parameters")
            merged_params.update(value)
        elif key == "value_factors":
            if not isinstance(value, dict):
                raise ValidationError("must be a mapping", "value_factors")
            merged_vf.update(value)
        elif key == "assumptions":
            if not isinstance(value, dict):
                raise ValidationError("must be a mapping", "assumptions")
            unknown = set(value) - _ALLOWED_ASSUMPTION_KEYS
            if unknown:
                raise ValidationError(f"unknown keys {sorted(unknown)}", "assumptions")
            merged_assumptions.update(value)
        elif key == "applications":
            if not isinstance(value, list):
                raise ValidationError("must be a list", "applications")
            app_entries = value
        elif key in PARAMETER_INDEX:
            # flat parameter override at the top level
            merged_params[key] = value
        else:
            raise ValidationError(f"unknown configuration key {key!r}", key)

    assumptions = Assumptions(**merged_assumptions)
    params = build_parameter_set(merged_params, merged_vf, assumptions)
    apps = _applications_from_config(app_entries)
    return params, apps


def load_config(path: Optional[str] = None):
    """Load a configuration file (YAML) merged over the bundled defaults.

    ``path=None`` or an empty file yields the full default parameterization.
    """
    overrides = None
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                overrides = yaml.safe_load(fh)
        except FileNotFoundError:
            raise ParseError(f"configuration file not found: {path}") from None
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
