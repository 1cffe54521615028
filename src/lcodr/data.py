"""Bundled datasets and file loaders.

Everything needed to run the full pipeline out of the box: a synthetic
electricity price series, synthetic availability profiles for each scheme,
and the storage-cost reference table. The national datasets behind the
published case study (charging sessions, heat-pump monitoring, half-hourly
market prices) are not redistributable; the synthetic stand-ins reproduce
their qualitative daily shapes — evening-peaked EV charging, morning and
evening heating peaks, overnight vehicle plug-in — and are deterministic
for a fixed seed.

CSV layouts:
  single series      timestamp,value
  energy boundaries  timestamp,lower,upper
  profile pool       asset_id,timestamp,value         (long format)
  storage reference  application,technology,lcos_usd_per_mwh
Timestamps are ISO 8601; naive timestamps are taken as UTC.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from importlib import resources
from typing import Dict, List, Optional, Tuple

import numpy as np

from .model import LcodrError, TimeSeries, ValueFactorTable
from .valuefactor import (AvailabilityProfile, ProfileKind, ValueFactorError, align,
                          v2g_value_factors, value_factor)


class DataError(LcodrError):
    """A data file violates its schema. Carries the first offending row."""

    def __init__(self, message: str, path: str = "", row: Optional[int] = None):
        self.path = path
        self.row = row
        where = path
        if row is not None:
            where = f"{path}:{row}" if path else f"row {row}"
        super().__init__(f"{where}: {message}" if where else message)


class MissingColumn(DataError):
    pass


class NonMonotonicTimestamps(DataError):
    pass


class IrregularSpacing(DataError):
    pass


class NonNumericValue(DataError):
    pass


# ---------------------------------------------------------------------------
# CSV loaders
# ---------------------------------------------------------------------------

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def _parse_timestamps(column: List[str], name: str, path: str) -> np.ndarray:
    """Microseconds since the epoch of each ISO 8601 timestamp of a column;
    naive timestamps are UTC. Each distinct text is parsed once, in
    first-occurrence order, so the first text that fails is on the first
    bad row."""
    parsed = {}
    for text in dict.fromkeys(column):
        try:
            ts = datetime.fromisoformat(text.strip())
        except ValueError:
            raise NonNumericValue(f"unparseable timestamp {text!r}", path,
                                  column.index(text) + 2) from None
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=timezone.utc)
        parsed[text] = (ts - _EPOCH) // _MICROSECOND
    return np.fromiter(map(parsed.__getitem__, column), np.int64, len(column))


def _parse_number(text: str, column: str, path: str, row: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise NonNumericValue(f"non-numeric {column} {text!r}", path, row) from None
    if not math.isfinite(value):
        raise NonNumericValue(f"non-finite {column} {text!r}", path, row)
    return value


def _parse_numbers(column: List[str], name: str, path: str) -> np.ndarray:
    """The finite floats of a column. Only when one fails does the per-row
    _parse_number run, to name the first bad row."""
    try:
        values = np.fromiter(map(float, column), np.float64, len(column))
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    return np.array([_parse_number(t, name, path, r) for r, t in enumerate(column, start=2)])


def _read_columns(path: str, columns, text: Optional[str] = None) -> list:
    """Read a CSV (the file at path, or text) once into one list of strings
    per (name, column_parser) pair; return each column parsed whole into an
    array by column_parser(strings, name, path) (None: the strings). Rows are
    numbered as csv.DictReader yields them: header row 1, blank lines
    skipped. A repeated header name means its last occurrence. The first bad
    row is reported, within a row the leftmost column."""
    names = [name for name, _ in columns]
    texts: List[List[str]] = [[] for _ in columns]
    errors = []
    try:
        with (open(path, encoding="utf-8", newline="") if text is None
              else io.StringIO(text)) as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            for name in names:
                if name not in header:
                    raise MissingColumn(f"missing column {name!r} (found {header})", path, 1)
            index = [len(header) - 1 - header[::-1].index(name) for name in names]
            width = max(index)
            appends = [(column.append, i) for column, i in zip(texts, index)]
            for record in reader:
                if len(record) > width:
                    for append, i in appends:
                        append(record[i])
                elif record:   # a short row ends the read; blank lines are skipped
                    missing = next(n for n, i in zip(names, index) if i >= len(record))
                    errors.append(DataError(f"missing field {missing!r}", path,
                                            len(texts[0]) + 2))
                    break
    except FileNotFoundError:
        raise DataError("file not found", path) from None
    except (OSError, UnicodeDecodeError) as exc:   # decoding runs ahead of the rows
        raise DataError(f"unreadable file ({exc})", path) from None
    except csv.Error as exc:
        raise DataError(f"unreadable CSV ({exc})", path, len(texts[0]) + 2) from None
    if not texts[0] and not errors:
        raise DataError("file has a header but no data rows", path)
    arrays = []
    for (name, parse), column in zip(columns, texts):
        try:
            arrays.append(column if parse is None else parse(column, name, path))
        except DataError as exc:
            errors.append(exc)
    if errors:
        raise min(errors, key=lambda e: e.row)
    return arrays


def _grid(us: np.ndarray, rows: np.ndarray, path: str, what: str = "a series"):
    """(start, spacing in seconds) of strictly increasing, evenly spaced
    timestamps given in microseconds since the epoch."""
    if len(us) < 2:
        raise DataError(f"{what} needs at least 2 data rows", path, int(rows[0]))
    d = np.diff(us) / 1e6
    bad = np.flatnonzero(d <= 0)
    if bad.size:
        raise NonMonotonicTimestamps(f"timestamp does not increase (delta {d[bad[0]]:.0f} s)",
                                     path, int(rows[bad[0] + 1]))
    bad = np.flatnonzero(np.abs(d - d[0]) > 1e-6)
    if bad.size:
        raise IrregularSpacing(f"spacing {d[bad[0]]:.0f} s differs from first spacing "
                               f"{d[0]:.0f} s", path, int(rows[bad[0] + 1]))
    return _EPOCH + timedelta(microseconds=int(us[0])), float(d[0])


def _read_series(path: str, value_columns: Tuple[str, ...], unit: str) -> List[TimeSeries]:
    """One TimeSeries per value column of a `timestamp,<value columns>` CSV."""
    us, *values = _read_columns(path, [("timestamp", _parse_timestamps)]
                                + [(name, _parse_numbers) for name in value_columns])
    start, interval = _grid(us, np.arange(2, len(us) + 2), path)
    return [TimeSeries(start, interval, v, unit) for v in values]


def load_timeseries_csv(path: str, unit: str = "") -> TimeSeries:
    """Load a `timestamp,value` CSV into a validated TimeSeries."""
    return _read_series(path, ("value",), unit)[0]


def load_boundary_csv(path: str, unit: str = "kWh") -> AvailabilityProfile:
    """Load a `timestamp,lower,upper` CSV into an energy-boundary profile."""
    lower, upper = _read_series(path, ("lower", "upper"), unit)
    return AvailabilityProfile(ProfileKind.V2G_ENERGY_BOUNDARIES, lower, upper=upper)


def load_profile_pool_csv(path: str, kind: ProfileKind = ProfileKind.UNIDIRECTIONAL_LOAD,
                          unit: str = "kW") -> List[AvailabilityProfile]:
    """Load a long-format `asset_id,timestamp,value` CSV into one profile
    per asset. Assets appear in first-occurrence order; each asset's block
    must form a valid grid on its own."""
    assets, us, values = _read_columns(path, [("asset_id", None),
                                              ("timestamp", _parse_timestamps),
                                              ("value", _parse_numbers)])
    codes = {asset_id: code for code, asset_id in enumerate(dict.fromkeys(assets))}
    asset_index = np.fromiter(map(codes.__getitem__, assets), np.intp, len(assets))
    order = np.argsort(asset_index, kind="stable")   # each asset's rows, in file order
    profiles = []
    for asset_id, positions in zip(codes, np.split(order, np.cumsum(np.bincount(asset_index)))):
        start, interval = _grid(us[positions], positions + 2, path, f"asset {asset_id!r}")
        series = TimeSeries(start, interval, values[positions], unit)
        profiles.append(AvailabilityProfile(kind, series, asset_id=asset_id))
    return profiles


@dataclass(frozen=True)
class LcosEntry:
    """One storage-technology cost reference for one application, $/MWh."""

    application: str
    technology: str
    lcos_usd_per_mwh: float


def load_lcos_reference(path: Optional[str] = None) -> List[LcosEntry]:
    """Load the storage-cost reference table; None loads the bundled file.

    The bundled values approximate published lifetime-cost projections for
    mature storage technologies and are user-replaceable.
    """
    text = None
    if path is None:
        text = resources.files("lcodr").joinpath("lcos_reference.csv") \
            .read_text(encoding="utf-8")
        path = "<bundled lcos_reference.csv>"
    apps, techs, costs = _read_columns(path, [("application", None), ("technology", None),
                                              ("lcos_usd_per_mwh", _parse_numbers)], text)
    return [LcosEntry(a.strip(), t.strip(), c) for a, t, c in zip(apps, techs, costs.tolist())]


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------

_START = datetime(2023, 1, 1, tzinfo=timezone.utc)
_HOUR = 3600.0


def _daily_gauss(hours: np.ndarray, center: float, width: float) -> np.ndarray:
    """Gaussian bump on the 24-hour circle."""
    d = np.abs(hours - center)
    d = np.minimum(d, 24.0 - d)
    return np.exp(-0.5 * (d / width) ** 2)


def _hour_axis(days: int) -> np.ndarray:
    return np.arange(days * 24) % 24.0


def synthetic_price(days: int = 365, seed: int = 0,
                    mean_usd_per_mwh: float = 50.0) -> TimeSeries:
    """Hourly electricity price with morning and evening peaks, an overnight
    trough, mild seasonality and seeded noise; mean normalized exactly."""
    hours = _hour_axis(days)
    day = np.arange(days * 24) / 24.0
    shape = (1.0
             + 0.35 * _daily_gauss(hours, 8.0, 1.6)
             + 0.55 * _daily_gauss(hours, 18.5, 2.0)
             - 0.30 * _daily_gauss(hours, 3.5, 2.5))
    seasonal = 1.0 + 0.15 * np.cos(2.0 * np.pi * (day - 15.0) / 365.25)
    rng = np.random.default_rng((seed, 0))
    noise = 1.0 + 0.08 * rng.standard_normal(days * 24)
    values = np.clip(shape * seasonal * noise, 0.05, None)
    values *= mean_usd_per_mwh / values.mean()
    return TimeSeries(_START, _HOUR, values, "$/MWh")


def synthetic_ev_charging_pool(n_assets: int = 200, days: int = 365,
                               seed: int = 0) -> List[AvailabilityProfile]:
    """Per-vehicle home-charging load: a single evening peak, heterogeneous
    in timing, width and magnitude, with day-to-day noise."""
    pool = []
    hours = _hour_axis(days)
    for a in range(n_assets):
        rng = np.random.default_rng((seed, 1, a))
        center = 19.0 + 1.8 * rng.standard_normal()
        width = rng.uniform(1.2, 2.8)
        magnitude = rng.uniform(0.8, 2.4)            # kW at the peak
        base = magnitude * _daily_gauss(hours, center, width)
        day_noise = np.repeat(np.clip(1.0 + 0.25 * rng.standard_normal(days),
                                      0.0, None), 24)
        values = base * day_noise
        series = TimeSeries(_START, _HOUR, values, "kW")
        pool.append(AvailabilityProfile(ProfileKind.UNIDIRECTIONAL_LOAD,
                                        series, asset_id=f"synthetic-ev-{a:03d}"))
    return pool


def synthetic_heating_pool(n_assets: int = 60, days: int = 365,
                           seed: int = 0) -> List[AvailabilityProfile]:
    """Per-dwelling heat-pump electricity demand: morning and evening peaks
    over a continuous base, amplified in winter."""
    pool = []
    hours = _hour_axis(days)
    day = np.arange(days * 24) / 24.0
    winter = 1.0 + 0.75 * np.cos(2.0 * np.pi * (day - 15.0) / 365.25)
    for a in range(n_assets):
        rng = np.random.default_rng((seed, 2, a))
        morning = rng.uniform(0.8, 1.2)
        evening = rng.uniform(0.9, 1.4)
        base = rng.uniform(0.25, 0.45)               # kW steady floor
        shape = (base
                 + morning * _daily_gauss(hours, 7.0 + 0.5 * rng.standard_normal(), 1.5)
                 + evening * _daily_gauss(hours, 19.0 + 0.5 * rng.standard_normal(), 2.0))
        day_noise = np.repeat(np.clip(1.0 + 0.15 * rng.standard_normal(days),
                                      0.0, None), 24)
        values = shape * winter * day_noise
        series = TimeSeries(_START, _HOUR, values, "kW")
        pool.append(AvailabilityProfile(ProfileKind.UNIDIRECTIONAL_LOAD,
                                        series, asset_id=f"synthetic-hp-{a:03d}"))
    return pool


def synthetic_v2g_profiles(days: int = 365, seed: int = 0,
                           battery_band_kwh: float = 42.0,
                           charger_power_kw: float = 6.8):
    """Aggregate V2G availability: dischargeable power and battery-energy
    boundaries for an overnight-plugged fleet, per vehicle.

    Plug-in probability is high from late afternoon through the morning
    commute and low at midday, so availability overlaps the evening price
    peak but also the cheap night hours — the value factors come out near
    unity. Returns (power profile, energy-boundaries profile).
    """
    hours = _hour_axis(days)
    rng = np.random.default_rng((seed, 3))
    plugged = (0.34
               + 0.52 * _daily_gauss(hours, 2.0, 5.5)
               + 0.28 * _daily_gauss(hours, 19.5, 2.5))
    plugged = np.clip(plugged * (1.0 + 0.05 * rng.standard_normal(len(hours))),
                      0.05, 1.0)
    # Not all plugged-in vehicles can discharge: some are replacing driving
    # energy, concentrated right after the evening arrival.
    charging = 0.30 * _daily_gauss(hours, 18.5, 1.5)
    discharge_power = charger_power_kw * np.clip(plugged - charging, 0.0, None)
    power = AvailabilityProfile(
        ProfileKind.V2G_POWER_BOUNDARY,
        TimeSeries(_START, _HOUR, discharge_power, "kW"),
        asset_id="synthetic-v2g-power")

    # Energy band: plugged-in share of the dischargeable battery band; the
    # band narrows while driving energy is being replaced.
    upper = battery_band_kwh * plugged
    lower = battery_band_kwh * np.clip(charging, 0.0, None) * plugged
    energy = AvailabilityProfile(
        ProfileKind.V2G_ENERGY_BOUNDARIES,
        TimeSeries(_START, _HOUR, lower, "kWh"),
        upper=TimeSeries(_START, _HOUR, upper, "kWh"),
        asset_id="synthetic-v2g-energy")
    return power, energy


# ---------------------------------------------------------------------------
# The bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataBundle:
    """Everything the pipeline consumes, loaded and validated.

    provenance distinguishes transcribed constants from synthetic series.
    """

    price: TimeSeries
    ev_charging_pool: List[AvailabilityProfile]
    heating_pool: List[AvailabilityProfile]
    v2g_power: AvailabilityProfile
    v2g_energy: AvailabilityProfile
    lcos_reference: List[LcosEntry]
    provenance: Dict[str, str] = field(default_factory=dict)


def default_bundle(seed: int = 2024, days: int = 365) -> DataBundle:
    """The deterministic bundled dataset. Same seed, same bundle."""
    v2g_power, v2g_energy = synthetic_v2g_profiles(days=days, seed=seed)
    return DataBundle(
        price=synthetic_price(days=days, seed=seed),
        ev_charging_pool=synthetic_ev_charging_pool(days=days, seed=seed),
        heating_pool=synthetic_heating_pool(days=days, seed=seed),
        v2g_power=v2g_power, v2g_energy=v2g_energy,
        lcos_reference=load_lcos_reference(),
        provenance={
            "price": "synthetic: two-peak daily shape, seasonal modulation, "
                     "seeded noise, mean normalized to 50 $/MWh",
            "ev_charging_pool": "synthetic: evening-peaked per-vehicle load",
            "heating_pool": "synthetic: bimodal morning/evening heating demand",
            "v2g_power": "synthetic: overnight-plugged dischargeable power",
            "v2g_energy": "synthetic: battery-energy boundaries",
            "lcos_reference": "approximate published lifetime-cost projections "
                              "for storage technologies; user-replaceable",
        })


def _pool_total(pool: List[AvailabilityProfile]) -> AvailabilityProfile:
    """Sum of the pool's profiles; every asset must share the first's grid."""
    first = pool[0].series
    total = first.values.copy()
    for prof in pool[1:]:
        s = prof.series
        if (s.start, s.interval_seconds, len(s)) != (first.start, first.interval_seconds,
                                                     len(first)):
            raise ValueFactorError(f"asset {prof.asset_id!r} is not on the first asset's grid")
        total += s.values
    return AvailabilityProfile(pool[0].kind, first.with_values(total), asset_id="pool-total")


def profile_value_factors(price: TimeSeries, ev_pool: List[AvailabilityProfile],
                          hp_pool: List[AvailabilityProfile], v2g_power: AvailabilityProfile,
                          v2g_energy: AvailabilityProfile) -> Dict[str, float]:
    """Value factor per ValueFactorTable field. The two heat-pump schemes share
    one factor: their uncontrolled demand profile is the same."""
    vf_power, vf_energy = v2g_value_factors(price, v2g_power, v2g_energy)
    factors = {"v2g_power": vf_power, "v2g_energy": vf_energy}
    for scheme, pool in (("smart_charging", ev_pool), ("heat_pump", hp_pool)):
        price_pool, total, _ = align(price, _pool_total(pool))
        factors[scheme] = value_factor(price_pool, total.series)
    return factors


def bundle_value_factors(bundle: DataBundle):
    """Value factors of a data bundle: (ValueFactorTable, dict of its fields)."""
    details = profile_value_factors(bundle.price, bundle.ev_charging_pool, bundle.heating_pool,
                                    bundle.v2g_power, bundle.v2g_energy)
    return ValueFactorTable(**details), details
