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

Files are read once, in blocks of about 1 MiB cut after a line end, and
each block's columns are parsed as it is read, so a load holds one
block's strings plus the output arrays (a line longer than a block is
read whole). A block is split on its commas and LF line ends; from the
first block holding a quote, a CR, a NUL or lines of differing field
counts on, the rest of the file goes to csv.reader. Each file loader
takes an optional `digest` (a hashlib object) that every byte read goes
to.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import partial
from importlib import resources
from typing import Dict, List, Optional, Tuple

import numpy as np

from .model import CSV_UNSAFE, LcodrError, SchemeKind, TimeSeries, ValueFactorTable
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

#: Bytes read from a CSV file at a time. Each block is cut after its last line
#: end, LF or CR, so that it holds whole lines and decodes on its own.
_BLOCK_BYTES = 1 << 20
#: Every byte but the four that csv.reader treats specially and NUL, which
#: csv.reader rejects before Python 3.11.
_PLAIN_BYTES = bytes(sorted(set(range(256)) - set(b',\n\r"\0')))


def _parse_timestamps(column: List[str], name: str, path: str, row: int = 2,
                      parsed: Optional[dict] = None) -> np.ndarray:
    """Microseconds since the epoch of each ISO 8601 timestamp of a column
    whose first text is on file row `row`; naive timestamps are UTC. Each
    distinct text is parsed once into `parsed` (shared by a file's blocks),
    in first-occurrence order, so the first text that fails is on the first
    bad row."""
    parsed = {} if parsed is None else parsed
    for text in dict.fromkeys(column):
        if text in parsed:
            continue
        try:
            ts = datetime.fromisoformat(text.strip())
        except ValueError:
            raise NonNumericValue(f"unparseable timestamp {text!r}", path,
                                  row + column.index(text)) from None
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


def _parse_numbers(column: List[str], name: str, path: str, row: int = 2) -> np.ndarray:
    """The finite floats of a column whose first text is on file row `row`.
    Only when one fails does the per-row _parse_number run, to name the
    first bad row."""
    try:
        values = np.fromiter(map(float, column), np.float64, len(column))
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    return np.array([_parse_number(t, name, path, r) for r, t in enumerate(column, start=row)])


def _parse_codes(column: List[str], name: str, path: str, row: int,
                 codes: dict) -> np.ndarray:
    """The code of each text of a column; `codes` (shared by a file's blocks)
    numbers the distinct texts in first-occurrence order."""
    for text in dict.fromkeys(column):
        codes.setdefault(text, len(codes))
    return np.fromiter(map(codes.__getitem__, column), np.intp, len(column))


def _blocks(fh, digest):
    """(bytes, text) of each block of the binary file fh: about _BLOCK_BYTES,
    cut after the last LF or CR (a longer line is read whole). A cut between
    the CR and LF of a CRLF is exact, since a block with a CR goes to
    csv.reader. Every read also goes to digest, when given."""
    pieces = []
    while raw := fh.read(_BLOCK_BYTES):
        if digest is not None:
            digest.update(raw)
        cut = max(raw.rfind(b"\n"), raw.rfind(b"\r")) + 1
        if cut:
            block = b"".join(pieces + [raw[:cut]])
            pieces = [raw[cut:]]
            yield block, block.decode("utf-8")
        else:
            pieces.append(raw)
    block = b"".join(pieces)
    if block:
        yield block, block.decode("utf-8")


def _lines_within(raw: bytes, limit: int) -> bool:
    """Whether no line of raw is longer than limit bytes."""
    start = 0
    while len(raw) - start > limit:
        end = raw.rfind(b"\n", start, start + limit + 1)
        if end < 0:
            return False
        start = end + 1
    return True


def _split(raw: bytes, text: str):
    """(fields, n) of a block by whole-text splits, when every line has the
    same n >= 2 fields and the block has no quote, no CR, no NUL and no line
    longer than csv's field size limit, so that csv.reader would read the
    same records. Otherwise None."""
    delimiters = raw.translate(None, _PLAIN_BYTES)
    if not raw.endswith(b"\n"):
        delimiters += b"\n"
    n = delimiters.find(b"\n") + 1
    if (n < 2 or delimiters != (b"," * (n - 1) + b"\n") * (len(delimiters) // n)
            or not _lines_within(raw, csv.field_size_limit())):
        return None
    fields = text.replace("\n", ",").split(",")
    if raw.endswith(b"\n"):
        fields.pop()   # the empty text after the last line end
    return fields, n


def _csv_records(blocks):
    """(records, 0) per block from one csv.reader over the blocks' lines: the
    records that end in the block. Before a csv or decoding error is raised,
    the records read ahead of it are yielded."""
    block = 0

    def lines():
        nonlocal block
        for _, text in blocks:
            block += 1
            yield io.StringIO(text, newline="")   # lines as a file opened with newline=""

    reader = csv.reader(itertools.chain.from_iterable(lines()))
    records, ends_in = [], 1
    try:
        for record in reader:
            if block != ends_in:
                yield records, 0
                records, ends_in = [], block
            records.append(record)
    except (csv.Error, UnicodeDecodeError):
        yield records, 0
        raise
    yield records, 0


def _tables(blocks):
    """Each block's records: (fields, n fields per record) by _split, until the
    first block it cannot model; from there the rest of the file goes to
    csv.reader, exactly, since every earlier block ended on a record."""
    for raw, text in blocks:
        table = _split(raw, text)
        if table is None:
            yield from _csv_records(itertools.chain([(raw, text)], blocks))
            return
        yield table


def _columns(table, n: int, index: List[int]):
    """(the texts at each index of the leading full records of a block's
    table, the position in index of the field that the next record lacks,
    or None). A table is (fields, n) or (records, 0); blank records are
    skipped."""
    width = max(index)
    if n:
        if n > width:
            return [table[i::n] for i in index], None
        return [[] for _ in index], (next(k for k, i in enumerate(index) if i >= n)
                                     if table else None)
    records = [record for record in table if record]
    full = next((k for k, record in enumerate(records) if len(record) <= width), len(records))
    short = None
    if full < len(records):
        short = next(k for k, i in enumerate(index) if i >= len(records[full]))
    return [[record[i] for record in records[:full]] for i in index], short


def _read_columns(path: str, columns, text: Optional[str] = None, digest=None) -> list:
    """Read a CSV (the file at path, or text) one block of _BLOCK_BYTES at a
    time, and parse each (name, column_parser) pair's texts of a block as it
    goes, by column_parser(texts, name, path, row of texts[0]) (None: keep
    the strings); return each column's parts joined. Only one block's
    strings are held at a time. Every byte read also goes to digest.

    Rows are numbered as csv.DictReader yields them: header row 1, blank
    lines skipped. A repeated header name means its last occurrence; extra
    trailing fields are ignored; a short row ends the read. The first bad row
    is reported, within a row the leftmost column. The read stops at the
    first block with an error, so an earlier block's error wins."""
    names = [name for name, _ in columns]
    parts: List[list] = [[] for _ in columns]
    header, rows = None, 0   # data rows read so far
    try:
        with (open(path, "rb") if text is None
              else io.BytesIO(text.encode("utf-8"))) as fh:
            for table, n in _tables(_blocks(fh, digest)):
                if header is None:
                    if not table:
                        continue
                    header, table = (table[:n], table[n:]) if n else (table[0], table[1:])
                    for name in names:
                        if name not in header:
                            raise MissingColumn(f"missing column {name!r} (found {header})",
                                                path, 1)
                    index = [len(header) - 1 - header[::-1].index(name) for name in names]
                texts, short = _columns(table, n, index)
                errors = []
                for (name, parse), column, part in zip(columns, texts, parts):
                    try:
                        part.append(column if parse is None
                                    else parse(column, name, path, rows + 2))
                    except DataError as exc:
                        errors.append(exc)
                rows += len(texts[0])
                if short is not None:
                    errors.append(DataError(f"missing field {names[short]!r}", path, rows + 2))
                if errors:
                    raise min(errors, key=lambda e: e.row)
    except FileNotFoundError:
        raise DataError("file not found", path) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"unreadable file ({exc})", path) from None
    except csv.Error as exc:
        raise DataError(f"unreadable CSV ({exc})", path, rows + 2) from None
    if header is None:
        raise MissingColumn(f"missing column {names[0]!r} (found [])", path, 1)
    if not rows:
        raise DataError("file has a header but no data rows", path)
    return [list(itertools.chain.from_iterable(part)) if parse is None else np.concatenate(part)
            for (_, parse), part in zip(columns, parts)]


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


def _read_series(path: str, value_columns: Tuple[str, ...], unit: str,
                 digest) -> List[TimeSeries]:
    """One TimeSeries per value column of a `timestamp,<value columns>` CSV."""
    us, *values = _read_columns(path, [("timestamp", partial(_parse_timestamps, parsed={}))]
                                + [(name, _parse_numbers) for name in value_columns],
                                digest=digest)
    start, interval = _grid(us, np.arange(2, len(us) + 2), path)
    return [TimeSeries(start, interval, v, unit) for v in values]


def load_timeseries_csv(path: str, unit: str = "", *, digest=None) -> TimeSeries:
    """Load a `timestamp,value` CSV into a validated TimeSeries."""
    return _read_series(path, ("value",), unit, digest)[0]


def load_boundary_csv(path: str, unit: str = "kWh", *, digest=None) -> AvailabilityProfile:
    """Load a `timestamp,lower,upper` CSV into an energy-boundary profile."""
    lower, upper = _read_series(path, ("lower", "upper"), unit, digest)
    return AvailabilityProfile(ProfileKind.V2G_ENERGY_BOUNDARIES, lower, upper=upper)


def load_profile_pool_csv(path: str, kind: ProfileKind = ProfileKind.UNIDIRECTIONAL_LOAD,
                          unit: str = "kW", *, digest=None) -> List[AvailabilityProfile]:
    """Load a long-format `asset_id,timestamp,value` CSV into one profile
    per asset. Assets appear in first-occurrence order; each asset's block
    must form a valid grid on its own."""
    codes: Dict[str, int] = {}
    asset_index, us, values = _read_columns(
        path, [("asset_id", partial(_parse_codes, codes=codes)),
               ("timestamp", partial(_parse_timestamps, parsed={})),
               ("value", _parse_numbers)], digest=digest)
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


def load_lcos_reference(path: Optional[str] = None, *, digest=None) -> List[LcosEntry]:
    """Load the storage-cost reference table; None loads the bundled file.

    The bundled values approximate published lifetime-cost projections for
    mature storage technologies and are user-replaceable. A name may not
    hold a CSV_UNSAFE character, a technology may not be named after a
    scheme, and an (application, technology) pair may not repeat.
    """
    text = None
    if path is None:
        text = resources.files("lcodr").joinpath("lcos_reference.csv") \
            .read_text(encoding="utf-8")
        path = "<bundled lcos_reference.csv>"
    apps, techs, costs = _read_columns(path, [("application", None), ("technology", None),
                                              ("lcos_usd_per_mwh", _parse_numbers)], text, digest)
    entries = [LcosEntry(a.strip(), t.strip(), c)
               for a, t, c in zip(apps, techs, costs.tolist())]
    # a technology is labelled by its name in cheapest_probability.csv, next
    # to the schemes: two equal labels of one application would merge
    schemes = {kind.value for kind in SchemeKind}
    seen = set()
    for row, e in enumerate(entries, start=2):
        if CSV_UNSAFE.intersection(e.application + e.technology):
            raise DataError("a name holds a comma, a double quote or a line break", path, row)
        if e.technology in schemes:
            raise DataError(f"technology {e.technology!r} is named after a scheme", path, row)
        if (e.application, e.technology) in seen:
            raise DataError(f"repeated technology {e.technology!r} for {e.application!r}",
                            path, row)
        seen.add((e.application, e.technology))
    return entries


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
