"""Bundled datasets and file loaders.

Everything needed to run the full pipeline out of the box: a synthetic
electricity price series, synthetic availability profiles for each scheme,
and the storage-cost reference table. The national datasets behind the
published case study (charging sessions, heat-pump monitoring, half-hourly
market prices) are not redistributable; the synthetic stand-ins reproduce
their qualitative daily shapes — evening-peaked EV charging, morning and
evening heating peaks, overnight vehicle plug-in — and are deterministic
for a fixed seed.

The bundled dataset is BUNDLED_DAYS days of hourly series, with
BUNDLED_EV_ASSETS vehicles and BUNDLED_HP_ASSETS dwellings, drawn with
BUNDLE_SEED; the generators take these as their defaults. They draw from
lcodr's own Philox kernel (`model.philox_uniforms`), one stream per
(role, index, 0) key: the price (0, 0, 0), EV asset a (1, a, 0),
heat-pump asset a (2, a, 0) and the V2G fleet (3, 0, 0). A uniform value
is an affine map of its word and a normal is Phi^-1 of its own word
(`model.normal_quantiles`), and the daily and seasonal shapes take
math.exp and math.cos, so the bundle has the same bits on every CPU and
loads no numpy.random. BUNDLE_RNG_SCHEME names this scheme.
`bundle_sources` builds each input of the bundled dataset on its own, a
pool as an iterator of its profiles, under the name of its CLI flag dest;
`default_bundle` is made from it. So `--compute-vf` without files streams
each synthetic pool into its total, one asset at a time, without holding
the 260 asset profiles at once.

CSV layouts:
  single series      timestamp,value
  energy boundaries  timestamp,lower,upper
  profile pool       asset_id,timestamp,value         (long format)
  storage reference  application,technology,lcos_usd_per_mwh
Timestamps are ISO 8601; naive timestamps are taken as UTC. Values carry
no unit: a price is taken as read (the bundled one in $/MWh), pools and
V2G power in kW, energy boundaries in kWh.

Files are read once, in blocks of about 256 KiB cut after a line end, and
each block's columns are parsed as it is read (a line longer than a block
is read whole). Each block's timestamps go through a running grid check
per asset (_Grids; a series is a pool of one asset) and are dropped with
the block. A series file's value blocks are joined into its arrays; a
pool file's values are kept per block, sorted by asset, and at the end
each asset's slices of the blocks are joined. So a load holds one block's
strings, the output values and, for a pool, two numbers per asset in each
block until its assets are joined, however the assets are laid out in the
file.
A block is split on its commas and LF line ends; from the first block
holding a quote, a CR or lines of differing field counts on, the rest of
the file goes to csv.reader. A UTF-8 byte-order mark at the start of a
file is dropped; a U+FEFF anywhere later is data.
A file of more than two blocks is parsed in two processes where this
process may fork (_split_offset): a forked child parses the blocks after
the first LF at or after the middle while the parent reads the rest
(_forked_half, _column_blocks). The child stops before the first block
that would go to csv.reader, has a short record or fails to parse, and
the parent reads on from there, so the results and the errors with their
rows are those of the serial read. A quoted or CRLF file gains nothing:
from its first such block on, it goes to csv.reader in the parent.
Smaller files are read serially, and so is every file in a process that
imported numpy before lcodr: OpenBLAS's worker threads run there (unless
OPENBLAS_NUM_THREADS=1 was set), and a process with threads never forks.
A block's asset codes are numbered in the block (_parse_codes).
Each file loader takes an optional `digest` (a hashlib object): a read
that finishes hashes the whole file into it in one pass from its first
byte, once the blocks are parsed. A negative availability value, or an
upper energy boundary below the lower one, is a DataError on its row.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import pickle
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import cache, partial
from importlib import resources
from typing import Callable, Collection, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .model import (CSV_UNSAFE, LcodrError, SchemeKind, TimeSeries, normal_quantiles,
                    philox_uniforms)
from .valuefactor import AvailabilityProfile, ValueFactorError, check_pool_grid, profile_factor


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
_BLOCK_BYTES = 1 << 18
#: Every byte but the four that csv.reader treats specially.
_PLAIN_BYTES = bytes(sorted(set(range(256)) - set(b',\n\r"')))


def _parse_timestamps(column: List[str], name: str, path: str, row: int = 2,
                      parsed: Optional[dict] = None) -> np.ndarray:
    """Microseconds since the epoch of each ISO 8601 timestamp of a column
    whose first text is on file row `row`; naive timestamps are UTC. Each
    distinct text is parsed once into `parsed` (shared by a file's blocks),
    in first-occurrence order, so the first text that fails is on the first
    bad row. A block whose texts are all known is looked up in one pass."""
    parsed = {} if parsed is None else parsed
    try:
        return np.fromiter(map(parsed.__getitem__, column), np.int64, len(column))
    except KeyError:
        pass
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


def _parse_codes(column: List[str], name: str, path: str, row: int):
    """(the code of each text of a column, the column's distinct texts):
    the codes number the distinct texts in first-occurrence order."""
    codes = {text: code for code, text in enumerate(dict.fromkeys(column))}
    return np.fromiter(map(codes.__getitem__, column), np.intp, len(column)), list(codes)


def _blocks(fh, split: int = 0):
    """(bytes, text) of each block of the binary file fh from where it stands:
    about _BLOCK_BYTES, cut after the last LF or CR (a longer line is read
    whole). A cut between the CR and LF of a CRLF is exact, since a block
    with a CR goes to csv.reader. A read that would cross file byte `split`
    ends there, so a block ends there too when the byte before it is a LF.
    A read from byte 0 decodes its first block as utf-8-sig, dropping a
    byte-order mark from the text (not from the file's digest)."""
    pieces, encoding = [], "utf-8" if fh.tell() else "utf-8-sig"
    while raw := fh.read(min(split - fh.tell(), _BLOCK_BYTES) if fh.tell() < split
                         else _BLOCK_BYTES):
        cut = max(raw.rfind(b"\n"), raw.rfind(b"\r")) + 1
        if cut:
            block = b"".join(pieces + [raw[:cut]])
            pieces = [raw[cut:]]
            yield block, block.decode(encoding)
            encoding = "utf-8"
        else:
            pieces.append(raw)
    block = b"".join(pieces)
    if block:
        yield block, block.decode(encoding)


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
    same n >= 2 fields and the block has no quote, no CR and no line longer
    than csv's field size limit, so that csv.reader would read the same
    records. Otherwise None."""
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


def _parse_block(table, n: int, index: List[int], columns, path: str, row: int):
    """(data rows, parsed columns) of a block's table (_columns) whose first
    data row is file row `row`: each (name, column_parser) pair's texts
    parsed by column_parser(texts, name, path, row) (None: the strings).
    Raises the error of the block's first bad row, within a row the
    leftmost column's; a short record is an error on its row."""
    texts, short = _columns(table, n, index)
    parsed, errors = [], []
    for (name, parse), column in zip(columns, texts):
        try:
            parsed.append(column if parse is None else parse(column, name, path, row))
        except DataError as exc:
            errors.append(exc)
    if short is not None:
        errors.append(DataError(f"missing field {columns[short][0]!r}", path,
                                row + len(texts[0])))
    if errors:
        raise min(errors, key=lambda e: e.row)
    return len(texts[0]), parsed


def _split_offset(fh) -> int:
    """The file byte at which a forked child (_forked_half) takes over the
    file of fh from the parent: the one after the first LF at or after the
    middle of the file. 0, for none, when the file is at most two blocks
    long or has no such LF before its last byte, or when this process cannot
    fork a child (no os.fork or os.memfd_create) or must not (it runs a
    second thread, or /proc/self/task, which shows that, is missing)."""
    size = os.fstat(fh.fileno()).st_size
    if size <= 2 * _BLOCK_BYTES or not (hasattr(os, "fork") and hasattr(os, "memfd_create")):
        return 0
    try:
        if len(os.listdir("/proc/self/task")) > 1:
            return 0
    except OSError:
        return 0
    fh.seek(size // 2)
    split = size // 2 + len(fh.readline())
    fh.seek(0)
    return split if split < size else 0


def _parse_half(fh, start: int, columns, index: List[int], path: str, out: int) -> None:
    """The work of a _forked_half child: read the file of fh (through a file
    description of its own, as fh's offset is the parent's) from byte
    `start` on, block by block, and write each block's (bytes, data rows,
    parsed columns) to the file descriptor `out`, one pickle each. Stop
    before the first block that _split cannot model or that fails to decode
    or to parse (_parse_block, which takes a short record as an error)."""
    with open(f"/proc/self/fd/{fh.fileno()}", "rb") as own, \
            open(out, "wb", closefd=False) as sink:
        own.seek(start)
        try:
            for raw, text in _blocks(own):
                table = _split(raw, text)
                if table is None:
                    return
                pickle.dump((len(raw), *_parse_block(*table, index, columns, path, 2)), sink,
                            pickle.HIGHEST_PROTOCOL)
        except (DataError, UnicodeDecodeError):
            return


def _forked_half(fh, start: int, columns, index: List[int], path: str):
    """A forked child that parses a file from byte `start`, just after a LF,
    to its end (_parse_half) while the parent reads the bytes before it.
    The first next() forks it; the blocks that follow, each (bytes, data
    rows, parsed columns), are taken once the child has exited. They are
    the ones the serial reader would read without an error and without
    csv.reader, so the parent reads the rest itself, from the end of the
    child's last block: the serial reader gives every error, its row, and
    every record that csv.reader reads. Each block goes through an
    anonymous file (os.memfd_create), not a pipe, so that the child never
    waits for the parent. A child that fails or cannot be forked gives no
    blocks. Closing the generator kills and reaps a child not yet waited
    for, and closes the file."""
    out = pid = None
    try:
        try:
            out = os.memfd_create("lcodr-csv")
            pid = os.fork()
        except OSError:
            pass
        if pid == 0:
            status = 1
            try:
                _parse_half(fh, start, columns, index, path, out)
                status = 0
            finally:
                os._exit(status)
        yield
        if pid is None:
            return
        try:
            _, status = os.waitpid(pid, 0)
        except ChildProcessError:   # reaped elsewhere, as when SIGCHLD is ignored
            status = -1
        pid = None
        if status != 0:
            return
        with open(out, "rb", closefd=False) as src:
            src.seek(0)
            while True:
                try:
                    block = pickle.load(src)
                except EOFError:
                    return
                yield block
    finally:
        if pid is not None:
            import signal
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        if out is not None:
            os.close(out)


def _column_blocks(path: str, columns, digest=None):
    """Read the CSV file at path one block of _BLOCK_BYTES at a time, and
    yield each block's (file row of its first data row, columns): each
    (name, column_parser) pair's texts of the block parsed by
    column_parser(texts, name, path, row of texts[0]) (None: the strings).
    Only one block's strings are held at a time. A read that finishes
    hashes the file into digest, when given, in one pass from its first
    byte.

    Rows are numbered as csv.DictReader yields them: header row 1, blank
    lines skipped. A repeated header name means its last occurrence; extra
    trailing fields are ignored; a short row ends the read. The first bad row
    is reported, within a row the leftmost column. A block with an error is
    not yielded, so an earlier block's error wins.

    A file that _split_offset splits is read in two processes: once the
    header is read, a forked child (_forked_half) parses the blocks from the
    split on, while this process reads up to the split. If it gets there on
    the _split path, it takes the child's blocks and reads on from their
    end; else it kills the child and reads on from where it is. So the
    blocks, rows and errors are those of the serial read."""
    names = [name for name, _ in columns]
    header, rows, half = None, 0, None   # data rows read so far
    try:
        with open(path, "rb") as fh:
            split = _split_offset(fh)
            for table, n in _tables(_blocks(fh, split)):
                if header is None:
                    if not table:
                        continue
                    header, table = (table[:n], table[n:]) if n else (table[0], table[1:])
                    for name in names:
                        if name not in header:
                            raise MissingColumn(f"missing column {name!r} (found {header})",
                                                path, 1)
                    index = [len(header) - 1 - header[::-1].index(name) for name in names]
                    if n and split:
                        half = _forked_half(fh, split, columns, index, path)
                        next(half)
                count, parsed = _parse_block(table, n, index, columns, path, rows + 2)
                yield rows + 2, parsed
                rows += count
                if half is not None and (not n or fh.tell() == split):
                    for size, count, parsed in half if n else ():   # on the _split path
                        yield rows + 2, parsed
                        rows += count
                        fh.seek(size, os.SEEK_CUR)
                    half.close()   # reaped, or killed as the parent left the _split path
                    half = None
            if header is None:
                raise MissingColumn(f"missing column {names[0]!r} (found [])", path, 1)
            if not rows:
                raise DataError("file has a header but no data rows", path)
            fh.seek(0)
            while digest is not None and (raw := fh.read(_BLOCK_BYTES)):
                digest.update(raw)
    except FileNotFoundError:
        raise DataError("file not found", path) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"unreadable file ({exc})", path) from None
    except csv.Error as exc:
        raise DataError(f"unreadable CSV ({exc})", path, rows + 2) from None
    finally:
        if half is not None:
            half.close()


def _read_columns(path: str, columns, digest=None) -> list:
    """Each column of _column_blocks over the whole file, its blocks' parts
    joined: a list of strings for a column without a parser, else an array."""
    parts = zip(*(parsed for _, parsed in _column_blocks(path, columns, digest)))
    return [list(itertools.chain.from_iterable(part)) if parse is None else np.concatenate(part)
            for (_, parse), part in zip(columns, parts)]


#: What _Grids keeps per asset code. A row of 0 means none yet.
_GRID_STATE = np.dtype([
    ("count", np.int64), ("first_row", np.int64), ("first_us", np.int64),
    ("last_us", np.int64), ("spacing", np.float64),
    ("step_row", np.int64), ("step", np.float64),           # first non-increasing step
    ("gap_row", np.int64), ("gap", np.float64),             # first irregular spacing
    ("negative_row", np.int64), ("negative", np.float64)])  # first negative value


class _Grids:
    """The grid check of a file's assets, run block by block: each asset's
    timestamps must strictly increase at an even spacing. Per asset code it
    keeps its row count, first row, first and last timestamp (microseconds
    since the epoch) and first spacing, and the first non-increasing step,
    irregular spacing and negative value with their file rows. A block's
    rows are taken in asset order, so an asset's steps are differences of
    adjacent rows and, at its first row in the block, the step from its last
    timestamp so far."""

    def __init__(self, path: str):
        self.path = path
        self.state = np.zeros(0, _GRID_STATE)

    def add(self, row: int, codes: np.ndarray, us: np.ndarray, values: np.ndarray):
        """Take in a block whose first data row is file row `row`: the asset
        code, timestamp and value of each row. Returns the codes it holds, in
        order, where each one's rows begin and the end, and its values sorted
        by asset code, stably."""
        order = np.argsort(codes, kind="stable")
        codes, us, values, rows = codes[order], us[order], values[order], order + row
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
        held, bounds = codes[starts], np.append(starts, len(codes))
        if held.size and held[-1] >= len(self.state):
            self.state = np.concatenate([self.state,
                                         np.zeros(held[-1] + 1 - len(self.state), _GRID_STATE)])
        s = self.state
        seen = s["count"][held]
        new = seen == 0
        s["first_row"][held[new]] = rows[starts[new]]
        s["first_us"][held[new]] = us[starts[new]]
        delta = np.diff(us, prepend=0)
        delta[starts] = us[starts] - s["last_us"][held]
        d = delta / 1e6   # seconds from the asset's previous row; NaN at its first
        d[starts[new]] = np.nan
        second = starts + new   # the asset's second row, when in this block
        first = (seen < 2) & (second < bounds[1:])
        s["spacing"][held[first]] = d[second[first]]
        self._first("step", d <= 0, codes, rows, d)
        self._first("gap", np.abs(d - s["spacing"][codes]) > 1e-6, codes, rows, d)
        self._first("negative", values < 0, codes, rows, values)
        s["count"][held] += np.diff(bounds)
        s["last_us"][held] = us[bounds[1:] - 1]
        return held, bounds, values

    def _first(self, name: str, mask, codes, rows, values) -> None:
        """For each code with no `name` yet, keep the row and value of its
        first row where mask holds."""
        at = np.flatnonzero(mask)
        code, first = np.unique(codes[at], return_index=True)
        at, new = at[first], self.state[name + "_row"][code] == 0
        self.state[name + "_row"][code[new]] = rows[at[new]]
        self.state[name][code[new]] = values[at[new]]

    def check(self, code: int, what: str, nonnegative: bool):
        """(start, spacing in seconds) of an asset code's grid. Raises on its
        row count, then its first non-increasing step, then its first
        irregular spacing, then, if nonnegative, its first negative value."""
        s, path = self.state[code], self.path
        if s["count"] < 2:
            raise DataError(f"{what} needs at least 2 data rows", path, int(s["first_row"]))
        if s["step_row"]:
            raise NonMonotonicTimestamps(f"timestamp does not increase (delta {s['step']:.0f} s)",
                                         path, int(s["step_row"]))
        if s["gap_row"]:
            raise IrregularSpacing(f"spacing {s['gap']:.0f} s differs from first spacing "
                                   f"{s['spacing']:.0f} s", path, int(s["gap_row"]))
        if nonnegative and s["negative_row"]:
            raise DataError(f"availability value {float(s['negative'])!r} is below 0",
                            path, int(s["negative_row"]))
        return _EPOCH + timedelta(microseconds=int(s["first_us"])), float(s["spacing"])


def _read_series(path: str, value_columns: Tuple[str, ...], digest,
                 nonnegative: bool = False) -> List[TimeSeries]:
    """One TimeSeries per value column of a `timestamp,<value columns>` CSV,
    checked as a one-asset pool (_Grids) whose values are the first value
    column's; `nonnegative` checks them too."""
    grids, parts = _Grids(path), []
    for row, (us, *values) in _column_blocks(
            path, [("timestamp", partial(_parse_timestamps, parsed={}))]
            + [(name, _parse_numbers) for name in value_columns], digest=digest):
        grids.add(row, np.zeros(len(us), np.intp), us, values[0])
        parts.append(values)
    start, interval = grids.check(0, "a series", nonnegative)
    return [TimeSeries(start, interval, np.concatenate(v)) for v in zip(*parts)]


def load_timeseries_csv(path: str, *, digest=None) -> TimeSeries:
    """Load a `timestamp,value` CSV into a validated TimeSeries."""
    return _read_series(path, ("value",), digest)[0]


def load_power_boundary_csv(path: str, *, digest=None) -> AvailabilityProfile:
    """Load a `timestamp,value` CSV of dischargeable power (values >= 0) into
    a V2G power-boundary profile."""
    return AvailabilityProfile(_read_series(path, ("value",), digest, nonnegative=True)[0])


def load_boundary_csv(path: str, *, digest=None) -> AvailabilityProfile:
    """Load a `timestamp,lower,upper` CSV into an energy-boundary profile;
    upper may not fall below lower (by more than 1e-9)."""
    lower, upper = _read_series(path, ("lower", "upper"), digest)
    bad = np.flatnonzero(upper.values < lower.values - 1e-9)
    if bad.size:
        raise DataError(f"upper energy boundary {float(upper.values[bad[0]])!r} below lower "
                        f"boundary {float(lower.values[bad[0]])!r}", path, int(bad[0]) + 2)
    return AvailabilityProfile(lower, upper=upper)


def load_profile_pool_csv(path: str, *, digest=None) -> List[AvailabilityProfile]:
    """Load a long-format `asset_id,timestamp,value` CSV into one profile
    per asset. Assets appear in first-occurrence order; each asset's rows
    must form a valid grid on its own, with values >= 0.

    The file is taken block by block (_column_blocks): each block goes
    through the running grid check (_Grids), and only its values, sorted by
    asset, stably, so in file order within an asset, are kept, with the
    asset codes the block holds and where each one's values begin; the
    block's strings and timestamps are dropped. At the end each asset's
    slices of the blocks that hold it are joined, and a block is released
    once its last asset is joined. So a load holds one block's strings plus
    one number per row and two per asset in each block, whether the file is
    grouped by asset or ordered by time. Every row error of the file comes
    first; then, asset by asset, its row count, grid and values."""
    codes: Dict[str, int] = {}   # the file's asset codes, in first-occurrence order
    grids = _Grids(path)
    held, bounds, blocks = [], [], []   # per block: the codes it holds and -1,
    # where each one's values begin and the end, and its values sorted by asset
    for row, ((block_codes, ids), us, values) in _column_blocks(
            path, [("asset_id", _parse_codes),
                   ("timestamp", partial(_parse_timestamps, parsed={})),
                   ("value", _parse_numbers)], digest=digest):
        file_codes = np.fromiter((codes.setdefault(i, len(codes)) for i in ids), np.intp, len(ids))
        block_held, block_bounds, values = grids.add(row, file_codes[block_codes], us, values)
        held.append(np.append(block_held, -1))
        bounds.append(block_bounds)
        blocks.append(values)
    # Assets are joined in code order, which takes each block's assets front
    # to back: at[b] indexes block b's next asset in held and bounds.
    at = np.cumsum([0] + [len(h) for h in held[:-1]])
    held, bounds = np.concatenate(held), np.concatenate(bounds)
    profiles = []
    for code, asset_id in enumerate(codes):
        start, interval = grids.check(code, f"asset {asset_id!r}", nonnegative=True)
        hits = np.flatnonzero(held[at] == code)
        values = np.concatenate([blocks[b][lo:hi] for b, lo, hi in zip(
            hits.tolist(), bounds[at[hits]].tolist(), bounds[at[hits] + 1].tolist())])
        at[hits] += 1
        for b in hits[held[at[hits]] < 0].tolist():
            blocks[b] = None   # its last asset is joined
        profiles.append(AvailabilityProfile(TimeSeries(start, interval, values),
                                            asset_id=asset_id))
    return profiles


@dataclass(frozen=True)
class LcosEntry:
    """One storage-technology cost reference for one application, $/MWh."""

    application: str
    technology: str
    lcos_usd_per_mwh: float


def load_lcos_reference(path: Optional[str] = None, *,
                        applications: Optional[Collection[str]] = None,
                        digest=None) -> List[LcosEntry]:
    """Load the storage-cost reference table; None loads the bundled file.

    The bundled values approximate published lifetime-cost projections for
    mature storage technologies and are user-replaceable. A name may not
    be empty after stripping or hold a CSV_UNSAFE character, a technology
    may not be named after a scheme, a cost may not be below 0, and an
    (application, technology) pair may not repeat. Given `applications`, a
    row of a file at `path` may name no other application; the bundled
    table is not checked, as it covers the bundled applications and a
    configuration may drop some.
    """
    if path is None:
        with resources.as_file(resources.files("lcodr") / "lcos_reference.csv") as bundled:
            return load_lcos_reference(str(bundled), digest=digest)
    apps, techs, costs = _read_columns(path, [("application", None), ("technology", None),
                                              ("lcos_usd_per_mwh", _parse_numbers)], digest)
    entries = [LcosEntry(a.strip(), t.strip(), c)
               for a, t, c in zip(apps, techs, costs.tolist())]
    # a technology is labelled by its name in cheapest_probability.csv, next
    # to the schemes: two equal labels of one application would merge
    schemes = {kind.value for kind in SchemeKind}
    seen = set()
    for row, e in enumerate(entries, start=2):
        if not (e.application and e.technology):   # an empty cell reads as missing
            raise DataError("a name is empty", path, row)
        if CSV_UNSAFE.intersection(e.application + e.technology):
            raise DataError("a name holds a comma, a double quote or a line break", path, row)
        if e.technology in schemes:
            raise DataError(f"technology {e.technology!r} is named after a scheme", path, row)
        if e.lcos_usd_per_mwh < 0:
            raise DataError(f"lcos_usd_per_mwh {e.lcos_usd_per_mwh!r} is below 0", path, row)
        if applications is not None and e.application not in applications:
            raise DataError(f"application {e.application!r} is not configured", path, row)
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
#: Days of the bundled hourly series.
BUNDLED_DAYS = 365


#: Recorded as the data hash of every input taken from the bundle, so that
#: it keys the run ids of `vf` and `mc`: a change to the draws changes it.
BUNDLE_RNG_SCHEME = "philox4x64-blake2b-as241-v1"

#: Assets of a pool whose normals are mapped at once. The whole EV pool at
#: once (200 x 368 levels) raised the peak resident set of
#: `mc --samples 1000 --compute-vf` from 33.1 to 36.2 MiB.
_NORMAL_ASSETS = 32


def _normals(words: np.ndarray) -> np.ndarray:
    """A standard normal for each uniform word: Phi^-1 of the word. The word
    0.0 has no finite quantile; it is taken at 2**-54, the middle of the
    interval [0, 2**-53) it stands for. Every other word lies in
    [2**-53, 1 - 2**-53], so every normal is finite, within about +/-8.3."""
    return normal_quantiles(np.maximum(words, 2.0 ** -54))


def _draws(seed: int, role: int, n_streams: int, n_words: int) -> Iterator[tuple]:
    """(uniform words, their normals) of each stream (role, index, 0), for
    index 0 .. n_streams - 1: words 0 .. n_words - 1, one kernel call for
    all of them. A value drawn uniform on [lo, hi) is lo + (hi - lo) * u
    of its word, and one drawn normal the normal of its own word."""
    words = philox_uniforms(seed, [(role, index, 0) for index in range(n_streams)], 0, n_words)
    for i in range(0, n_streams, _NORMAL_ASSETS):
        block = words[i:i + _NORMAL_ASSETS]
        yield from zip(block, _normals(block))


def _daily_gauss(center: float, width: float) -> np.ndarray:
    """Gaussian bump on the 24-hour circle, at hours 0 .. 23. The exponential
    is math.exp, as numpy's np.exp gives other bits on other CPUs."""
    d = np.abs(np.arange(24.0) - center)
    t = np.minimum(d, 24.0 - d) / width
    return np.fromiter(map(math.exp, (-0.5 * t * t).tolist()), float, 24)


def _seasonal(days: int, amplitude: float) -> np.ndarray:
    """1 + amplitude * cos(2 pi (day - 15) / 365.25) at each hour, highest in
    mid-January. math.cos, element by element: numpy does not promise
    np.cos the same bits on every CPU."""
    angle = 2.0 * np.pi * (np.arange(days * 24) / 24.0 - 15.0) / 365.25
    return 1.0 + amplitude * np.fromiter(map(math.cos, angle.tolist()), float, len(angle))


def synthetic_price(days: int = BUNDLED_DAYS, seed: int = 0) -> TimeSeries:
    """Hourly electricity price, $/MWh, with morning and evening peaks, an
    overnight trough, mild seasonality and seeded noise; mean normalized to
    exactly 50."""
    shape = (1.0
             + 0.35 * _daily_gauss(8.0, 1.6)
             + 0.55 * _daily_gauss(18.5, 2.0)
             - 0.30 * _daily_gauss(3.5, 2.5))
    _, normals = next(_draws(seed, 0, 1, days * 24))
    values = np.clip(np.tile(shape, days) * _seasonal(days, 0.15) * (1.0 + 0.08 * normals),
                     0.05, None)
    values *= 50.0 / values.mean()
    return TimeSeries(_START, _HOUR, values)


#: Vehicles in the bundled EV charging pool.
BUNDLED_EV_ASSETS = 200
#: Dwellings in the bundled heat-pump pool.
BUNDLED_HP_ASSETS = 60


def synthetic_ev_charging_profiles(n_assets: int = BUNDLED_EV_ASSETS, days: int = BUNDLED_DAYS,
                                   seed: int = 0) -> Iterator[AvailabilityProfile]:
    """Per-vehicle home-charging load, one vehicle at a time: a single
    evening peak, heterogeneous in timing, width and magnitude, with
    day-to-day noise."""
    for a, (u, z) in enumerate(_draws(seed, 1, n_assets, 3 + days)):
        center = 19.0 + 1.8 * z[0]
        width = 1.2 + 1.6 * u[1]
        magnitude = 0.8 + 1.6 * u[2]   # kW at the peak
        day_noise = np.clip(1.0 + 0.25 * z[3:], 0.0, None)
        values = np.outer(day_noise, magnitude * _daily_gauss(center, width)).ravel()
        yield AvailabilityProfile(TimeSeries(_START, _HOUR, values),
                                  asset_id=f"synthetic-ev-{a:03d}")


def synthetic_ev_charging_pool(n_assets: int = BUNDLED_EV_ASSETS, days: int = BUNDLED_DAYS,
                               seed: int = 0) -> List[AvailabilityProfile]:
    """The profiles of synthetic_ev_charging_profiles, as a list."""
    return list(synthetic_ev_charging_profiles(n_assets, days, seed))


def synthetic_heating_profiles(n_assets: int = BUNDLED_HP_ASSETS, days: int = BUNDLED_DAYS,
                               seed: int = 0) -> Iterator[AvailabilityProfile]:
    """Per-dwelling heat-pump electricity demand, one dwelling at a time:
    morning and evening peaks over a continuous base, amplified in winter."""
    winter = _seasonal(days, 0.75)
    for a, (u, z) in enumerate(_draws(seed, 2, n_assets, 5 + days)):
        morning = 0.8 + 0.4 * u[0]
        evening = 0.9 + 0.5 * u[1]
        base = 0.25 + 0.2 * u[2]       # kW steady floor
        shape = (base
                 + morning * _daily_gauss(7.0 + 0.5 * z[3], 1.5)
                 + evening * _daily_gauss(19.0 + 0.5 * z[4], 2.0))
        day_noise = np.clip(1.0 + 0.15 * z[5:], 0.0, None)
        values = np.outer(day_noise, shape).ravel() * winter
        yield AvailabilityProfile(TimeSeries(_START, _HOUR, values),
                                  asset_id=f"synthetic-hp-{a:03d}")


def synthetic_heating_pool(n_assets: int = BUNDLED_HP_ASSETS, days: int = BUNDLED_DAYS,
                           seed: int = 0) -> List[AvailabilityProfile]:
    """The profiles of synthetic_heating_profiles, as a list."""
    return list(synthetic_heating_profiles(n_assets, days, seed))


def synthetic_v2g_profiles(days: int = BUNDLED_DAYS, seed: int = 0):
    """Aggregate V2G availability: dischargeable power and battery-energy
    boundaries for an overnight-plugged fleet, per vehicle with a 6.8 kW
    charger and a 42 kWh dischargeable battery band.

    Plug-in probability is high from late afternoon through the morning
    commute and low at midday, so availability overlaps the evening price
    peak but also the cheap night hours — the value factors come out near
    unity. Returns (power profile, energy-boundaries profile).
    """
    _, normals = next(_draws(seed, 3, 1, days * 24))
    plugged = np.tile(0.34
                      + 0.52 * _daily_gauss(2.0, 5.5)
                      + 0.28 * _daily_gauss(19.5, 2.5), days)
    plugged = np.clip(plugged * (1.0 + 0.05 * normals), 0.05, 1.0)
    # Not all plugged-in vehicles can discharge: some are replacing driving
    # energy, concentrated right after the evening arrival.
    charging = np.tile(0.30 * _daily_gauss(18.5, 1.5), days)
    discharge_power = 6.8 * np.clip(plugged - charging, 0.0, None)
    power = AvailabilityProfile(TimeSeries(_START, _HOUR, discharge_power),
                                asset_id="synthetic-v2g-power")

    # Energy band: plugged-in share of the dischargeable battery band; the
    # band narrows while driving energy is being replaced.
    upper = 42.0 * plugged
    lower = 42.0 * np.clip(charging, 0.0, None) * plugged
    energy = AvailabilityProfile(TimeSeries(_START, _HOUR, lower),
                                 upper=TimeSeries(_START, _HOUR, upper),
                                 asset_id="synthetic-v2g-energy")
    return power, energy


# ---------------------------------------------------------------------------
# The bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataBundle:
    """The price and availability profiles value factors are computed from."""

    price: TimeSeries
    ev_charging_pool: List[AvailabilityProfile]
    heating_pool: List[AvailabilityProfile]
    v2g_power: AvailabilityProfile
    v2g_energy: AvailabilityProfile


#: Seed of the bundled dataset, for default_bundle and for the CLI's inputs
#: without a file.
BUNDLE_SEED = 2024


def bundle_sources(seed: int = BUNDLE_SEED,
                   days: int = BUNDLED_DAYS) -> Dict[str, Callable[[], object]]:
    """A builder of each profile input of the bundled dataset, by its CLI flag
    dest, in DataBundle field order: the price and the V2G profiles as values
    (the V2G pair built once, on first use), each pool as an iterator that
    builds its profiles one at a time."""
    v2g = cache(lambda: synthetic_v2g_profiles(days=days, seed=seed))
    return {
        "price": lambda: synthetic_price(days=days, seed=seed),
        "ev_pool": lambda: synthetic_ev_charging_profiles(days=days, seed=seed),
        "hp_pool": lambda: synthetic_heating_profiles(days=days, seed=seed),
        "v2g_power": lambda: v2g()[0],
        "v2g_boundaries": lambda: v2g()[1],
    }


def default_bundle(seed: int = BUNDLE_SEED, days: int = BUNDLED_DAYS) -> DataBundle:
    """The deterministic bundled dataset, from bundle_sources with each pool
    made a list. Same seed, same bundle."""
    price, ev_pool, hp_pool, v2g_power, v2g_boundaries = (
        source() for source in bundle_sources(seed, days).values())
    return DataBundle(price, list(ev_pool), list(hp_pool), v2g_power, v2g_boundaries)


def _pool_total(pool: Iterable[AvailabilityProfile]) -> AvailabilityProfile:
    """Sum of the pool's profiles, added in order; every asset must share the
    first's grid (check_pool_grid). Only the first profile and the running
    total are kept, so a pool given as an iterator is never held whole. A
    pool with no profile is a ValueFactorError."""
    profiles = iter(pool)
    first = next(profiles, None)
    if first is None:
        raise ValueFactorError("pool has no assets")
    total = first.series.values.copy()
    for prof in profiles:
        check_pool_grid(first.series, prof)
        total += prof.series.values
    return AvailabilityProfile(first.series.with_values(total), asset_id="pool-total")


def profile_value_factors(price: TimeSeries, ev_pool: Iterable[AvailabilityProfile],
                          hp_pool: Iterable[AvailabilityProfile], v2g_power: AvailabilityProfile,
                          v2g_boundaries: AvailabilityProfile) -> Dict[str, float]:
    """Value factor per ValueFactorTable field, each pool's from its
    _pool_total. The two heat-pump schemes share one factor: their
    uncontrolled demand profile is the same. A ValueFactorError names in
    `source` the parameter of the profile it arose in."""
    factors = {}
    for scheme, source, profile in (
            ("v2g_power", "v2g_power", lambda: v2g_power),
            ("v2g_energy", "v2g_boundaries", lambda: v2g_boundaries),
            ("smart_charging", "ev_pool", lambda: _pool_total(ev_pool)),
            ("heat_pump", "hp_pool", lambda: _pool_total(hp_pool))):
        try:
            factors[scheme] = profile_factor(price, profile())
        except ValueFactorError as exc:
            exc.source = exc.source or source
            raise
    return factors
