"""Frozen reference for reading CSV columns: the whole-file csv.reader loop.

A copy of `lcodr.data._read_columns` and its column parsers as they were
before the reader went block by block: the file is opened as text with
newline="", every record goes through one csv.reader, each wanted column
is kept as one list of strings for the whole file, and each list is parsed
whole at the end. tests/test_csv_reader.py compares the block reader with
this copy on generated files, so the reader is never checked against
itself.

`load_profile_pool_csv` is, on top of that reader, a copy of the pool
loader as it was before it went block by block: whole columns, one stable
argsort of the asset codes, and a gather of each asset's rows, whose grid
and then values are checked asset by asset (a negative value is reported
on its row, which the loader began to do when it went block by block).
tests/test_csv_reader.py compares the streamed pool loader with it.

Keep it frozen: a change to the row model is made in `src/lcodr/` first,
and here only as a deliberate, reviewed edit of the reference. It imports
nothing from lcodr but the error classes of `lcodr.data`.
"""

from __future__ import annotations

import csv
import io
import math
from datetime import datetime, timedelta, timezone
from typing import List, Optional

import numpy as np

from lcodr.data import (DataError, IrregularSpacing, MissingColumn, NonMonotonicTimestamps,
                        NonNumericValue)

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def parse_timestamps(column: List[str], name: str, path: str) -> np.ndarray:
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


def parse_numbers(column: List[str], name: str, path: str) -> np.ndarray:
    """The finite floats of a column. Only when one fails does the per-row
    _parse_number run, to name the first bad row."""
    try:
        values = np.fromiter(map(float, column), np.float64, len(column))
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    return np.array([_parse_number(t, name, path, r) for r, t in enumerate(column, start=2)])


def read_columns(path: str, columns, text: Optional[str] = None) -> list:
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


def grid(us: np.ndarray, rows: np.ndarray, path: str, what: str):
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


def load_profile_pool_csv(path: str) -> list:
    """(asset id, start, spacing in seconds, values) per asset of a long-format
    `asset_id,timestamp,value` CSV, in first-occurrence order. Every row
    error of the file comes first; then, asset by asset, its grid, then its
    first negative value, on its file row."""
    ids, us, values = read_columns(path, [("asset_id", None), ("timestamp", parse_timestamps),
                                          ("value", parse_numbers)])
    codes = {}
    asset_index = np.fromiter((codes.setdefault(text, len(codes)) for text in ids), np.intp,
                              len(ids))
    order = np.argsort(asset_index, kind="stable")   # each asset's rows, in file order
    profiles = []
    for asset_id, positions in zip(codes, np.split(order, np.cumsum(np.bincount(asset_index)))):
        start, interval = grid(us[positions], positions + 2, path, f"asset {asset_id!r}")
        bad = np.flatnonzero(values[positions] < 0)
        if bad.size:
            raise DataError(f"availability value {float(values[positions[bad[0]]])!r} is below 0",
                            path, int(positions[bad[0]]) + 2)
        profiles.append((asset_id, start, interval, values[positions]))
    return profiles
