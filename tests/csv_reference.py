"""Frozen reference for reading CSV columns: the whole-file csv.reader loop.

A copy of `lcodr.data._read_columns` and its column parsers as they were
before the reader went block by block: the file is opened as text with
newline="", every record goes through one csv.reader, each wanted column
is kept as one list of strings for the whole file, and each list is parsed
whole at the end. tests/test_csv_reader.py compares the block reader with
this copy on generated files, so the reader is never checked against
itself.

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

from lcodr.data import DataError, MissingColumn, NonNumericValue

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
