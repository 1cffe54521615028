"""The block CSV reader against its frozen reference, tests/csv_reference.py.

Generated whole-file texts are read by `lcodr.data._read_columns` with the
block size patched down to a few bytes, so that records straddle blocks
and both tokenizers (whole-text splits and csv.reader) meet in one file,
and by the whole-file csv.reader copy. Both must give equal arrays, or the
same DataError class, row and message.
"""

import csv
import hashlib
import io
import tempfile
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import csv_reference as reference
from lcodr import data
from lcodr.data import DataError

#: The loaders' layouts: column name -> kind (timestamp, number, id or text).
LAYOUTS = {
    "series": {"timestamp": "timestamp", "value": "number"},
    "boundaries": {"timestamp": "timestamp", "lower": "number", "upper": "number"},
    "pool": {"asset_id": "id", "timestamp": "timestamp", "value": "number"},
    "lcos": {"application": "text", "technology": "text", "lcos_usd_per_mwh": "number"},
}

#: A few good texts per kind, so that most texts repeat across rows and
#: blocks, and a few bad ones, drawn rarely so that most reads get past
#: their first blocks.
GOOD = {
    "timestamp": ["2023-01-01T00:00:00", "2023-01-01T01:00:00", "2023-01-01 02:00+01:00",
                  " 2023-01-01T03:00:00Z ", "2023-01-01"],
    "number": ["1", "2.5", "-3e2", " 4 ", "0", "1_0"],
    "id": ["a", "b", "ev 1", "é"],
    "text": ["Peaker", "lithium_ion", " spaced ", ""],
}
BAD = {
    "timestamp": ["later", "", "2023-13-01T00:00:00"],
    "number": ["nan", "inf", "x", "", "1e400"],
    "id": [""],
    "text": [""],
}
#: Fields that csv.reader reads specially when they are written unquoted, and
#: NUL, which it rejects before Python 3.11.
ODD = st.text(alphabet=',"\r\n\0 a1', max_size=4)


@st.composite
def field(draw, kind, odd):
    """One field as written: mostly a good text of its kind, rarely a bad
    one. With odd, also rarely an odd one, quoted when it must be and
    sometimes when it need not be, and rarely left raw when it must be
    quoted."""
    roll = draw(st.integers(0, 39))
    text = draw(ODD if roll == 0 and odd else
                st.sampled_from(BAD[kind] if roll == 1 else GOOD[kind]))
    needs_quotes = any(c in text for c in ',"\r\n')
    if needs_quotes and draw(st.integers(0, 4)) == 0:
        return text   # written raw: unbalanced quotes and stray line ends
    if needs_quotes or (odd and draw(st.integers(0, 9)) == 0):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def csv_files(draw):
    """(layout, whole-file text): a header with the layout's names in any
    order, sometimes repeated, extra or missing; rows with blank lines,
    short rows and extra fields; in half the files quoted and odd fields;
    LF, CRLF or mixed LF, CRLF and CR line ends, the last one sometimes
    missing; rarely an empty or header-only file."""
    layout = draw(st.sampled_from(sorted(LAYOUTS)))
    kinds = LAYOUTS[layout]
    odd = draw(st.booleans())
    header = list(draw(st.permutations(list(kinds) + draw(
        st.lists(st.sampled_from(list(kinds) + ["extra"]), max_size=2)))))
    if draw(st.integers(0, 19)) == 0:
        header.remove(draw(st.sampled_from(sorted(kinds))))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 16))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")   # blank line
            continue
        record = [draw(field(kinds.get(name, "text"), odd)) for name in header]
        size = len(record) + draw(st.sampled_from([0] * 24 + [-1, -2, 1, 1, 2, 2]))
        record += [draw(field("text", odd)) for _ in range(size - len(record))]
        lines.append(",".join(record[:max(size, 0)]))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "mixed"]))
    ends = [draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"])) if end == "mixed" else end
            for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    text = "".join(line + end for line, end in zip(lines, ends))
    return layout, draw(st.sampled_from([text] * 36 + ["", "\n", ",".join(header),
                                                       ",".join(header) + "\n"]))


def column_specs(layout):
    """(block reader columns, reference columns) of a layout."""
    block = {"timestamp": lambda: partial(data._parse_timestamps, parsed={}),
             "number": lambda: data._parse_numbers,
             "id": lambda: None,
             "text": lambda: None}
    frozen = {"timestamp": reference.parse_timestamps, "number": reference.parse_numbers,
              "id": None, "text": None}
    kinds = LAYOUTS[layout].items()
    return ([(name, block[kind]()) for name, kind in kinds],
            [(name, frozen[kind]) for name, kind in kinds])


def outcome(read):
    try:
        return read()
    except DataError as exc:
        return type(exc), exc.row, str(exc)


def read_both(layout, text, block_bytes, digest=None):
    """(block reader's outcome, the reference's outcome) on text written to
    a file."""
    columns, frozen = column_specs(layout)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "data.csv")
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(data, "_BLOCK_BYTES", block_bytes):
            got = outcome(lambda: data._read_columns(str(path), columns, digest=digest))
        want = outcome(lambda: reference.read_columns(str(path), frozen))
    return got, want


def assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and len(a) == len(b) and (a == b).all()
        else:
            assert a == b


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(csv_files(), st.sampled_from([1, 2, 3, 5, 8, 13, 40, 1 << 20]))
def test_block_reader_equals_the_whole_file_reference(case, block_bytes):
    layout, text = case
    digest = hashlib.sha256()
    got, want = read_both(layout, text, block_bytes, digest)
    assert_same(got, want)
    if not isinstance(got, tuple):   # a read that succeeds has hashed every byte
        assert digest.hexdigest() == hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("text,split", [
    ("a,b\n1,2\n", True),
    ("a,b\n1,2", True),
    ("a,b,c\n1,2\n", False),      # lines of differing field counts
    ("a,b\n\n1,2\n", False),      # a blank line
    ("a\n1\n", False),            # one field per line
    ('a,b\n"1",2\n', False),
    ("a,b\r\n1,2\r\n", False),    # CRLF line ends
    ("a,b\r1,2\r", False),        # lone CR line ends
    ("a,b\n1\0,2\n", False),      # a NUL
    ("a,b\n1,22222\n", False),    # a line longer than the field size limit
])
def test_split_takes_only_blocks_that_csv_reader_reads_the_same(monkeypatch, text, split):
    monkeypatch.setattr(csv, "field_size_limit", lambda: 5)
    table = data._split(text.encode("utf-8"), text)
    assert (table is not None) == split
    if split:
        assert table == (["a", "b", "1", "2"], 2)


def test_blocks_are_cut_after_a_cr_too(monkeypatch):
    monkeypatch.setattr(data, "_BLOCK_BYTES", 4)
    blocks = [raw for raw, _ in data._blocks(io.BytesIO(b"a,b\r1,2\r3,4\r\n5,6"))]
    assert blocks == [b"a,b\r", b"1,2\r", b"3,4\r", b"\n", b"5,6"]


@pytest.mark.parametrize("block_bytes", [1, 4, 1 << 20])
def test_quoted_line_ends_and_cr_records_read_as_the_reference(block_bytes):
    text = ('application,technology,lcos_usd_per_mwh\r"Peak\rer","li,ion\r\n",1\r\n'
            '"multi\nline",x,"2"\rlast,"y""",3')
    got, want = read_both("lcos", text, block_bytes)
    assert_same(got, want)
    assert want[0] == ["Peak\rer", "multi\nline", "last"]
    assert want[1] == ["li,ion\r\n", "x", 'y"']


def test_field_over_the_size_limit_names_its_row():
    text = "timestamp,value,extra\n2023-01-01T00:00:00,1,ok\n2023-01-01T01:00:00,2," \
           + "x" * 40 + "\n"
    previous = csv.field_size_limit(20)
    try:
        got, want = read_both("series", text, 8)
    finally:
        csv.field_size_limit(previous)
    assert got == want
    assert want[1] == 3 and "field larger than field limit (20)" in want[2]


def test_undecodable_bytes_are_an_unreadable_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"timestamp,value\n2023-01-01T00:00:00,1\n\xff,2\n")
    columns, frozen = column_specs("series")
    got = outcome(lambda: data._read_columns(str(path), columns))
    want = outcome(lambda: reference.read_columns(str(path), frozen))
    assert got[:2] == want[:2] == (DataError, None)
    assert got[2].startswith(f"{path}: unreadable file ('utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("bad", [False, True])
@pytest.mark.parametrize("block_bytes", [49, 97, 1 << 20])
def test_later_block_with_known_then_new_then_bad_texts_reads_as_the_reference(bad,
                                                                               block_bytes):
    # 24-byte rows: with 97-byte blocks the header and rows 2-4 come first,
    # then four rows a block
    rows = ["b,2023-01-01T00:00:00,1", "a,2023-01-01T01:00:00,2", "b,2023-01-01T01:00:00,3",
            # known texts, a new id and stamp, then (rows 7-8) a bad stamp and known texts
            "a,2023-01-01T00:00:00,4", "c,2023-01-01T02:00:00,5",
            "a,2023-01-01T01:00:0x,6" if bad else "a,2023-01-01T02:00:00,6",
            "b,2023-01-01T00:00:00,7",
            # every text known
            "c,2023-01-01T01:00:00,8", "a,2023-01-01T00:00:00,9", "b,2023-01-01T02:00:00,1",
            "c,2023-01-01T00:00:00,2"]
    text = "asset_id,timestamp,value\n" + "".join(row + "\n" for row in rows)
    got, want = read_both("pool", text, block_bytes)
    assert_same(got, want)
    if bad:
        assert want[:2] == (data.NonNumericValue, 7)
    else:
        assert want[0] == [row.split(",")[0] for row in rows]


# ---------------------------------------------------------------------------
# The streamed pool loader against the whole-file pool loader
# ---------------------------------------------------------------------------

POOL_VALUES = ["1", "0", "2.5", " 4 ", "1e-3", "-0.0"]
POOL_BAD_VALUES = ["-1", "-2.5", "x", "nan"]


@st.composite
def pool_files(draw):
    """A pool file's text: 1 to 4 assets of 1 to 6 rows, each on an hourly or
    two-hourly grid from its own start, sometimes with one timestamp moved
    off it; values rarely negative or not a number; the assets' rows one
    asset after another or interleaved, each asset's in grid order."""
    assets = draw(st.lists(st.sampled_from(["a", "b", "ev 1", "é"]), min_size=1, max_size=4,
                           unique=True))
    rows = {}
    for asset in assets:
        start, step = draw(st.integers(0, 3)), draw(st.sampled_from([1, 2]))
        hours = [start + step * k for k in range(draw(st.sampled_from([1] + [2, 3, 4, 6] * 4)))]
        if draw(st.integers(0, 5)) == 0:
            hours[draw(st.integers(0, len(hours) - 1))] = draw(st.integers(0, 12))
        rows[asset] = [f"{asset},2023-01-01T{h:02d}:00:00,"
                       + draw(st.sampled_from(POOL_BAD_VALUES if draw(st.integers(0, 29)) == 0
                                              else POOL_VALUES)) for h in hours]
    order = [asset for asset in assets for _ in rows[asset]]
    if draw(st.booleans()):
        order = draw(st.permutations(order))
    taken = {asset: iter(lines) for asset, lines in rows.items()}
    return "".join(line + "\n" for line in
                   ["asset_id,timestamp,value"] + [next(taken[asset]) for asset in order])


POOL = "asset_id,timestamp,value\n"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pool_files(), st.one_of(st.integers(1, 40), st.just(data._BLOCK_BYTES)))
@example(POOL + "a,2023-01-01T00:00:00,1\n", 8)                       # one row
@example(POOL + "a,2023-01-01T00:00:00,1\nb,2023-01-01T00:00:00,2\n"
         "a,2023-01-01T01:00:00,3\nb,2023-01-01T01:00:00,4\n", 5)    # interleaved
@example(POOL + "a,2023-01-01T00:00:00,1\na,2023-01-01T00:00:00,1\n"
         "b,2023-01-01T00:00:00,1\nb,2023-01-01T02:00:00,1\nb,2023-01-01T03:00:00,1\n"
         "c,2023-01-01T00:00:00,x\n", 8)       # grid errors in a and b, then a bad value
@example(POOL + "a,2023-01-01T00:00:00,1\na,2023-01-01T00:00:00,1\n"
         "b,2023-01-01T00:00:00,1\nb,2023-01-01T02:00:00,1\nb,2023-01-01T03:00:00,1\n", 8)
@example(POOL + "b,2023-01-01T00:00:00,1\na,2023-01-01T00:00:00,-1\n"
         "b,2023-01-01T00:00:00,2\na,2023-01-01T01:00:00,-2\n", data._BLOCK_BYTES)  # b first
# blocks of 49 bytes: the header and one row, then two rows at a time
@example(POOL + "a,2023-01-01T00:00:00,1\nb,2023-01-01T00:00:00,1\n"
         "a,2023-01-01T01:00:00,1\na,2023-01-01T03:00:00,1\n", 49)   # first spacing spans blocks
@example(POOL + "a,2023-01-01T01:00:00,1\na,2023-01-01T00:00:00,1\n"
         "a,2023-01-01T02:00:00,1\n", 49)                           # step back at a block's start
@example(POOL + "a,2023-01-01T00:00:00,1\na,2023-01-01T01:00:00,1\n"
         "a,2023-01-01T03:00:00,1\nb,2023-01-01T00:00:00,1\n"
         "a,2023-01-01T02:00:00,1\n", 49)   # a gap in block 2, a step back in block 3 wins
@example(POOL + "a,2023-01-01T00:00:00,1\nb,2023-01-01T00:00:00,4\n"
         "a,2023-01-01T01:00:00,2\nb,2023-01-01T01:00:00,5\n"
         "a,2023-01-01T02:00:00,3\nb,2023-01-01T02:00:00,6\n", 48)   # one row per block
def test_streamed_pool_loader_equals_the_whole_file_pool_loader(text, block_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "pool.csv")
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(data, "_BLOCK_BYTES", block_bytes):
            got = outcome(lambda: [
                (p.asset_id, p.series.start, p.series.interval_seconds, p.series.values)
                for p in data.load_profile_pool_csv(str(path))])
        want = outcome(lambda: reference.load_profile_pool_csv(str(path)))
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert [g[:3] for g in got] == [w[:3] for w in want]
    assert all(np.array_equal(g[3], w[3]) for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# Series and boundary files against the whole-file reader and grid check
# ---------------------------------------------------------------------------

#: The series loaders' value columns, and whether their first must be >= 0.
SERIES_LAYOUTS = {"series": (("value",), False), "power": (("value",), True),
                  "boundaries": (("lower", "upper"), False)}


@st.composite
def series_files(draw):
    """(layout, text) of a series file: 1 to 8 rows on an hourly or two-hourly
    grid, sometimes with one timestamp moved off it or a blank line between
    rows; values rarely negative or not a number."""
    layout = draw(st.sampled_from(sorted(SERIES_LAYOUTS)))
    names = SERIES_LAYOUTS[layout][0]
    start, step = draw(st.integers(0, 3)), draw(st.sampled_from([1, 2]))
    hours = [start + step * k for k in range(draw(st.integers(1, 8)))]
    if draw(st.integers(0, 2)) == 0:
        hours[draw(st.integers(0, len(hours) - 1))] = draw(st.integers(0, 18))
    lines = [",".join(("timestamp",) + names)]
    for h in hours:
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
        lines.append(",".join([f"2023-01-01T{h:02d}:00:00"] + [
            draw(st.sampled_from(POOL_BAD_VALUES if draw(st.integers(0, 19)) == 0
                                 else POOL_VALUES)) for _ in names]))
    return layout, "".join(line + "\n" for line in lines)


def reference_series(path, names, nonnegative):
    """(start, spacing, values) per value column of a series file, by the
    whole-file reader and grid check; with nonnegative, the first negative
    value of the first value column is an error on its row."""
    us, *values = reference.read_columns(path, [("timestamp", reference.parse_timestamps)]
                                         + [(name, reference.parse_numbers) for name in names])
    start, interval = reference.grid(us, np.arange(2, len(us) + 2), path, "a series")
    bad = np.flatnonzero(values[0] < 0)
    if nonnegative and bad.size:
        raise DataError(f"availability value {float(values[0][bad[0]])!r} is below 0",
                        path, int(bad[0]) + 2)
    return [(start, interval, v) for v in values]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(series_files(), st.one_of(st.integers(1, 60), st.just(data._BLOCK_BYTES)))
@example(("series", "timestamp,value\n2023-01-01T00:00:00,1\n2023-01-01T01:00:00,1\n"
          "2023-01-01T03:00:00,1\n2023-01-01T02:00:00,1\n"), 40)   # a gap, then a step back
@example(("power", "timestamp,value\n2023-01-01T00:00:00,-1\n"), 8)   # one row, negative
@example(("series", "timestamp,value\n2023-01-01T00:00:00,1\n2023-01-01T01:00:00,1\n"
          "2023-01-01T02:00:00.000002,1\n"), 8)   # a spacing 2 us off the first
def test_series_loaders_equal_the_whole_file_reader_and_grid_check(case, block_bytes):
    layout, text = case
    names, nonnegative = SERIES_LAYOUTS[layout]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "series.csv")
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(data, "_BLOCK_BYTES", block_bytes):
            got = outcome(lambda: [(s.start, s.interval_seconds, s.values) for s in
                                   data._read_series(str(path), names, None, nonnegative)])
        want = outcome(lambda: reference_series(str(path), names, nonnegative))
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert [g[:2] for g in got] == [w[:2] for w in want] and len(got) == len(names)
    assert all(np.array_equal(g[2], w[2]) for g, w in zip(got, want))
