"""A large file read in two processes against the serial read.

`lcodr.data._column_blocks` hands the part of a file after its split point
(`data._split_offset`) to a forked child and reads the rest itself. These
tests patch the block size down to a few bytes, so that small files are
split, and compare each load with the same load with `os.fork` removed,
which is read serially, and with the whole-file reference of
tests/csv_reference.py. They also check that no child outlives a load and
that a load forks only where it may.

They need a process that runs one thread, as tests/conftest.py makes it.
"""

import contextlib
import hashlib
import os
import pickle
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import csv_reference as reference
import test_csv_reader as properties
from lcodr import data
from lcodr.data import DataError

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or not hasattr(os, "memfd_create")
    or len(os.listdir("/proc/self/task")) > 1,
    reason="a load forks only in a one-thread process with /proc and os.memfd_create")

BLOCK = 128
HEADER = "asset_id,timestamp,value\n"
ASSETS = ("a", "b", "c")
HOURS = 15


def pool_lines():
    """Three assets of 15 hourly rows each, one asset after the other. Every
    row is 28 bytes, so a fault of the same length keeps the split where it is."""
    return [f"{asset},2023-01-01T{h:02d}:00:00,{1 + h / 8:.3f}"
            for asset in ASSETS for h in range(HOURS)]


def fields(line):
    return line.split(",")


#: Same-length changes of a row, given the row before it.
FAULTS = {
    "non-numeric": lambda line, prev: ",".join(fields(line)[:2] + ["x.000"]),
    "non-finite": lambda line, prev: ",".join(fields(line)[:2] + ["1e999"]),
    "timestamp": lambda line, prev: line.replace("-01T", "-99T"),
    "short row": lambda line, prev: ",".join(fields(line)[:2]) + " " * 6,
    "short rows": lambda line, prev: ",".join(fields(line)[:2]) + " " * 6,   # to the end
    "quote": lambda line, prev: ",".join(fields(line)[:2] + ['"1.2"']),
    "cr": lambda line, prev: line[:-1] + "\r",
    "nul": lambda line, prev: ",".join(fields(line)[:2] + ["1.2\0" + "0"]),
    "negative": lambda line, prev: ",".join(fields(line)[:2] + ["-1.25"]),
    # a byte-order mark opens the child's read at "at": data there, as
    # anywhere after the file's first byte
    "bom": lambda line, prev: "\ufeff" + line[:-3],
    "grid step": lambda line, prev: ",".join(fields(line)[:1] + fields(prev)[1:2]
                                             + fields(line)[2:]),
}


@pytest.fixture
def forks(monkeypatch):
    """The number of forks made so far, in a list of one."""
    count, fork = [0], os.fork

    def counted():
        count[0] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return count


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def outcome(read):
    try:
        return read()
    except DataError as exc:
        return type(exc), exc.row, str(exc)


def load_pool(path):
    """(outcome of load_profile_pool_csv as the reference's tuples, digest)."""
    digest = hashlib.sha256()
    got = outcome(lambda: [(p.asset_id, p.series.start, p.series.interval_seconds,
                            p.series.values) for p in data.load_profile_pool_csv(path,
                                                                                 digest=digest)])
    return got, digest.hexdigest()


def assert_same_pool(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert [g[:3] for g in got] == [w[:3] for w in want]
    assert all(g[3].dtype == w[3].dtype and np.array_equal(g[3], w[3])
               for g, w in zip(got, want))


def split_row(path):
    """The index in pool_lines() of the child's first row."""
    with open(path, "rb") as fh:
        split = data._split_offset(fh)
    assert split and (split - len(HEADER)) % 28 == 0
    return (split - len(HEADER)) // 28


@pytest.mark.parametrize("fault", [None, *FAULTS])
@pytest.mark.parametrize("where", ["before", "at", "after"])
def test_a_split_load_gives_the_serial_result(tmp_path, monkeypatch, forks, fault, where):
    """A fault in the parent's last row, in the child's first row, or in a row
    after the child's first block (4 rows of 28 bytes)."""
    monkeypatch.setattr(data, "_BLOCK_BYTES", BLOCK)
    path = str(tmp_path / "pool.csv")
    lines = pool_lines()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(HEADER + "".join(line + "\n" for line in lines))
    first = split_row(path)
    at = first + {"before": -1, "at": 0, "after": 5}[where]
    assert lines[at][0] == lines[at - 1][0]   # a grid step is within one asset
    if fault is not None:
        for row in range(at, len(lines) if fault == "short rows" else at + 1):
            lines[row] = FAULTS[fault](lines[row], lines[row - 1])
    text = HEADER + "".join(line + "\n" for line in lines)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert split_row(path) == first

    taken = []   # the child's blocks that the parent took
    forked = data._forked_half

    def spy(*args):
        with contextlib.closing(forked(*args)) as half:
            yield next(half)   # the fork
            for block in half:
                taken.append(block)
                yield block

    monkeypatch.setattr(data, "_forked_half", spy)
    split = load_pool(path)
    assert forks[0] == 1
    assert_no_child()
    if where == "after" or fault is None:   # the child's first block is sound
        assert taken
    monkeypatch.delattr(os, "fork")
    serial = load_pool(path)
    want = outcome(lambda: reference.load_profile_pool_csv(path))
    assert_same_pool(split[0], want)
    assert_same_pool(serial[0], want)
    if fault in (None, "quote", "cr", "negative", "grid step"):   # the read finished: all hashed
        assert split[1] == serial[1] == hashlib.sha256(text.encode("utf-8")).hexdigest()
    if fault in ("negative", "grid step"):
        assert want[:2] == ((DataError if fault == "negative" else data.NonMonotonicTimestamps),
                            at + 2)
    elif fault == "bom":   # a new asset, so its own asset skips an hour in the next row
        assert want[:2] == (data.IrregularSpacing, at + 3)
    elif fault not in (None, "quote", "cr"):
        assert want[1] == at + 2


def test_asset_codes_of_the_child_are_renumbered_in_file_order(tmp_path, monkeypatch, forks):
    # m and k, then k and m again, then two assets new to the file: the
    # child, forked before any row was parsed, numbers k, m, z, b
    monkeypatch.setattr(data, "_BLOCK_BYTES", BLOCK)
    rows = ([(a, h) for h in range(12) for a in "mk"]
            + [(a, h) for h in range(12, 24) for a in "km"]
            + [(a, h) for h in range(12) for a in "zb"])
    lines = [f"{a},2023-01-01T{h:02d}:00:00,{h}.0" for a, h in rows]
    path = tmp_path / "pool.csv"
    path.write_text(HEADER + "".join(line + "\n" for line in lines), encoding="utf-8")
    with open(path, "rb") as fh:
        split = data._split_offset(fh)
    assert path.read_bytes()[split:].startswith(b"k,")
    got, _ = load_pool(str(path))
    assert forks[0] == 1
    assert [asset for asset, *_ in got] == ["m", "k", "z", "b"]
    assert_same_pool(got, reference.load_profile_pool_csv(str(path)))


def test_the_block_reader_properties_run_the_split_path(forks):
    """The 1-60-byte-block properties of tests/test_csv_reader.py fork on
    files of more than two blocks, so they compare split loads with the
    reference too: each property's own test, on 40 of its files at such
    block sizes, forks."""
    for prop, files in ((properties.test_block_reader_equals_the_whole_file_reference,
                         properties.csv_files()),
                        (properties.test_streamed_pool_loader_equals_the_whole_file_pool_loader,
                         properties.pool_files()),
                        (properties.test_series_loaders_equal_the_whole_file_reader_and_grid_check,
                         properties.series_files())):
        before = forks[0]
        given(files, st.integers(1, 60))(settings(
            max_examples=40, deadline=None, database=None,
            suppress_health_check=[HealthCheck.too_slow])(prop.hypothesis.inner_test))()
        assert forks[0] > before, prop.__name__
    assert_no_child()


def write_pool(tmp_path, lines, name="pool.csv"):
    path = tmp_path / name
    path.write_text(HEADER + "".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def test_no_child_outlives_a_load_an_error_or_an_early_close(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(data, "_BLOCK_BYTES", BLOCK)
    lines = pool_lines()
    path = write_pool(tmp_path, lines)
    want = reference.load_profile_pool_csv(path)
    assert_same_pool(load_pool(path)[0], want)
    assert_no_child()
    lines[-1] = FAULTS["non-numeric"](lines[-1], lines[-2])   # in the child's half
    bad = write_pool(tmp_path, lines, "bad.csv")
    with pytest.raises(data.NonNumericValue):
        data.load_profile_pool_csv(bad)
    assert_no_child()
    columns = [("asset_id", None), ("timestamp", None), ("value", None)]
    blocks = data._column_blocks(path, columns)
    next(blocks)   # the child is done, or still parsing: not yet waited for
    blocks.close()
    assert_no_child()
    monkeypatch.setattr(data, "_parse_half", lambda *args: time.sleep(60))
    blocks = data._column_blocks(path, columns)
    started = time.perf_counter()
    next(blocks)
    blocks.close()
    assert time.perf_counter() - started < 30   # the child was killed, not waited for
    assert_no_child()
    assert forks[0] == 4


def test_a_child_that_dies_leaves_the_parent_the_serial_read(tmp_path, monkeypatch, forks):
    def dies(fh, start, columns, index, path, out):
        # a block of one row of a new asset, as the child writes them
        os.write(out, pickle.dumps((28, 1, [(np.zeros(1, np.intp), ["new"]),
                                            np.zeros(1, np.int64), np.ones(1)])))
        os._exit(1)

    monkeypatch.setattr(data, "_BLOCK_BYTES", BLOCK)
    monkeypatch.setattr(data, "_parse_half", dies)
    path = write_pool(tmp_path, pool_lines())
    got, digest = load_pool(path)
    assert forks[0] == 1
    assert_no_child()
    assert_same_pool(got, reference.load_profile_pool_csv(path))
    with open(path, "rb") as fh:
        assert digest == hashlib.sha256(fh.read()).hexdigest()


def test_a_load_forks_only_a_file_of_more_than_two_blocks_in_a_one_thread_process(
        tmp_path, monkeypatch, forks):
    data.load_lcos_reference()   # the bundled table is at most two blocks
    assert forks[0] == 0
    monkeypatch.setattr(data, "_BLOCK_BYTES", BLOCK)
    text = HEADER + "".join(line + "\n" for line in pool_lines())
    columns = [("asset_id", None), ("timestamp", None), ("value", None)]
    two = (len(text) + 1) // 2
    monkeypatch.setattr(data, "_BLOCK_BYTES", two)   # the file is two blocks
    path = tmp_path / "pool.csv"
    path.write_text(text, encoding="utf-8")
    data._read_columns(str(path), columns)
    assert forks[0] == 0
    monkeypatch.setattr(data, "_BLOCK_BYTES", two - 1)
    data._read_columns(str(path), columns)
    assert forks[0] == 1
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        data._read_columns(str(path), columns)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks[0] == 1
    assert_no_child()
