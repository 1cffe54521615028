"""Property: `lcodr vf` on generated malformed CSVs ends in exit 0 or 3,
never in an uncaught exception, and fails with one `error: data:` line.
The quoted and crlf mutations send the file through the reader's csv.reader
tokenizer from the first block they touch; so do a blank line and dropped
fields, which leave lines of differing field counts. The others go through
its whole-text splits."""

import contextlib
import io
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lcodr.cli import main

START = datetime(2023, 1, 1)
MUTATIONS = ["none", "drop_fields", "nan", "inf", "-inf", "garbage", "one_row",
             "duplicate_timestamp", "swap_rows", "drop_row", "shift_asset", "blank_line",
             "quoted", "crlf"]


def stamp(hour: int) -> str:
    return (START + timedelta(hours=hour)).isoformat()


@st.composite
def inputs(draw):
    """(price rows, pool rows, line end) with at most one mutation applied to
    one file."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    hours = draw(st.integers(2, 24))
    price = [[stamp(h), repr(v)] for h, v in enumerate(rng.uniform(1, 100, hours).tolist())]
    pool = [[f"a{a}", stamp(h), repr(v)]
            for a in range(draw(st.integers(2, 4)))
            for h, v in enumerate(rng.uniform(0, 5, hours).tolist())]
    rows = draw(st.sampled_from([price, pool]))
    mutation = draw(st.sampled_from(MUTATIONS))
    i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
    if mutation == "drop_fields":
        rows[i] = rows[i][:draw(st.integers(0, len(rows[i]) - 1))]
    elif mutation in ("nan", "inf", "-inf"):
        rows[i][-1] = mutation
    elif mutation == "garbage":
        column = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][column] = draw(st.text(alphabet="x1.:-T e", max_size=6))
    elif mutation == "one_row":
        del rows[1:]
    elif mutation == "duplicate_timestamp":
        rows[j][-2] = rows[i][-2]
    elif mutation == "swap_rows":
        rows[i], rows[j] = rows[j], rows[i]
    elif mutation == "drop_row":
        del rows[i]
    elif mutation == "shift_asset":
        for row in pool:
            if row[0] == "a1":
                row[1] = (datetime.fromisoformat(row[1]) + timedelta(hours=1)).isoformat()
    elif mutation == "blank_line":
        rows.insert(i, [])
    elif mutation == "quoted":   # a quoted field, sometimes holding a comma or a line end
        column = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][column] = f'"{rows[i][column]}{draw(st.sampled_from(["", ",", chr(10)]))}"'
    return price, pool, "\r\n" if mutation == "crlf" else "\n"


def write(path: Path, header: str, rows, end: str = "\n") -> str:
    path.write_bytes((header + end + "".join(",".join(r) + end for r in rows)).encode("utf-8"))
    return str(path)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inputs())
def test_vf_on_malformed_csv_exits_0_or_3_with_one_error_line(case):
    price, pool, end = case
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        hours = [stamp(h) for h in range(4)]
        argv = ["vf", "--out", str(d / "out"), "--subsample", "2", "--iterations", "3",
                "--price", write(d / "price.csv", "timestamp,value", price, end),
                "--ev-pool", write(d / "pool.csv", "asset_id,timestamp,value", pool, end),
                "--hp-pool", str(d / "pool.csv"),
                "--v2g-power", write(d / "power.csv", "timestamp,value",
                                     [[t, "2.0"] for t in hours]),
                "--v2g-boundaries", write(d / "band.csv", "timestamp,lower,upper",
                                          [[t, "0.5", "3.0"] for t in hours])]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 3)
    assert "Traceback" not in err.getvalue()
    if code == 3:
        assert len([line for line in lines if line.startswith("error: data:")]) == 1
    else:
        assert lines == []
