"""Config fuzzer: generated YAML overrides and Monte-Carlo flags, run through
`main` in-process.

Whatever the input, a command ends in a documented exit code. A failure
prints exactly one `error:` line and raises nothing out of `main`; a
success writes rows of the header's width, feasible rows whose fleet covers
the application at a positive cost, and a manifest whose assumption toggles
are booleans. Each run has TIMEOUT_S seconds before SIGALRM fails it, so an
input that makes a command run for minutes fails the property instead of
stalling the suite.
"""

import contextlib
import csv
import io
import json
import signal
import tempfile
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lcodr.cli import main
from lcodr.model import VALUE_FACTOR_KEYS, SchemeKind, default_parameters, parameter_values

TIMEOUT_S = 5

#: Any YAML value: numbers finite or not, bools, strings, null, lists, mappings.
ANY = st.one_of(
    st.floats(), st.integers(-10**9, 10**9), st.booleans(), st.text(max_size=6), st.none(),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2))

#: A plausible value per parameter; lifetimes long enough to take minutes.
PARAMETER_VALUES = {key: st.floats(0.0, 3.0 * value)
                    for key, value in parameter_values(default_parameters()).items()}
PARAMETER_VALUES["lifetime_years"] = st.integers(1, 10**7)

VALUE_FACTOR_VALUES = dict.fromkeys(VALUE_FACTOR_KEYS, st.floats(0.0, 3.0))

ASSUMPTION_VALUES = {
    "rpt_floor_at_base": st.booleans(),
    "v2g_rebound_roundtrip": st.booleans(),
    "cycle_constraint_direction": st.sampled_from(["scale_up", "as_printed"]),
    "reward_base_hours": st.one_of(st.none(), st.floats(0.0, 24.0)),
}

APPLICATION_VALUES = {
    "name": st.text(min_size=1, max_size=6),
    "power_capacity_mw": st.floats(0.1, 500.0),
    "discharge_duration_h": st.floats(0.01, 12.0),
    "annual_cycles": st.floats(1.0, 2000.0),
    "suitable_schemes": st.lists(st.sampled_from([kind.value for kind in SchemeKind]),
                                 max_size=4),
}
APPLICATION_REQUIRED = ("name", "power_capacity_mw", "discharge_duration_h", "annual_cycles")


@st.composite
def mapping(draw, values, required=()):
    """Plausible values for the required keys and some others of `values`;
    then one key, maybe an unknown one, may take ANY value."""
    optional = sorted(set(values) - set(required))
    keys = [*required, *draw(st.lists(st.sampled_from(optional), unique=True, max_size=3))]
    out = {key: draw(values[key]) for key in keys}
    odd = draw(st.one_of(st.none(), st.sampled_from([*values, "unknown"])))
    if odd is not None:
        out[odd] = draw(ANY)
    return out


@st.composite
def overrides(draw):
    """A config: flat parameter overrides and some of the sections."""
    out = draw(mapping(PARAMETER_VALUES))
    out.update(draw(mapping({
        "parameters": mapping(PARAMETER_VALUES),
        "value_factors": mapping(VALUE_FACTOR_VALUES),
        "assumptions": mapping(ASSUMPTION_VALUES),
        "applications": st.lists(mapping(APPLICATION_VALUES, APPLICATION_REQUIRED),
                                 min_size=1, max_size=2),
    })))
    return out


class Timeout(Exception):
    pass


def _run(argv):
    """(exit code, stderr) of main(argv), with stdout discarded."""
    def expire(signum, frame):
        raise Timeout(f"{argv} ran longer than {TIMEOUT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIMEOUT_S)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def _check_outcome(code, stderr, out: Path):
    assert code in (0, 1, 2, 3), stderr
    assert "Traceback" not in stderr
    if code:
        assert sum(line.startswith("error:") for line in stderr.splitlines()) == 1, stderr
        return
    flags = json.loads((out / "manifest.json").read_text())["assumption_flags"]
    assert isinstance(flags["rpt_floor_at_base"], bool), flags
    assert isinstance(flags["v2g_rebound_roundtrip"], bool), flags
    hours = flags["reward_base_hours"]
    assert hours is None or type(hours) in (int, float), flags


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(overrides())
def test_any_config_ends_in_a_documented_outcome(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.yaml"
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        out = Path(tmp) / "out"
        code, stderr = _run(["run", "--config", str(path), "--out", str(out)])
        _check_outcome(code, stderr, out)
        if code:
            return
        lines = (out / "lcodr_deterministic.csv").read_text(encoding="utf-8").split("\n")
        width = len(lines[1].split(","))
        assert all(len(line.split(",")) == width for line in lines[2:-1]), lines
        with open(out / "lcodr_deterministic.csv", encoding="utf-8") as fh:
            fh.readline()
            for row in csv.DictReader(fh):
                if row["status"] == "ok":
                    assert float(row["contracted_assets"]) >= float(row["available_assets"])
                    assert float(row["lcodr_vf_usd_per_mwh"]) > 0, row


FLAG_TEXT = st.one_of(st.floats().map(repr), st.floats(-1.0, 30.0).map(repr),
                      st.sampled_from(["", "x"]))


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(sigma=FLAG_TEXT, hours=FLAG_TEXT,
       direction=st.sampled_from(["scale_up", "as_printed", "up"]))
def test_any_mc_flags_end_in_a_documented_outcome(sigma, hours, direction):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code, stderr = _run(["mc", "--samples", "3", "--out", str(out), "--sigma", sigma,
                             "--reward-base-hours", hours, "--cycle-direction", direction])
        _check_outcome(code, stderr, out)
