"""lcodr benchmark: runs the real `lcodr` CLI as a fresh process per command.

    python3 perfbench/run.py --workload mc-serial --seed 1 --seconds 36 --trace 0

Run from anywhere; the program is taken from `src/` of the checkout that
holds this file. A run repeats whole rounds while another fits in `--seconds`
and prints, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

--trace 0   each round: SETUP_PROBES set-up probes, then one timed command
            whose outputs are checked. Reports the end-to-end metrics
            wall_s, setup_s and peak_rss_mib as medians over the run.
--trace 1   each round: one plain command and one command run under
            perfbench/tracer.py, in alternating order, both checked.
            Reports the per-layer metrics (medians over the traced
            commands) and trace.overhead_s.

Every set-up probe and every command counts as one attempted operation; a
non-zero exit or a failed output check counts as failed, and a failed check
also makes `correct` false.

`--workload all` runs every workload in turn and prints one line each.
See README.md for the workloads, the metrics and the reference figures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from inputs import write_vf_inputs
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 3          # set-up probes per round
COMMAND_TIMEOUT_S = 120   # a command still running after this counts as failed
MC_SERIAL_SAMPLES = 1500
MC_WORKERS_SAMPLES = 1000
VF_SUBSAMPLE = 50
VF_ITERATIONS = 2000
ORACLE_INDICES = (0, 1, 2, MC_SERIAL_SAMPLES // 2, MC_SERIAL_SAMPLES - 1)

LCODR_MAIN = "import sys; from lcodr.cli import main; sys.exit(main())"
SETUP_PROBE = "import lcodr.cli, lcodr.model; lcodr.model.load_config(None)"


@dataclass(frozen=True)
class Workload:
    prepare: Callable   # (work dir, seed) -> context handed to argv and check
    argv: Callable      # (seed, context) -> lcodr arguments, without --out
    check: Callable     # (out dir, seed, context) -> None, raises CheckError


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "mc-serial": Workload(
        prepare=lambda work, seed: None,
        argv=lambda seed, _: ["mc", "--samples", str(MC_SERIAL_SAMPLES),
                              "--emit-samples", "--seed", str(seed)],
        check=lambda out, seed, _: checks.check_mc_serial(
            out, ROOT, seed, MC_SERIAL_SAMPLES, ORACLE_INDICES)),
    "mc-workers-full": Workload(
        prepare=lambda work, seed: None,
        argv=lambda seed, _: ["mc", "--samples", str(MC_WORKERS_SAMPLES),
                              "--workers", "2", "--compute-vf",
                              "--lcos-sampling", "same_scheme", "--seed", str(seed)],
        check=lambda out, seed, _: checks.check_mc_properties(
            out, checks.config_applications(ROOT))),
    "vf-files": Workload(
        prepare=lambda work, seed: write_vf_inputs(work / "inputs", seed),
        argv=lambda seed, inputs: [
            "vf", *(arg for flag, path in inputs.paths.items()
                    for arg in (f"--{flag}", path)),
            "--subsample", str(VF_SUBSAMPLE), "--iterations", str(VF_ITERATIONS),
            "--seed", str(seed)],
        check=lambda out, seed, inputs: checks.check_vf_files(out, inputs, VF_ITERATIONS)),
}


@dataclass
class Outcome:
    wall_s: float
    peak_rss_mib: float
    ok: bool
    message: str = ""
    bytes_written: int = 0


def spawn(argv, work: Path) -> Outcome:
    """Run one process to its exit through launch.py: wall time from spawn
    to exit, and the peak resident set over it and the children it reaped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    err_path = work / "stderr.txt"
    launcher = subprocess.Popen([sys.executable, str(HERE / "launch.py"), str(err_path), *argv],
                                cwd=work, env=env, stdout=subprocess.PIPE,
                                start_new_session=True)
    try:
        report, _ = launcher.communicate(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        report = b""   # killed below
    except BaseException:   # interrupted: take the command down with us
        os.killpg(launcher.pid, signal.SIGKILL)
        launcher.wait()
        raise
    try:
        os.killpg(launcher.pid, signal.SIGKILL)   # a hung command, stray workers
    except ProcessLookupError:
        pass
    launcher.wait()
    if not report:
        return Outcome(float("nan"), float("nan"), False,
                       f"no report: over {COMMAND_TIMEOUT_S} s, or launch.py failed")
    result = json.loads(report)
    message = ""
    if result["exit"] != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip()
        message = f"exit {result['exit']}: {tail.splitlines()[-1] if tail else ''}"
    return Outcome(result["wall_s"], result["maxrss_kib"] / 1024.0, result["exit"] == 0,
                   message)


class Run:
    """Operation accounting and the timed commands of one run."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.workload = WORKLOADS[name]
        self.context = self.workload.prepare(work, seed)
        spawn([sys.executable, "-c", SETUP_PROBE], work)   # warm-up: .pyc files, file cache
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def _account(self, outcome: Outcome) -> bool:
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            print(f"{self.name}: {outcome.message}", file=sys.stderr)
        return outcome.ok

    def setup_probe(self):
        outcome = spawn([sys.executable, "-c", SETUP_PROBE], self.work)
        return outcome.wall_s if self._account(outcome) else None

    def command(self, prefix) -> Outcome:
        """One lcodr command, its outputs checked and then deleted."""
        out = self.work / "out"
        argv = [*prefix, *self.workload.argv(self.seed, self.context), "--out", str(out)]
        outcome = spawn(argv, self.work)
        if outcome.ok:
            try:
                self.workload.check(out, self.seed, self.context)
                outcome.bytes_written = sum(f.stat().st_size for f in out.iterdir())
            except Exception as exc:
                # a missing file, column or cell, or an unparseable one, is a wrong output too
                outcome.ok, outcome.message = False, f"output check: {exc!r}"
                self.correct = False
        shutil.rmtree(out, ignore_errors=True)
        self._account(outcome)
        return outcome



def repeat_rounds(seconds: float, one_round: Callable) -> None:
    """Whole rounds, at least one, while another round fits in `seconds`."""
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        one_round()
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return


def measure(run: Run, seconds: float) -> dict:
    walls, rss, setups = [], [], []

    def one_round():
        for _ in range(SETUP_PROBES):
            wall = run.setup_probe()
            if wall is not None:
                setups.append(wall)
        outcome = run.command([sys.executable, "-c", LCODR_MAIN])
        if outcome.ok:
            walls.append(outcome.wall_s)
            rss.append(outcome.peak_rss_mib)

    repeat_rounds(seconds, one_round)
    if not walls or not setups:
        return {}
    return {"wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (statistics.median(rss), "MiB")}


def measure_traced(run: Run, seconds: float) -> dict:
    plain, traced, layers = [], [], []
    spans_path = run.work / "spans.json"
    turns = itertools.count()

    def run_plain():
        outcome = run.command([sys.executable, "-c", LCODR_MAIN])
        if outcome.ok:
            plain.append(outcome.wall_s)

    def run_traced():
        outcome = run.command([sys.executable, str(HERE / "tracer.py"), str(spans_path)])
        if outcome.ok:
            traced.append(outcome.wall_s)
            metrics = layer_metrics(json.loads(spans_path.read_text(encoding="utf-8")))
            metrics["cli.bytes_written"] = (outcome.bytes_written, "bytes")
            layers.append(metrics)

    def one_round():
        # alternate which side goes first, so order effects cancel in the overhead
        pair = (run_plain, run_traced) if next(turns) % 2 == 0 else (run_traced, run_plain)
        for side in pair:
            side()

    repeat_rounds(seconds, one_round)
    if not plain or not traced:
        return {}
    result = {name: (statistics.median(m[name][0] for m in layers), unit)
              for name, (_, unit) in layers[0].items()}
    result["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return result


def sources_present() -> bool:
    """Whether the checkout holds the lcodr sources; puts them on sys.path."""
    if not (SRC / "lcodr" / "cli.py").is_file():
        print(f"error: no lcodr sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


@contextmanager
def work_dir(tag: str):
    """A private directory under .perfbench_work/, removed afterwards."""
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass   # another run still uses it


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    with work_dir(f"{name}-{seed}") as work:
        run = Run(name, seed, work)
        metrics = (measure_traced if trace else measure)(run, seconds)
    if not metrics:
        return {}
    return {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not sources_present():
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if not result:
            print(f"error: {name}: no command succeeded", file=sys.stderr)
            return 1
        results[name] = result
        if args.workload == "all":
            shown = "  ".join(f"{k}={m['value']:.6g} {m['unit']}"
                              for k, m in result["metrics"].items())
            print(f"{name}: attempted={result['attempted']} failed={result['failed']} "
                  f"correct={str(result['correct']).lower()}  {shown}")
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
