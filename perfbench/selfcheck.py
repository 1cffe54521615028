"""Self-checks of the benchmark, run apart from the timed runs.

    python3 perfbench/selfcheck.py

1. Every workload's output check passes on the real output and rejects a
   deliberately corrupted copy (one probability nudged, one summary
   statistic shifted, one factor moved, ...).
2. `mc-workers-full` writes the same CSV bytes with `--workers 2` as with
   no workers.
3. With `--sigma 0 --sigma-vf 0`, every emitted MC sample equals the
   `lcodr run` value of its pairing.

All on workload seed SEED. Prints one PASS/FAIL line per check and exits 1
if any fails.
"""

from __future__ import annotations

import csv
import filecmp
import io
import shutil
import sys

import checks
import run

SEED = 0
RESULTS = []


def report(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")


def lcodr(work, args, out):
    outcome = run.spawn([sys.executable, "-c", run.LCODR_MAIN, *args, "--out", str(out)],
                        work)
    if not outcome.ok:
        raise RuntimeError(f"lcodr {' '.join(args)}: {outcome.message}")


def corrupt(path, change):
    """Rewrite the data rows of an lcodr CSV in place, keeping its header
    and `# run_id=` lines. `change` edits a list of row dicts."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    head = [line for line in lines if line.startswith("#")]
    reader = csv.DictReader(line for line in lines if not line.startswith("#"))
    rows = list(reader)
    change(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, reader.fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    path.write_text("".join(head) + buf.getvalue(), encoding="utf-8")


def nudge(row, column, factor):
    """A change that scales one cell."""
    def change(rows):
        rows[row][column] = repr(float(rows[row][column]) * factor)
    return change


def expect_rejections(name, out, check, corruptions):
    """The check passes on `out` and fails on each corrupted copy of it."""
    try:
        check(out)
        report(f"{name}: check accepts the real output", True)
    except Exception as exc:   # as in run.py, any error in a check is a rejection
        report(f"{name}: check accepts the real output", False, str(exc))
        return
    for label, (filename, change) in corruptions.items():
        bad = out.parent / f"{out.name}-corrupt"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(out, bad)
        corrupt(bad / filename, change)
        try:
            check(bad)
            report(f"{name}: rejects {label}", False, "corrupted output passed")
        except Exception as exc:
            report(f"{name}: rejects {label}", True, str(exc))
        shutil.rmtree(bad)


def first_feasible_row(out):
    rows = checks.read_table(out / "lcodr_mc.csv")
    return next(i for i, r in enumerate(rows) if float(r["feasible_fraction"]) > 0)


def check_mc_serial(work, seed):
    wl = run.WORKLOADS["mc-serial"]
    out = work / "mc-serial"
    lcodr(work, wl.argv(seed, None), out)
    row = first_feasible_row(out)

    def swap_oracle_sample(rows):
        # Sample 0 of the first pairing trades values with a feasible sample
        # of that pairing that no oracle index covers: every summary and
        # probability stays the same, only the scalar oracle can tell.
        first = rows[0]["technology"], rows[0]["application"]
        feasible = [r for r in rows
                    if (r["technology"], r["application"]) == first
                    and r["feasible"] == "true"]
        a = feasible[0]
        b = next(r for r in feasible[1:] if int(r["sample_index"]) not in run.ORACLE_INDICES
                 and r["lcodr_vf_usd_per_mwh"] != a["lcodr_vf_usd_per_mwh"])
        key = "lcodr_vf_usd_per_mwh"
        a[key], b[key] = b[key], a[key]

    expect_rejections("mc-serial", out, lambda o: wl.check(o, seed, None), {
        "a nudged probability": ("cheapest_probability.csv",
                                 nudge(0, "probability", 1 + 1e-6)),
        "a shifted median": ("lcodr_mc.csv", nudge(row, "median", 1 + 1e-6)),
        "a shifted p95": ("lcodr_mc.csv", nudge(row, "p95", 1 + 1e-6)),
        "a cost share off by 1e-6": ("cost_composition.csv", nudge(0, "share", 1 + 1e-6)),
        "two samples swapped": ("lcodr_samples.csv", swap_oracle_sample),
    })


def check_mc_workers(work, seed):
    wl = run.WORKLOADS["mc-workers-full"]
    pooled, serial = work / "mc-workers", work / "mc-workers-serial"
    args = wl.argv(seed, None)
    lcodr(work, args, pooled)
    at = args.index("--workers")
    lcodr(work, args[:at] + args[at + 2:], serial)
    names = sorted(p.name for p in pooled.glob("*.csv"))
    same = names == sorted(p.name for p in serial.glob("*.csv")) and all(
        filecmp.cmp(pooled / n, serial / n, shallow=False) for n in names)
    report("mc-workers-full: same CSV bytes with --workers 2 and without", same,
           ", ".join(names))
    row = first_feasible_row(pooled)
    expect_rejections("mc-workers-full", pooled, lambda o: wl.check(o, seed, None), {
        "a nudged probability": ("cheapest_probability.csv",
                                 nudge(0, "probability", 1 + 1e-6)),
        "p5 above the median": ("lcodr_mc.csv", nudge(row, "p5", 10.0)),
    })


def check_vf_files(work, seed):
    wl = run.WORKLOADS["vf-files"]
    inputs = wl.prepare(work, seed)
    out = work / "vf-files"
    lcodr(work, wl.argv(seed, inputs), out)
    expect_rejections("vf-files", out, lambda o: wl.check(o, seed, inputs), {
        "a shifted summary median": ("vf_distribution_summary.csv",
                                     nudge(1, "value_factor", 1 + 1e-6)),
        "a moved full-pool factor": ("value_factors.csv",
                                     nudge(2, "value_factor", 1 + 1e-6)),
        "a subsample factor out of range": ("vf_distribution.csv",
                                            nudge(0, "value_factor", 2.0)),
    })


def check_zero_sigma(work, seed):
    """Each MC sample at zero sigma equals the deterministic pairing value."""
    mc_out, run_out = work / "mc-sigma0", work / "run"
    lcodr(work, ["mc", "--samples", "20", "--sigma", "0", "--sigma-vf", "0",
                 "--emit-samples", "--seed", str(seed)], mc_out)
    lcodr(work, ["run"], run_out)
    det = {(r["scheme"], r["application"]): r
           for r in checks.read_table(run_out / "lcodr_deterministic.csv")}
    rows = checks.read_table(mc_out / "lcodr_samples.csv")
    bad = [r for r in rows
           if (r["feasible"] == "true") != (det[(r["technology"], r["application"])]
                                            ["status"] == "ok")
           or r["lcodr_vf_usd_per_mwh"] != det[(r["technology"], r["application"])]
           ["lcodr_vf_usd_per_mwh"]]
    report("sigma 0: every MC sample equals the `lcodr run` value", not bad and bool(rows),
           f"{len(rows)} samples, {len(bad)} differ")


def main() -> int:
    if not run.sources_present():
        return 2
    with run.work_dir("selfcheck") as work:
        for step in (check_mc_serial, check_mc_workers, check_vf_files, check_zero_sigma):
            step(work, SEED)
    print(f"{sum(RESULTS)}/{len(RESULTS)} self-checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
