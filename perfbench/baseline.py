"""Reference figures of single layers and of `lcodr mc --samples 1000`.

    python3 perfbench/baseline.py

Measures, each as the median over REPEATS runs with the min-max spread:

  mc_1000_wall_s          `lcodr mc --samples 1000` as a fresh process
  perturb_s_per_1000      perturb_parameters on 1000 sample indices
  evaluate_pairing_us     one evaluate_pairing call, over the 48 pairings
  vf_subsample_50x1000_s  vf_subsample_mc, 50 assets x 1000 iterations,
                          on the default bundle's 200-asset EV pool
  pool_loader_rows_per_s  load_profile_pool_csv on the vf-files EV pool CSV
                          of seed 0 (60 assets x 8760 hours)

Layers are timed in this process, with tracing off; the seed is 0.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import run
from inputs import write_vf_inputs

REPEATS = 5


def timed(fn, repeats):
    """Seconds per call of fn, one value per repeat."""
    values = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        values.append(time.perf_counter() - start)
    return values


def main() -> int:
    if not run.sources_present():
        return 2
    from lcodr.costing import evaluate_pairing
    from lcodr.data import default_bundle, load_profile_pool_csv
    from lcodr.model import SchemeKind, load_config
    from lcodr.uncertainty import McConfig, perturb_parameters
    from lcodr.valuefactor import vf_subsample_mc

    with run.work_dir("baseline") as work:
        params, apps = load_config(None)
        pairings = [(s, a) for s in SchemeKind for a in apps]
        cfg = McConfig(samples=1000)
        bundle = default_bundle()
        pool_csv = write_vf_inputs(work / "inputs", 0).paths["ev-pool"]
        pool_rows = sum(len(p.series) for p in load_profile_pool_csv(pool_csv))
        reps = 50

        def mc_command():
            outcome = run.spawn([sys.executable, "-c", run.LCODR_MAIN, "mc",
                                 "--samples", "1000", "--out", str(work / "mc")], work)
            if not outcome.ok:
                raise RuntimeError(outcome.message)

        def evaluate_all():
            for _ in range(reps):
                for scheme, app in pairings:
                    evaluate_pairing(scheme, app, params)

        n = REPEATS
        figures = {
            "mc_1000_wall_s": timed(mc_command, n),
            "perturb_s_per_1000": timed(
                lambda: [perturb_parameters(params, cfg, i) for i in range(1000)], n),
            "evaluate_pairing_us": [s * 1e6 / (reps * len(pairings))
                                    for s in timed(evaluate_all, n)],
            "vf_subsample_50x1000_s": timed(lambda: vf_subsample_mc(
                bundle.ev_charging_pool, bundle.price, 50, 1000, 0), n),
            "pool_loader_rows_per_s": [pool_rows / s for s in timed(
                lambda: load_profile_pool_csv(pool_csv), n)],
        }

    result = {}
    for name, values in figures.items():
        result[name] = {"median": statistics.median(values),
                        "min": min(values), "max": max(values), "n": len(values)}
        print(f"{name:24s} {result[name]['median']:12.6g}   "
              f"[{min(values):.6g} .. {max(values):.6g}]  n={len(values)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
