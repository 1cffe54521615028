"""Span tracer for one lcodr command, and the per-layer metrics it yields.

Run as the command's own process in place of the `lcodr` entry point:

    python3 perfbench/tracer.py SPANS.json mc --samples 100 --out out/

It imports `lcodr.cli`, replaces each layer-boundary function listed in
`TRACED` with a wrapper in every lcodr module namespace that holds it (so
a call is seen where its caller looks the name up), runs `lcodr.cli.main`,
and writes the spans it kept in memory to SPANS.json. Nothing under `src/`
changes. Work inside worker processes is not recorded.

A span is [name, start, end, parent index]; a layer's self time is its
span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

#: Layer-boundary functions, by module. `data._pool_total` is private but
#: the CLI calls it across the module boundary for the full-pool factors.
TRACED = {
    "model": ("load_config", "build_parameter_set"),
    "data": ("load_timeseries_csv", "load_boundary_csv", "load_profile_pool_csv",
             "default_bundle", "_pool_total"),
    "valuefactor": ("align", "value_factor", "v2g_value_factors", "vf_subsample_mc"),
    "sizing": ("size_pairing",),
    "costing": ("evaluate_pairing",),
    "uncertainty": ("perturb_parameters", "run_monte_carlo", "lcos_sample_matrix",
                    "cheapest_probability"),
    "cli": ("cmd_run", "cmd_vf", "cmd_mc"),
}

CSV_LOADERS = ("data.load_timeseries_csv", "data.load_boundary_csv",
               "data.load_profile_pool_csv")
FULL_POOL = ("valuefactor.v2g_value_factors", "valuefactor.align",
             "valuefactor.value_factor", "data._pool_total")


class Tracer:
    """In-memory spans plus counts taken at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {"csv_rows": 0, "subsample_iterations": 0,
                       "feasible_evaluations": 0, "rng_streams": 0}
        self.perturbed = []

    def wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if observe is not None:
                observe(result)
            return result
        return traced

    def count_rng(self, fn):
        """Count generators built while an uncertainty span is innermost."""
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack and spans[stack[-1]][0].startswith("uncertainty."):
                counts["rng_streams"] += 1
            return fn(*args, **kwargs)
        return counted

    def observer(self, name):
        """What to count from a traced call's result, by span name."""
        counts = self.counts

        def add(key, amount):
            counts[key] += amount

        return {
            "data.load_timeseries_csv": lambda series: add("csv_rows", len(series)),
            "data.load_boundary_csv": lambda prof: add("csv_rows", len(prof.series)),
            "data.load_profile_pool_csv": lambda pool: add(
                "csv_rows", sum(len(prof.series) for prof in pool)),
            "valuefactor.vf_subsample_mc": lambda dist: add(
                "subsample_iterations", len(dist.samples)),
            "costing.evaluate_pairing": lambda ev: add("feasible_evaluations", ev.feasible),
            "uncertainty.perturb_parameters": self.perturbed.append,
        }.get(name)

    def install(self):
        import numpy as np
        modules = {name: m for name, m in sys.modules.items()
                   if name == "lcodr" or name.startswith("lcodr.")}
        for layer, names in TRACED.items():
            owner = modules[f"lcodr.{layer}"]
            for attr in names:
                original = getattr(owner, attr)
                span_name = f"{layer}.{attr}"
                wrapper = self.wrap(span_name, original, self.observer(span_name))
                for module in modules.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
        np.random.default_rng = self.count_rng(np.random.default_rng)

    def clamped_draws(self) -> int:
        """Perturbed values lying exactly on a registry bound."""
        from lcodr.model import PARAMETERS, parameter_values
        clamped = 0
        for params in self.perturbed:
            values = parameter_values(params)
            for spec in PARAMETERS:
                if spec.perturb and values[spec.key] in (spec.lower, spec.upper):
                    clamped += 1
        return clamped


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    # Only the standard library is loaded so far, so this span covers the
    # whole import a command pays, numpy and PyYAML included.
    start = time.perf_counter()
    import lcodr.cli
    imported = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    tracer.spans.append(["model.import", start, imported, -1])
    root = tracer.wrap("cli.main", lcodr.cli.main)
    code = root(cli_args)
    counts = dict(tracer.counts, clamped_draws=tracer.clamped_draws())
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": counts}, fh)
    return code


# ---------------------------------------------------------------------------
# Per-layer metrics from one command's spans
# ---------------------------------------------------------------------------

def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced command (see README.md for the map)."""
    spans, counts = trace["spans"], trace["counts"]
    n = len(spans)
    duration = [s[2] - s[1] for s in spans]
    self_time = list(duration)
    for name, start, end, parent in spans:
        if parent >= 0:
            self_time[parent] -= end - start

    def ancestors(i):
        parent = spans[i][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    total, calls, self_total = {}, {}, {}
    for i in range(n):
        name = spans[i][0]
        total[name] = total.get(name, 0.0) + duration[i]
        calls[name] = calls.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0.0) + self_time[i]
    full_pool = sum(duration[i] for i in range(n)
                    if spans[i][0] in FULL_POOL
                    and not any(a in FULL_POOL or a == "valuefactor.vf_subsample_mc"
                                for a in ancestors(i)))
    attempts = sum(1 for i in range(n)
                   if spans[i][0] == "model.build_parameter_set"
                   and spans[i][3] >= 0
                   and spans[spans[i][3]][0] == "uncertainty.perturb_parameters")

    def t(name):
        return total.get(name, 0.0)

    def per(numerator, denominator, scale=1.0):
        return numerator / denominator * scale if denominator else 0.0

    csv_s = sum(t(name) for name in CSV_LOADERS)
    perturbs = calls.get("uncertainty.perturb_parameters", 0)
    evaluations = calls.get("costing.evaluate_pairing", 0)
    return {
        "model.import_s": (t("model.import"), "s"),
        "model.load_config_s": (t("model.load_config"), "s"),
        "data.csv_load_s": (csv_s, "s"),
        "data.csv_rows": (counts["csv_rows"], "count"),
        "data.csv_rows_per_s": (per(counts["csv_rows"], csv_s), "1/s"),
        "data.default_bundle_s": (t("data.default_bundle"), "s"),
        "valuefactor.align_s": (t("valuefactor.align"), "s"),
        "valuefactor.align_calls": (calls.get("valuefactor.align", 0), "count"),
        "valuefactor.full_pool_s": (full_pool, "s"),
        "valuefactor.subsample_s": (t("valuefactor.vf_subsample_mc"), "s"),
        "valuefactor.subsample_iters_per_s": (
            per(counts["subsample_iterations"], t("valuefactor.vf_subsample_mc")), "1/s"),
        "uncertainty.perturb_s": (t("uncertainty.perturb_parameters"), "s"),
        "uncertainty.perturb_us_per_sample": (
            per(t("uncertainty.perturb_parameters"), perturbs, 1e6), "us"),
        "uncertainty.perturb_attempts": (attempts, "count"),
        "uncertainty.perturb_accept_ratio": (per(perturbs, attempts), "ratio"),
        "uncertainty.rng_streams": (counts["rng_streams"], "count"),
        "uncertainty.clamped_draws": (counts["clamped_draws"], "count"),
        "uncertainty.run_monte_carlo_s": (t("uncertainty.run_monte_carlo"), "s"),
        "uncertainty.mc_self_s": (self_total.get("uncertainty.run_monte_carlo", 0.0), "s"),
        "uncertainty.lcos_matrix_s": (t("uncertainty.lcos_sample_matrix"), "s"),
        "uncertainty.cheapest_s": (t("uncertainty.cheapest_probability"), "s"),
        "sizing.size_s": (t("sizing.size_pairing"), "s"),
        "sizing.calls": (calls.get("sizing.size_pairing", 0), "count"),
        "costing.evaluate_self_s": (self_total.get("costing.evaluate_pairing", 0.0), "s"),
        "costing.evaluations": (evaluations, "count"),
        "costing.us_per_evaluation": (
            per(t("costing.evaluate_pairing"), evaluations, 1e6), "us"),
        "costing.feasible_ratio": (per(counts["feasible_evaluations"], evaluations), "ratio"),
        "cli.self_s": (sum(self_total.get(name, 0.0) for name in
                           ("cli.main", "cli.cmd_run", "cli.cmd_vf", "cli.cmd_mc")), "s"),
        "trace.spans": (n, "count"),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
