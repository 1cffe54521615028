"""Output checks for each workload.

The checks recompute what they can from the command's own raw outputs (the
emitted samples) or from the inputs the benchmark generated, with plain
numpy, and compare. They hold no copy of any earlier output. The only
program code they call is the scalar oracle the project designates:
`lcodr.costing.evaluate_pairing` on a sample's perturbed parameters.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

REL = 1e-12      # same arithmetic on the same numbers, up to summation order
REL_SUM = 1e-9   # sums over the pool or over shares, in a different order


class CheckError(Exception):
    """An output differs from what the benchmark recomputed."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def close(a: float, b: float, rel: float = REL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def read_table(path: Path):
    """Rows of an lcodr CSV as dicts, skipping the `# run_id=` line."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _num(text: str) -> float:
    return float("nan") if text == "" else float(text)


def config_applications(root: Path) -> list:
    """Application names of the bundled configuration, read from its YAML."""
    import yaml
    text = (root / "src" / "lcodr" / "defaults.yaml").read_text(encoding="utf-8")
    return [entry["name"] for entry in yaml.safe_load(text)["applications"]]


def reference_lcos(root: Path) -> list:
    """(application, technology, $/MWh) rows of the bundled reference table."""
    rows = read_table(root / "src" / "lcodr" / "lcos_reference.csv")
    return [(r["application"].strip(), r["technology"].strip(),
             float(r["lcos_usd_per_mwh"])) for r in rows]


# ---------------------------------------------------------------------------
# Properties shared by both MC workloads (all that mc-workers-full checks)
# ---------------------------------------------------------------------------

def check_mc_properties(out: Path, apps: list) -> dict:
    """Sum-to-1 and ordering properties of the MC outputs.

    Returns the cheapest-probability rows grouped by application, in file
    order, for callers that check more."""
    summary = read_table(out / "lcodr_mc.csv")
    expect(len(summary) > 0, "lcodr_mc.csv has no rows")
    for row in summary:
        ff = float(row["feasible_fraction"])
        expect(0.0 <= ff <= 1.0, f"feasible_fraction {ff} out of [0, 1]")
        if ff > 0:
            p5, med, p95 = (float(row[k]) for k in ("p5", "median", "p95"))
            expect(p5 <= med <= p95,
                   f"{row['technology']}/{row['application']}: "
                   f"p5 {p5} <= median {med} <= p95 {p95} fails")

    by_app = {}
    for row in read_table(out / "cheapest_probability.csv"):
        by_app.setdefault(row["application"], []).append(row)
    expect(sorted(by_app) == sorted(apps),
           f"cheapest_probability.csv covers {sorted(by_app)}, config has {sorted(apps)}")
    for app, rows in by_app.items():
        total = sum(float(r["probability"]) for r in rows)
        expect(close(total, 1.0, REL_SUM), f"{app}: probabilities sum to {total!r}")
        expect([int(r["tie_break_order"]) for r in rows] == list(range(len(rows))),
               f"{app}: tie_break_order is not 0..{len(rows) - 1}")

    shares = {}
    for row in read_table(out / "cost_composition.csv"):
        shares.setdefault(row["technology"], []).append(float(row["share"]))
    expect(len(shares) > 0, "cost_composition.csv has no rows")
    for tech, values in shares.items():
        expect(close(sum(values), 1.0, REL_SUM),
               f"{tech}: cost shares sum to {sum(values)!r}")
        expect(min(values) >= 0.0, f"{tech}: negative cost share")
    return by_app


# ---------------------------------------------------------------------------
# mc-serial
# ---------------------------------------------------------------------------

def read_samples(out: Path, n: int) -> dict:
    """{(technology, application): (feasible bool array, value array)} in
    file order, from lcodr_samples.csv."""
    pairings = {}
    for row in read_table(out / "lcodr_samples.csv"):
        key = (row["technology"], row["application"])
        entry = pairings.setdefault(key, ([], [], []))
        entry[0].append(int(row["sample_index"]))
        entry[1].append(row["feasible"] == "true")
        entry[2].append(_num(row["lcodr_vf_usd_per_mwh"]))
    result = {}
    for key, (index, feasible, values) in pairings.items():
        expect(index == list(range(n)), f"{key}: sample_index is not 0..{n - 1}")
        feasible = np.array(feasible)
        values = np.array(values)
        expect(bool(np.isfinite(values[feasible]).all()),
               f"{key}: a feasible sample has no finite cost")
        expect(bool(np.isnan(values[~feasible]).all()),
               f"{key}: an infeasible sample has a cost")
        result[key] = (feasible, values)
    return result


def check_mc_serial(out: Path, root: Path, seed: int, n: int,
                    oracle_indices=()) -> None:
    """Summaries and cheapest-technology probabilities recomputed from the
    emitted samples, plus the scalar oracle on a few sample indices."""
    apps = config_applications(root)
    by_app = check_mc_properties(out, apps)
    samples = read_samples(out, n)

    summary = read_table(out / "lcodr_mc.csv")
    expect([(r["technology"], r["application"]) for r in summary] == list(samples),
           "lcodr_mc.csv and lcodr_samples.csv list different pairings")
    for row in summary:
        key = (row["technology"], row["application"])
        feasible, values = samples[key]
        expect(close(float(row["feasible_fraction"]), float(feasible.mean())),
               f"{key}: feasible_fraction differs from the samples")
        ok = values[feasible]
        if len(ok) == 0:
            expect(all(row[k] == "" for k in ("mean", "median", "p5", "p95")),
                   f"{key}: statistics reported with no feasible sample")
            continue
        p50, p5, p95 = np.percentile(ok, [50, 5, 95])
        for name, want in (("mean", ok.mean()), ("median", p50),
                           ("p5", p5), ("p95", p95)):
            expect(close(float(row[name]), float(want)),
                   f"{key}: {name} {row[name]} differs from recomputed {float(want)!r}")

    lcos = reference_lcos(root)
    for app in apps:
        techs = [tech for tech, a in samples if a == app]
        refs = [(tech, value) for a, tech, value in lcos if a == app]
        costs = np.full((len(techs) + len(refs), n), np.inf)
        for t, tech in enumerate(techs):
            feasible, values = samples[(tech, app)]
            costs[t, feasible] = values[feasible]
        for r, (_, value) in enumerate(refs):
            costs[len(techs) + r, :] = value
        counted = np.isfinite(costs).any(axis=0)
        wins = np.bincount(np.argmin(costs[:, counted], axis=0),   # first minimum wins
                           minlength=len(costs))
        labels = techs + [tech for tech, _ in refs]
        rows = by_app[app]
        expect([r["technology"] for r in rows] == labels,
               f"{app}: technologies {[r['technology'] for r in rows]} != {labels}")
        for r, w in zip(rows, wins):
            want = float(w) / int(counted.sum())
            expect(close(float(r["probability"]), want),
                   f"{app}/{r['technology']}: probability {r['probability']} "
                   f"differs from recomputed {want!r}")

    if oracle_indices:
        _check_oracle(samples, seed, n, oracle_indices)


def _check_oracle(samples: dict, seed: int, n: int, indices) -> None:
    from lcodr.costing import evaluate_pairing
    from lcodr.model import SchemeKind, load_config
    from lcodr.uncertainty import McConfig, perturb_parameters

    base, apps = load_config(None)
    by_name = {app.name: app for app in apps}
    cfg = McConfig(samples=n, seed=seed)
    for i in indices:
        params = perturb_parameters(base, cfg, i)
        for (tech, app), (feasible, values) in samples.items():
            ev = evaluate_pairing(SchemeKind(tech), by_name[app], params)
            expect(ev.feasible == bool(feasible[i]),
                   f"sample {i} {tech}/{app}: feasibility differs from the oracle")
            if ev.feasible:
                expect(close(ev.breakdown.lcodr_vf, float(values[i])),
                       f"sample {i} {tech}/{app}: {float(values[i])!r} != oracle "
                       f"{ev.breakdown.lcodr_vf!r}")


# ---------------------------------------------------------------------------
# vf-files
# ---------------------------------------------------------------------------

def _factor(price: np.ndarray, avail: np.ndarray) -> np.ndarray:
    """Σp·a / (mean(a)·Σp), over the last axis."""
    return (avail * price).sum(axis=-1) / (avail.mean(axis=-1) * price.sum())


def check_vf_files(out: Path, inputs, iterations: int) -> None:
    """Full-pool factors from the generated arrays, subsample bounds and
    summary statistics of the emitted distribution."""
    factors = {r["scheme"]: float(r["value_factor"])
               for r in read_table(out / "value_factors.csv")}
    p = inputs.price
    want = {
        "v2g_power": _factor(p, inputs.v2g_power),
        "v2g_energy": _factor(p, inputs.v2g_upper - inputs.v2g_lower),
        "smart_charging": _factor(p, inputs.ev_pool.sum(axis=0)),
        "heat_pump": _factor(p, inputs.hp_pool.sum(axis=0)),
    }
    expect(sorted(factors) == sorted(want),
           f"value_factors.csv lists {sorted(factors)}")
    for scheme, value in want.items():
        expect(close(factors[scheme], float(value), REL_SUM),
               f"{scheme}: value factor {factors[scheme]!r} != {float(value)!r}")

    dist = read_table(out / "vf_distribution.csv")
    expect([int(r["iteration"]) for r in dist] == list(range(iterations)),
           f"vf_distribution.csv does not hold iterations 0..{iterations - 1}")
    values = np.array([float(r["value_factor"]) for r in dist])
    single = _factor(p, inputs.ev_pool)
    lo, hi = single.min() * (1 - REL_SUM), single.max() * (1 + REL_SUM)
    expect(bool(((values >= lo) & (values <= hi)).all()),
           f"a subsample factor lies outside the single-asset range "
           f"[{float(single.min())!r}, {float(single.max())!r}]")

    stats = {r["statistic"]: float(r["value_factor"])
             for r in read_table(out / "vf_distribution_summary.csv")}
    p50, p5, p95 = np.percentile(values, [50, 5, 95])
    for name, value in (("mean", values.mean()), ("median", p50),
                        ("p5", p5), ("p95", p95)):
        expect(name in stats and close(stats[name], float(value)),
               f"summary {name} {stats.get(name)!r} differs from recomputed {float(value)!r}")
