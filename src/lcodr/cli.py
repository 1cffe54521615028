"""Batch command-line front-end.

Three subcommands:

  lcodr run   deterministic evaluation of every scheme x application pairing
  lcodr vf    value factors from price and availability-profile files
  lcodr mc    Monte-Carlo uncertainty propagation and cheapest-technology
              probabilities against the storage-cost reference table

All outputs are CSV files plus a manifest.json in the output directory.
Output is byte-deterministic: fixed row order (scheme, then application,
then sample), shortest-roundtrip float rendering, and a run id derived from
the effective configuration rather than from wall-clock time.

Exit codes: 0 success, 1 usage, 2 configuration error, 3 data error,
4 internal error.
"""

from __future__ import annotations

import argparse
import enum
import hashlib
import json
import sys
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import __version__
from .costing import (COST_COMPONENTS, batch_columns, batch_row, evaluate_batch,
                      sample_values)
from .data import (
    DataError,
    default_bundle,
    load_boundary_csv,
    load_lcos_reference,
    load_profile_pool_csv,
    load_timeseries_csv,
    profile_value_factors,
)
from .model import (
    Assumptions,
    LcodrError,
    ParseError,
    SchemaVersionError,
    SchemeKind,
    ValidationError,
    ValueFactorTable,
    load_config,
    parameter_set_to_dict,
)
from .uncertainty import (
    LcosSampling,
    McConfig,
    RNG_SCHEME,
    UncertaintyError,
    cheapest_probability,
    run_monte_carlo,
)
from .valuefactor import (AvailabilityProfile, ProfileKind, VF_RNG_SCHEME, ValueFactorError,
                          vf_subsample_mc)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(value) -> str:
    """Shortest-roundtrip cell rendering; None and NaN become empty, an enum
    member its value."""
    if isinstance(value, enum.Enum):
        value = value.value
    if value is None:
        return ""
    if isinstance(value, float):
        if value != value:   # NaN
            return ""
        return repr(float(value))   # float() drops numpy scalar wrappers
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _write_lines(path: Path, header: List[str], chunks, run_id: str) -> None:
    """Write the run-id line, the header and then each chunk of formatted
    lines (any iterable of strings, consumed once)."""
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"# run_id={run_id}\n{','.join(header)}\n")
        fh.writelines(chunks)


def _write_csv(path: Path, header: List[str], rows, run_id: str) -> None:
    """Write rows (any iterable, consumed once) one line at a time."""
    _write_lines(path, header, (",".join(_fmt(cell) for cell in row) + "\n"
                                for row in rows), run_id)


def _sample_lines(dists, samples: int):
    """lcodr_samples.csv's lines, one string per distribution of `samples`
    samples. Each column is formatted once over `.tolist()`, as _fmt formats
    its cells."""
    indices = [str(i) for i in range(samples)]
    for d in dists:
        flags = ["true" if ok else "false" for ok in d.feasible.tolist()]
        values = ["" if v != v else repr(v) for v in d.samples.tolist()]
        prefix = f"{d.technology},{d.application},"
        yield "".join(f"{prefix}{i},{ok},{v}\n" for i, ok, v in zip(indices, flags, values))


def _hash_dict(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _write_manifest(out: Path, run_id: str, args, params, data_hashes: dict,
                    extra: Optional[dict] = None) -> None:
    assumptions = params.assumptions
    manifest = {
        "tool_version": __version__,
        "run_id": run_id,
        "seed": getattr(args, "seed", None),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "data_files": data_hashes,
        "assumption_flags": {
            **asdict(assumptions),
            "reward_base_hours_differs_from_base_plugin_time": (
                assumptions.reward_base_hours is not None
                and assumptions.reward_base_hours != params.ev.base_plugin_time),
            "discount_rate": params.econ.discount_rate,
        },
    }
    if extra:
        manifest.update(extra)
    out.joinpath("manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Shared loading
# ---------------------------------------------------------------------------

def _apply_assumption_flags(params, args):
    """Override the configured assumptions with the flags that were given."""
    given = {f.name: getattr(args, f.name) for f in fields(Assumptions)
             if getattr(args, f.name) is not None}
    return replace(params, assumptions=replace(params.assumptions, **given))


def _load(args):
    params, apps = load_config(args.config)
    params = _apply_assumption_flags(params, args)
    if getattr(args, "applications", None):
        wanted = [name.strip() for name in args.applications.split(";")]
        known = {app.name for app in apps}
        for name in wanted:
            if name not in known:
                raise ValidationError(f"unknown application {name!r}", "applications")
        apps = [app for app in apps if app.name in wanted]
    schemes = list(SchemeKind)
    if getattr(args, "schemes", None):
        # a repeated scheme is kept once, at its first position
        schemes = list(dict.fromkeys(SchemeKind.from_name(s.strip())
                                     for s in args.schemes.split(",")))
    return params, apps, schemes


#: Profile inputs: (flag dest, loader of a file that also feeds a digest,
#: DataBundle attribute used when the flag is not given). The loaders look
#: their functions up at call time, so a wrapper installed on the module
#: names sees every load.
_PROFILE_INPUTS = (
    ("price", lambda path, digest: load_timeseries_csv(path, unit="$/MWh", digest=digest),
     "price"),
    ("ev_pool", lambda path, digest: load_profile_pool_csv(path, digest=digest),
     "ev_charging_pool"),
    ("hp_pool", lambda path, digest: load_profile_pool_csv(path, digest=digest),
     "heating_pool"),
    ("v2g_power", lambda path, digest: AvailabilityProfile(
        ProfileKind.V2G_POWER_BOUNDARY, load_timeseries_csv(path, unit="kW", digest=digest)),
     "v2g_power"),
    ("v2g_boundaries", lambda path, digest: load_boundary_csv(path, digest=digest),
     "v2g_energy"),
)


def _load_profile_data(args):
    """Price and availability profiles, from files when given, otherwise the
    bundled synthetic dataset. Returns ({flag: profile}, {flag: data hash}),
    both in _PROFILE_INPUTS order; a file is hashed from the bytes its loader
    reads."""
    profiles, hashes = {}, {}
    bundle = None
    for flag, load, attribute in _PROFILE_INPUTS:
        path = getattr(args, flag)
        if path:
            digest = hashlib.sha256()
            profiles[flag] = load(path, digest)
            hashes[flag] = digest.hexdigest()[:16]
        else:
            if bundle is None:
                bundle = default_bundle()
            profiles[flag] = getattr(bundle, attribute)
            hashes[flag] = "synthetic"
    return profiles, hashes


def _with_computed_value_factors(params, args):
    """With --compute-vf, params with value factors computed from the profile
    data, and the data hashes; otherwise params unchanged and no hashes."""
    if not args.compute_vf:
        return params, {}
    profiles, hashes = _load_profile_data(args)
    table = ValueFactorTable(**profile_value_factors(*profiles.values()))
    return replace(params, value_factors=table), hashes


def _output(args, **key):
    """Create the output directory. Returns it and the run id: a hash of the
    command name and key, the effective inputs of the run."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out, _hash_dict({"command": args.command, **key})


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

_RUN_HEADER = [
    "scheme", "application", "status", "reason", "binding_constraint",
    "contracted_assets", "contracted_assets_ceiled", "available_assets",
    "required_plugin_time_h", "power_reduction_kw", "tank_area_m2",
    "tank_volume_m3", "investment_usd", "om_pv_usd", "rewards_pv_usd",
    "rebound_pv_usd", "eol_pv_usd", "energy_pv_mwh",
    "lcodr_energy_usd_per_mwh", "lcodr_power_usd_per_kw_year",
    "value_factor", "lcodr_vf_usd_per_mwh",
]

#: The `costing.sample_values` key of each _RUN_HEADER column from status on.
_RUN_KEYS = (
    "status", "reason", "binding_constraint", "contracted_assets", "contracted_assets_ceiled",
    "available_assets", "required_plugin_time", "power_reduction", "tank_area", "tank_volume",
    "investment", "om_pv", "rewards_pv", "rebound_pv", "eol_pv", "energy_pv", "lcodr_energy",
    "lcodr_power", "value_factor", "lcodr_vf")


def cmd_run(args) -> int:
    params, apps, schemes = _load(args)
    params, data_hashes = _with_computed_value_factors(params, args)
    out, run_id = _output(args, config=parameter_set_to_dict(params),
                          apps=[app.name for app in apps],
                          schemes=[s.value for s in schemes])
    columns = batch_columns(np.array([batch_row(params)]))
    rows = []
    for scheme in schemes:
        for app in apps:
            values = sample_values(scheme, app, evaluate_batch(scheme, app, columns,
                                                               params.assumptions))
            rows.append([scheme, app.name, *(values[key] for key in _RUN_KEYS)])
    _write_csv(out / "lcodr_deterministic.csv", _RUN_HEADER, rows, run_id)
    _write_manifest(out, run_id, args, params, data_hashes)
    print(f"wrote {out / 'lcodr_deterministic.csv'} ({len(rows)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# vf
# ---------------------------------------------------------------------------

def cmd_vf(args) -> int:
    params, _, _ = _load(args)
    profiles, hashes = _load_profile_data(args)
    factors = profile_value_factors(*profiles.values())

    # the subset selection scheme keys subsample runs only, so that runs
    # without --subsample keep their run id
    scheme = {"vf_rng_scheme": VF_RNG_SCHEME} if args.subsample else {}
    out, run_id = _output(args, data=hashes, seed=args.seed,
                          subsample=args.subsample, iterations=args.iterations, **scheme)
    _write_csv(out / "value_factors.csv", ["scheme", "value_factor"], factors.items(), run_id)
    written = [out / "value_factors.csv"]

    if args.subsample:
        dist = vf_subsample_mc(profiles["ev_pool"], profiles["price"],
                               subset_size=args.subsample, iterations=args.iterations,
                               seed=args.seed)
        sample_rows = [[i, float(v)] for i, v in enumerate(dist.samples)]
        _write_csv(out / "vf_distribution.csv",
                   ["iteration", "value_factor"], sample_rows, run_id)
        summary = [["mean", dist.mean], ["median", dist.median],
                   ["p5", dist.p5], ["p95", dist.p95]]
        _write_csv(out / "vf_distribution_summary.csv",
                   ["statistic", "value_factor"], summary, run_id)
        written += [out / "vf_distribution.csv", out / "vf_distribution_summary.csv"]

    _write_manifest(out, run_id, args, params, hashes, extra=scheme)
    print(f"wrote {', '.join(str(p) for p in written)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------

def cmd_mc(args) -> int:
    params, apps, schemes = _load(args)
    params, data_hashes = _with_computed_value_factors(params, args)
    digest = hashlib.sha256()
    lcos = load_lcos_reference(args.lcos, digest=digest)
    data_hashes["lcos"] = digest.hexdigest()[:16] if args.lcos else "bundled"
    cfg = McConfig(samples=args.samples, sigma_inputs=args.sigma,
                   sigma_vf=args.sigma_vf, seed=args.seed,
                   lcos_sampling=LcosSampling(args.lcos_sampling))
    dists = run_monte_carlo(schemes, apps, params, cfg)

    # before anything is written: the same_scheme LCOS draws can still fail
    prob_rows = []
    skipped = []
    by_app = {}
    for d in dists:
        by_app.setdefault(d.application, []).append(d)
    for app in apps:
        ds = by_app[app.name]
        entries = [(e.technology, e.lcos_usd_per_mwh)
                   for e in lcos if e.application == app.name]
        try:
            probs = cheapest_probability(ds, cfg, entries)
        except UncertaintyError as exc:
            print(f"warning: {app.name!r} left out of cheapest_probability.csv: {exc}",
                  file=sys.stderr)
            skipped.append({"application": app.name, "reason": str(exc)})
            continue
        for order, (tech, prob) in enumerate(probs.items()):
            prob_rows.append([app.name, tech, order, prob])

    out, run_id = _output(args, config=parameter_set_to_dict(params),
                          apps=[app.name for app in apps],
                          schemes=[s.value for s in schemes],
                          mc=[cfg.samples, cfg.sigma_inputs, cfg.sigma_vf,
                              cfg.truncation_z, cfg.seed, cfg.lcos_sampling.value,
                              RNG_SCHEME],
                          data=data_hashes)

    summary_rows = [[d.technology, d.application, d.feasible_fraction,
                     d.mean, d.median, d.p5, d.p95] for d in dists]
    _write_csv(out / "lcodr_mc.csv",
               ["technology", "application", "feasible_fraction", "mean",
                "median", "p5", "p95"], summary_rows, run_id)

    _write_csv(out / "cheapest_probability.csv",
               ["application", "technology", "tie_break_order", "probability"],
               prob_rows, run_id)

    comp_rows = []
    for scheme in schemes:
        per_app = []
        for d in dists:
            if d.technology != scheme.value or d.feasible_fraction == 0:
                continue
            f = d.feasible
            total = sum(d.components[c][f] for c in COST_COMPONENTS)
            per_app.append([float((d.components[c][f] / total).mean())
                            for c in COST_COMPONENTS])
        if not per_app:
            continue
        n = len(per_app)
        shares = [sum(v[c] for v in per_app) / n for c in range(len(COST_COMPONENTS))]
        for c, name in enumerate(COST_COMPONENTS):
            comp_rows.append([scheme.value, name, shares[c]])
    _write_csv(out / "cost_composition.csv",
               ["technology", "component", "share"], comp_rows, run_id)

    written = [out / "lcodr_mc.csv", out / "cheapest_probability.csv",
               out / "cost_composition.csv"]
    if args.emit_samples:
        _write_lines(out / "lcodr_samples.csv",
                     ["technology", "application", "sample_index", "feasible",
                      "lcodr_vf_usd_per_mwh"], _sample_lines(dists, cfg.samples), run_id)
        written.append(out / "lcodr_samples.csv")

    _write_manifest(out, run_id, args, params, data_hashes,
                    extra={"mc": {"samples": cfg.samples,
                                  "sigma_inputs": cfg.sigma_inputs,
                                  "sigma_vf": cfg.sigma_vf,
                                  "truncation_z": cfg.truncation_z,
                                  "lcos_sampling": cfg.lcos_sampling.value,
                                  "rng_scheme": RNG_SCHEME,
                                  "skipped_applications": skipped}})
    print(f"wrote {', '.join(str(p) for p in written)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _int_at_least(minimum: int):
    """argparse type: an integer >= minimum, else a usage error."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return integer


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="YAML config merged over defaults")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--applications", default=None,
                   help="semicolon-separated application names to keep")
    p.add_argument("--schemes", default=None,
                   help="comma-separated scheme names to keep")
    # Assumption flags parse into Assumptions field names; None means not given.
    p.add_argument("--no-rpt-floor", dest="rpt_floor_at_base", action="store_const",
                   const=False, default=None,
                   help="do not floor the contracted plug-in time at the "
                        "observed base plug-in time")
    p.add_argument("--simple-rebound", dest="v2g_rebound_roundtrip", action="store_const",
                   const=False, default=None,
                   help="price V2G rebound at factor 1 instead of 1/eta^2")
    p.add_argument("--cycle-direction", dest="cycle_constraint_direction",
                   choices=["scale_up", "as_printed"], default=None,
                   help="heat-pump cycle-constraint direction")
    p.add_argument("--reward-base-hours", type=float, default=None,
                   help="plug-in hours at which the base reward applies "
                        "(default: the base plug-in time)")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--price", default=None, help="price CSV (timestamp,value)")
    p.add_argument("--ev-pool", default=None,
                   help="EV charging pool CSV (asset_id,timestamp,value)")
    p.add_argument("--hp-pool", default=None,
                   help="heat-pump pool CSV (asset_id,timestamp,value)")
    p.add_argument("--v2g-power", default=None,
                   help="V2G dischargeable-power CSV (timestamp,value)")
    p.add_argument("--v2g-boundaries", default=None,
                   help="V2G energy-boundary CSV (timestamp,lower,upper)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lcodr",
                     description="Levelised cost of demand response toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="deterministic evaluation")
    _add_common(p_run)
    _add_data_flags(p_run)
    p_run.add_argument("--compute-vf", action="store_true",
                       help="compute value factors from profile data instead "
                            "of using the configured table")
    p_run.set_defaults(func=cmd_run)

    p_vf = sub.add_parser("vf", help="value factors from time series")
    _add_common(p_vf)
    _add_data_flags(p_vf)
    p_vf.add_argument("--subsample", type=_int_at_least(0), default=None,
                      help="asset subset size for the sensitivity distribution")
    p_vf.add_argument("--iterations", type=_int_at_least(1), default=1000)
    p_vf.set_defaults(func=cmd_vf)

    p_mc = sub.add_parser("mc", help="Monte-Carlo uncertainty propagation")
    _add_common(p_mc)
    _add_data_flags(p_mc)
    p_mc.add_argument("--compute-vf", action="store_true")
    p_mc.add_argument("--samples", type=_int_at_least(1), default=1000)
    p_mc.add_argument("--sigma", type=float, default=0.33)
    p_mc.add_argument("--sigma-vf", type=float, default=0.10)
    p_mc.add_argument("--lcos", default=None, help="storage-cost reference CSV")
    p_mc.add_argument("--lcos-sampling", choices=["point", "same_scheme"],
                      default="point")
    p_mc.add_argument("--emit-samples", action="store_true")
    p_mc.add_argument("--workers", type=_int_at_least(1), default=None,
                      help="accepted for compatibility and ignored: Monte-Carlo "
                           "runs in one process")
    p_mc.set_defaults(func=cmd_mc)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ParseError, ValidationError, SchemaVersionError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueFactorError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except LcodrError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
