"""Batch command-line front-end.

Three subcommands:

  lcodr run   deterministic evaluation of every scheme x application pairing
  lcodr vf    value factors from price and availability-profile files
  lcodr mc    Monte-Carlo uncertainty propagation and cheapest-technology
              probabilities against the storage-cost reference table

Each command takes only the flags it reads: --config, --applications,
--schemes, --compute-vf and the assumption toggles only `run` and `mc`,
which cost pairings; --seed only `vf` and `mc`, which draw random numbers.

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
import json
import sys
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path
from typing import List, Optional

import numpy as np

# hashlib loads OpenSSL's _hashlib, which only pays off on data files: a run
# id hashes a short text, so it takes the interpreter's own sha256 module
try:
    from _sha2 import sha256          # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256    # Python 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .costing import (COST_COMPONENTS, batch_columns, batch_row, evaluate_batch,
                      left_to_right_sum, sample_values)
from .data import (
    BUNDLE_RNG_SCHEME,
    BUNDLED_EV_ASSETS,
    DataError,
    bundle_sources,
    load_boundary_csv,
    load_lcos_reference,
    load_power_boundary_csv,
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
    TRUNCATION_Z,
    UncertaintyError,
    cheapest_probability,
    lcos_uniforms,
    run_monte_carlo,
)
from .valuefactor import VF_RNG_SCHEME, ValueFactorError, vf_subsample_mc

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    """A command line that argparse accepts but the command cannot carry out."""


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


def _out_error(out: Path, what: str, exc: OSError) -> UsageError:
    return UsageError(f"--out {out}: cannot {what} ({exc.strerror or exc})")


def _write_lines(path: Path, header: List[str], chunks, run_id: str) -> None:
    """Write the run-id line, the header and then each chunk of formatted
    lines (any iterable of strings, consumed once)."""
    try:
        with path.open("w", encoding="utf-8") as fh:
            fh.write(f"# run_id={run_id}\n{','.join(header)}\n")
            fh.writelines(chunks)
    except OSError as exc:   # a directory in the way, a full disk, ...
        raise _out_error(path.parent, f"write {path.name}", exc) from None


def _write_csv(path: Path, header: List[str], rows, run_id: str) -> None:
    """Write rows (any iterable, consumed once) one line at a time."""
    _write_lines(path, header, (",".join(_fmt(cell) for cell in row) + "\n"
                                for row in rows), run_id)


def _sample_lines(dists, samples: int):
    """lcodr_samples.csv's lines, one string per distribution of `samples`
    samples. Each column is formatted in one pass over `.tolist()`, as _fmt
    formats its cells."""
    indices = [f"{i}," for i in range(samples)]
    for d in dists:
        flags = ["true," if ok else "false," for ok in d.feasible.tolist()]
        values = list(map(repr, d.samples.tolist()))
        for i in np.flatnonzero(np.isnan(d.samples)).tolist():
            values[i] = ""
        prefix = f"{d.technology},{d.application},"
        yield "".join(map("".join, zip(repeat(prefix), indices, flags, values, repeat("\n"))))


def _run_id(args, **key) -> str:
    """A hash of the command name and key, the effective inputs of the run."""
    blob = json.dumps({"command": args.command, **key}, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode("utf-8")).hexdigest()[:16]


def _write_manifest(out: Path, run_id: str, args, params, data_hashes: dict,
                    extra: Optional[dict] = None) -> None:
    """manifest.json; `assumption_flags` only with params, which `vf` passes as None."""
    manifest = {
        "tool_version": __version__,
        "run_id": run_id,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "data_files": data_hashes,
    }
    if "seed" in args:
        manifest["seed"] = args.seed
    if params is not None:
        assumptions = params.assumptions
        manifest["assumption_flags"] = {
            **asdict(assumptions),
            "reward_base_hours_differs_from_base_plugin_time": (
                assumptions.reward_base_hours is not None
                and assumptions.reward_base_hours != params.ev.base_plugin_time),
            "discount_rate": params.econ.discount_rate,
        }
    if extra:
        manifest.update(extra)
    try:
        out.joinpath("manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    except OSError as exc:
        raise _out_error(out, "write manifest.json", exc) from None


# ---------------------------------------------------------------------------
# Shared loading
# ---------------------------------------------------------------------------

def _load(args):
    """The cost model that the flags ask for: parameters, the names of every
    configured application, the applications kept and the schemes kept."""
    params, apps = load_config(args.config)
    given = {f.name: getattr(args, f.name) for f in fields(Assumptions)
             if getattr(args, f.name) is not None}
    params = replace(params, assumptions=replace(params.assumptions, **given))
    known = {app.name for app in apps}
    if args.applications is not None:
        wanted = [name.strip() for name in args.applications.split(";")]
        for name in wanted:
            if name not in known:
                raise ValidationError(f"unknown application {name!r}", "applications")
        apps = [app for app in apps if app.name in wanted]
    schemes = list(SchemeKind)
    if args.schemes is not None:
        # a repeated scheme is kept once, at its first position
        schemes = list(dict.fromkeys(SchemeKind.from_name(s.strip())
                                     for s in args.schemes.split(",")))
    return params, known, apps, schemes


#: Profile inputs: (flag dest, loader of a file that also feeds a digest).
#: The dest also names the input as a data.bundle_sources key, as a
#: profile_value_factors parameter and as a ValueFactorError's `source`. The
#: loaders look their functions up at call time, so a wrapper installed on
#: the module names sees every load.
_PROFILE_INPUTS = (
    ("price", lambda path, digest: load_timeseries_csv(path, digest=digest)),
    ("ev_pool", lambda path, digest: load_profile_pool_csv(path, digest=digest)),
    ("hp_pool", lambda path, digest: load_profile_pool_csv(path, digest=digest)),
    ("v2g_power", lambda path, digest: load_power_boundary_csv(path, digest=digest)),
    ("v2g_boundaries", lambda path, digest: load_boundary_csv(path, digest=digest)),
)


def _load_profile_data(args):
    """Price and availability profiles, from files when given, otherwise each
    from its own data.bundle_sources builder (a pool as an iterator).
    Returns ({flag: profile}, {flag: data hash}), both in _PROFILE_INPUTS
    order; a file is hashed whole, in one pass after its loader parsed it,
    and a bundled input is recorded by the bundle's BUNDLE_RNG_SCHEME."""
    profiles, hashes = {}, {}
    sources = bundle_sources()
    for flag, load in _PROFILE_INPUTS:
        path = getattr(args, flag)
        if path:
            import hashlib   # OpenSSL's sha256 is several times faster on a file
            digest = hashlib.sha256()
            profiles[flag] = load(path, digest)
            hashes[flag] = digest.hexdigest()[:16]
        else:
            profiles[flag] = sources[flag]()
            hashes[flag] = BUNDLE_RNG_SCHEME
    return profiles, hashes


def _on_data_files(args, compute, *inputs, fallback: str = "price"):
    """compute(*inputs), a value-factor computation. A ValueFactorError is a
    DataError on the file of the input its `source` names, or else on the
    file of the `fallback` input; with neither file it is raised as it is."""
    try:
        return compute(*inputs)
    except ValueFactorError as exc:
        path = getattr(args, exc.source or fallback) or getattr(args, fallback)
        if not path:
            raise
        raise DataError(str(exc), path) from exc


def _check_data_flags(args) -> None:
    """A data flag of `run` or `mc` is read only with --compute-vf."""
    if not args.compute_vf:
        for flag, _ in _PROFILE_INPUTS:
            if getattr(args, flag):
                raise UsageError(f"--{flag.replace('_', '-')} is read only with --compute-vf")


def _with_computed_value_factors(params, args):
    """With --compute-vf, params with value factors computed from the profile
    data, and the data hashes; otherwise params unchanged and no hashes."""
    if not args.compute_vf:
        return params, {}
    profiles, hashes = _load_profile_data(args)
    table = ValueFactorTable(**_on_data_files(args, profile_value_factors, *profiles.values()))
    return replace(params, value_factors=table), hashes


def _out_dir(args) -> Path:
    """Create the output directory, before any data is loaded."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:   # a file in the way, no permission, ...
        raise _out_error(out, "create the output directory", exc) from None
    return out


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

#: lcodr_deterministic.csv's columns after scheme and application: the
#: header of each `costing.sample_values` key.
_RUN_COLUMNS = {
    "status": "status", "reason": "reason", "binding_constraint": "binding_constraint",
    "contracted_assets": "contracted_assets",
    "contracted_assets_ceiled": "contracted_assets_ceiled",
    "available_assets": "available_assets", "required_plugin_time": "required_plugin_time_h",
    "power_reduction": "power_reduction_kw", "tank_area": "tank_area_m2",
    "tank_volume": "tank_volume_m3", "investment": "investment_usd", "om_pv": "om_pv_usd",
    "rewards_pv": "rewards_pv_usd", "rebound_pv": "rebound_pv_usd", "eol_pv": "eol_pv_usd",
    "energy_pv": "energy_pv_mwh", "lcodr_energy": "lcodr_energy_usd_per_mwh",
    "lcodr_power": "lcodr_power_usd_per_kw_year", "value_factor": "value_factor",
    "lcodr_vf": "lcodr_vf_usd_per_mwh",
}


def cmd_run(args) -> int:
    _check_data_flags(args)
    params, _, apps, schemes = _load(args)
    out = _out_dir(args)
    params, data_hashes = _with_computed_value_factors(params, args)
    run_id = _run_id(args, config=parameter_set_to_dict(params),
                     apps=[app.name for app in apps], schemes=[s.value for s in schemes])
    columns = batch_columns(np.array([batch_row(params)]))
    rows = []
    for scheme in schemes:
        for app in apps:
            values = sample_values(scheme, app, evaluate_batch(scheme, app, columns,
                                                               params.assumptions))
            rows.append([scheme, app.name, *(values[key] for key in _RUN_COLUMNS)])
    _write_csv(out / "lcodr_deterministic.csv", ["scheme", "application", *_RUN_COLUMNS.values()],
               rows, run_id)
    _write_manifest(out, run_id, args, params, data_hashes)
    print(f"wrote {out / 'lcodr_deterministic.csv'} ({len(rows)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# vf
# ---------------------------------------------------------------------------

def cmd_vf(args) -> int:
    if not args.ev_pool and (args.subsample or 0) > BUNDLED_EV_ASSETS:
        raise UsageError(f"--subsample {args.subsample} exceeds the bundled EV pool's "
                         f"{BUNDLED_EV_ASSETS} assets; give a larger pool with --ev-pool")
    out = _out_dir(args)
    profiles, hashes = _load_profile_data(args)
    if args.subsample:   # subsets are drawn from the whole pool
        profiles["ev_pool"] = list(profiles["ev_pool"])
    factors = _on_data_files(args, profile_value_factors, *profiles.values())
    dist = None
    if args.subsample:   # before anything is written: a subsample can still fail
        dist = _on_data_files(args, vf_subsample_mc, profiles["ev_pool"], profiles["price"],
                              args.subsample, args.iterations, args.seed, fallback="ev_pool")

    # the subset selection scheme keys subsample runs only, so that runs
    # without --subsample keep their run id
    scheme = {"vf_rng_scheme": VF_RNG_SCHEME} if args.subsample else {}
    run_id = _run_id(args, data=hashes, seed=args.seed,
                     subsample=args.subsample, iterations=args.iterations, **scheme)
    _write_csv(out / "value_factors.csv", ["scheme", "value_factor"], factors.items(), run_id)
    written = [out / "value_factors.csv"]

    if dist is not None:
        _write_csv(out / "vf_distribution.csv", ["iteration", "value_factor"],
                   enumerate(dist.samples.tolist()), run_id)
        _write_csv(out / "vf_distribution_summary.csv", ["statistic", "value_factor"],
                   [(k, getattr(dist, k)) for k in ("mean", "median", "p5", "p95")], run_id)
        written += [out / "vf_distribution.csv", out / "vf_distribution_summary.csv"]

    _write_manifest(out, run_id, args, params=None, data_hashes=hashes, extra=scheme)
    print(f"wrote {', '.join(str(p) for p in written)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------

def cmd_mc(args) -> int:
    _check_data_flags(args)
    params, configured, apps, schemes = _load(args)
    out = _out_dir(args)
    params, data_hashes = _with_computed_value_factors(params, args)
    digest = None   # the bundled table is not hashed
    if args.lcos:
        import hashlib
        digest = hashlib.sha256()
    lcos = load_lcos_reference(args.lcos, applications=configured, digest=digest)
    data_hashes["lcos"] = digest.hexdigest()[:16] if args.lcos else "bundled"
    cfg = McConfig(samples=args.samples, sigma_inputs=args.sigma,
                   sigma_vf=args.sigma_vf, seed=args.seed,
                   lcos_sampling=LcosSampling(args.lcos_sampling))
    dists = run_monte_carlo(schemes, apps, params, cfg)
    # one row of distributions per scheme, one column per application
    table = [dists[s * len(apps):(s + 1) * len(apps)] for s in range(len(schemes))]

    # before anything is written: the same_scheme LCOS draws can still fail
    prob_rows = []
    skipped = []
    entries = [[(e.technology, e.lcos_usd_per_mwh) for e in lcos if e.application == app.name]
               for app in apps]
    # entry e of every application reads the same stream: one draw serves all
    words = lcos_uniforms(cfg, max(map(len, entries), default=0))
    for app, column, app_entries in zip(apps, zip(*table), entries):
        try:
            probs = cheapest_probability(column, cfg, app_entries, words)
        except UncertaintyError as exc:
            print(f"warning: {app.name!r} left out of cheapest_probability.csv: {exc}",
                  file=sys.stderr)
            skipped.append({"application": app.name, "reason": str(exc)})
            continue
        for order, (tech, prob) in enumerate(probs.items()):
            prob_rows.append([app.name, tech, order, prob])

    run_id = _run_id(args, config=parameter_set_to_dict(params),
                     apps=[app.name for app in apps], schemes=[s.value for s in schemes],
                     mc=[cfg.samples, cfg.sigma_inputs, cfg.sigma_vf, TRUNCATION_Z, cfg.seed,
                         cfg.lcos_sampling.value, RNG_SCHEME],
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
    for scheme, row in zip(schemes, table):
        # each component's share, averaged over the applications with a feasible sample
        per_app = [d.cost_shares for d in row if d.cost_shares]
        if per_app:
            comp_rows += [[scheme.value, c, left_to_right_sum(s[c] for s in per_app)
                           / len(per_app)] for c in COST_COMPONENTS]
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
                                  "truncation_z": TRUNCATION_Z,
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


def _add_cost_model_flags(p: argparse.ArgumentParser) -> None:
    """The flags of the cost model and its value factors, for `run` and `mc`."""
    p.add_argument("--config", default=None, help="YAML config merged over defaults")
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
    p.add_argument("--compute-vf", action="store_true",
                   help="compute value factors from profile data instead "
                        "of using the configured table")


def _add_common(p: argparse.ArgumentParser) -> None:
    """--out and the data flags, which every command takes."""
    p.add_argument("--out", default="out", help="output directory")
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
    _add_cost_model_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_vf = sub.add_parser("vf", help="value factors from time series")
    _add_common(p_vf)
    p_vf.add_argument("--seed", type=_int_at_least(0), default=0)
    p_vf.add_argument("--subsample", type=_int_at_least(1), default=None,
                      help="asset subset size for the sensitivity distribution")
    p_vf.add_argument("--iterations", type=_int_at_least(1), default=1000)
    p_vf.set_defaults(func=cmd_vf)

    p_mc = sub.add_parser("mc", help="Monte-Carlo uncertainty propagation")
    _add_common(p_mc)
    _add_cost_model_flags(p_mc)
    p_mc.add_argument("--seed", type=_int_at_least(0), default=McConfig.seed)
    p_mc.add_argument("--samples", type=_int_at_least(1), default=McConfig.samples)
    p_mc.add_argument("--sigma", type=float, default=McConfig.sigma_inputs)
    p_mc.add_argument("--sigma-vf", type=float, default=McConfig.sigma_vf)
    p_mc.add_argument("--lcos", default=None, help="storage-cost reference CSV")
    p_mc.add_argument("--lcos-sampling", choices=["point", "same_scheme"],
                      default=McConfig.lcos_sampling.value)
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
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ValueFactorError) as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ParseError, ValidationError, SchemaVersionError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LcodrError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
