"""Monte-Carlo propagation of input uncertainty.

Every scalar input is independently perturbed with a truncated normal
distribution; all technologies are evaluated on the same perturbed draw
(common random numbers), so per-sample cost comparisons are paired.

Randomness is counter-based: each (seed, sample index, parameter id[,
attempt]) tuple seeds its own generator, so results are bit-identical for a
fixed seed no matter how samples are scheduled across workers.

Evaluation is batched: a job perturbs a contiguous range of sample indices
into a samples x parameters matrix and runs `costing.evaluate_batch` on it
once per pairing, with numpy over the sample axis. The scalar
`costing.evaluate_pairing` is the oracle: the batch kernel returns exactly
its values for every sample, so batching changes no output.
"""

from __future__ import annotations

import enum
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .costing import (
    BATCH_COLUMNS,
    COST_COMPONENTS,
    batch_columns,
    batch_row,
    evaluate_batch,
)
from .model import (
    ApplicationSpec,
    LcodrError,
    PARAMETERS,
    ParameterSet,
    SchemeKind,
    VALUE_FACTOR_KEYS,
    ValidationError,
    ValueFactorTable,
    parameter_values,
    build_parameter_set,
)

#: Substream ids: scalar parameters take their registry position, value
#: factors and LCOS reference entries follow in fixed blocks. Append-only.
VF_ID_OFFSET = len(PARAMETERS)
LCOS_ID_OFFSET = VF_ID_OFFSET + len(VALUE_FACTOR_KEYS)


class UncertaintyError(LcodrError):
    pass


class PerturbationUnsatisfiable(UncertaintyError):
    """No valid parameter set found within the redraw budget; the base
    configuration sits too close to an invariant boundary."""


class NoFeasibleTechnology(UncertaintyError):
    pass


class LcosSampling(enum.Enum):
    POINT = "point"
    SAME_SCHEME = "same_scheme"


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo settings.

    sigma_inputs and sigma_vf are relative standard deviations; draws are
    truncated at truncation_z standard deviations either side of the mean.
    """

    samples: int = 1000
    sigma_inputs: float = 0.33
    sigma_vf: float = 0.10
    truncation_z: float = 1.285
    seed: int = 0
    lcos_sampling: LcosSampling = LcosSampling.POINT

    def __post_init__(self):
        if self.samples < 1:
            raise ValidationError("sample count must be >= 1", "samples")
        if self.sigma_inputs < 0 or self.sigma_vf < 0:
            raise ValidationError("sigmas must be >= 0", "sigma_inputs")
        if self.truncation_z <= 0:
            raise ValidationError("truncation must be > 0 sigma", "truncation_z")


def _stream(*key: int) -> np.random.Generator:
    """The generator of one substream key.

    A uint32 array hands SeedSequence the same entropy words as the tuple
    of the same ints, so both give the same draws, but it is quicker to
    build. A key with a word outside [0, 2**32) keeps the tuple form.
    """
    if all(0 <= k < 2**32 for k in key):
        return np.random.default_rng(np.array(key, dtype=np.uint32))
    return np.random.default_rng(key)


def sample_truncated_normal(mean: float, sigma: float, z: float,
                            rng: np.random.Generator) -> float:
    """One draw from Normal(mean, sigma) conditioned on +/- z sigma.

    Rejection sampling; at z = 1.285 roughly 80 % of proposals are
    accepted. sigma = 0 returns the mean exactly.
    """
    if sigma == 0.0:
        return mean
    bound = z * sigma
    while True:
        x = rng.normal(mean, sigma)
        if abs(x - mean) <= bound:
            return x


def _perturb_value(value: float, sigma_rel: float, z: float,
                   rng: np.random.Generator,
                   lower: Optional[float] = None,
                   upper: Optional[float] = None) -> float:
    drawn = sample_truncated_normal(value, sigma_rel * abs(value), z, rng)
    if lower is not None:
        drawn = max(lower, drawn)
    if upper is not None:
        drawn = min(upper, drawn)
    return drawn


def perturb_parameters(base: ParameterSet, cfg: McConfig,
                       sample_index: int) -> ParameterSet:
    """The perturbed parameter set for one sample index.

    Each scalar input (and each value factor) is perturbed independently on
    its own substream, clamped to its registered domain, and the whole set
    is re-validated on construction. A cross-field invariant violation
    triggers a full redraw on fresh substreams; after 100 failed attempts
    the base configuration is declared unsatisfiable.

    Deterministic: repeated calls with equal (base, cfg, sample_index)
    return an identical set.
    """
    base_values = parameter_values(base)
    base_vf = {key: getattr(base.value_factors, key) for key in VALUE_FACTOR_KEYS}
    last_error = None
    for attempt in range(100):
        values = {}
        for param_id, spec in enumerate(PARAMETERS):
            value = base_values[spec.key]
            if not spec.perturb or cfg.sigma_inputs == 0.0:
                values[spec.key] = value
                continue
            rng = _stream(cfg.seed, sample_index, param_id, attempt)
            values[spec.key] = _perturb_value(value, cfg.sigma_inputs,
                                              cfg.truncation_z, rng,
                                              spec.lower, spec.upper)
        vf = {}
        for k, key in enumerate(VALUE_FACTOR_KEYS):
            if cfg.sigma_vf == 0.0:
                vf[key] = base_vf[key]
                continue
            rng = _stream(cfg.seed, sample_index, VF_ID_OFFSET + k, attempt)
            vf[key] = _perturb_value(base_vf[key], cfg.sigma_vf,
                                     cfg.truncation_z, rng, lower=1e-9)
        try:
            return build_parameter_set(values, vf, base.assumptions)
        except ValidationError as exc:
            last_error = exc
    raise PerturbationUnsatisfiable(
        f"no valid perturbation found in 100 attempts "
        f"(sample {sample_index}): {last_error}")


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McDistribution:
    """Monte-Carlo outcome of one (technology, application) pairing.

    samples holds the value-factor-adjusted levelised cost per sample, NaN
    where that sample was infeasible; components holds the matching absolute
    cost terms. Summary statistics are over the feasible subset only, with
    percentiles by linear interpolation; feasible_fraction exposes how much
    of the sample survived.
    """

    technology: str
    application: str
    samples: np.ndarray
    feasible: np.ndarray
    components: Dict[str, np.ndarray] = field(default_factory=dict)
    mean: float = float("nan")
    median: float = float("nan")
    p5: float = float("nan")
    p95: float = float("nan")
    feasible_fraction: float = 0.0

    @classmethod
    def build(cls, technology: str, application: str, samples: np.ndarray,
              feasible: np.ndarray, components: Dict[str, np.ndarray]) -> "McDistribution":
        samples = np.asarray(samples, dtype=np.float64)
        feasible = np.asarray(feasible, dtype=bool)
        for arr in (samples, feasible, *components.values()):
            arr.flags.writeable = False
        ok = samples[feasible]
        if len(ok):
            stats = dict(mean=float(ok.mean()),
                         median=float(np.percentile(ok, 50)),
                         p5=float(np.percentile(ok, 5)),
                         p95=float(np.percentile(ok, 95)))
        else:
            nan = float("nan")
            stats = dict(mean=nan, median=nan, p5=nan, p95=nan)
        return cls(technology=technology, application=application,
                   samples=samples, feasible=feasible, components=components,
                   feasible_fraction=float(feasible.mean()), **stats)


def _evaluate_range(args) -> list:
    """Evaluate every pairing on the sample indices [start, stop). Top-level
    so worker processes can unpickle it; returns one BatchEvaluation per
    pairing, in pairing order."""
    base, cfg, start, stop, pairings = args
    matrix = np.empty((stop - start, len(BATCH_COLUMNS)))
    for row, i in enumerate(range(start, stop)):
        matrix[row] = batch_row(perturb_parameters(base, cfg, i))
    columns = batch_columns(matrix)
    return [evaluate_batch(scheme, app, columns, base.assumptions)
            for scheme, app in pairings]


def run_monte_carlo(schemes: Sequence[SchemeKind], apps: Sequence[ApplicationSpec],
                    base: ParameterSet, cfg: McConfig,
                    workers: Optional[int] = None) -> list:
    """Monte-Carlo batch over every (scheme, application) pairing.

    One perturbed parameter set per sample index is shared by all pairings,
    so cross-technology comparisons within a sample use common random
    numbers. Returns one McDistribution per pairing, ordered scheme-major.

    A job is a contiguous range of sample indices; serially there is one,
    and workers > 1 spreads a few ranges per worker over processes. Ranges
    are joined in index order and every sample is computed on its own, so
    the output is identical for any worker count.
    """
    pairings = [(scheme, app) for scheme in schemes for app in apps]
    if workers is not None and workers > 1 and cfg.samples > 1:
        n_jobs = min(cfg.samples, workers * 4)
        bounds = [cfg.samples * k // n_jobs for k in range(n_jobs + 1)]
        jobs = [(base, cfg, lo, hi, pairings) for lo, hi in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_evaluate_range, jobs))
    else:
        results = [_evaluate_range((base, cfg, 0, cfg.samples, pairings))]

    def join(arrays):
        # a single job's arrays are used as they are, not copied
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    distributions = []
    for j, (scheme, app) in enumerate(pairings):
        parts = [result[j] for result in results]
        components = {name: join([p.components[name] for p in parts])
                      for name in COST_COMPONENTS}
        distributions.append(McDistribution.build(
            scheme.value, app.name, join([p.lcodr_vf for p in parts]),
            join([p.feasible for p in parts]), components))
    return distributions


# ---------------------------------------------------------------------------
# Cheapest-technology probabilities
# ---------------------------------------------------------------------------

def lcos_sample_matrix(lcos_entries: Sequence[Tuple[str, float]],
                       cfg: McConfig) -> np.ndarray:
    """Per-sample cost values for the storage reference technologies.

    Point sampling repeats the published value; same-scheme sampling applies
    the input perturbation treatment. Entry order determines substream ids,
    so keep the reference list order stable between runs.
    """
    matrix = np.empty((len(lcos_entries), cfg.samples))
    for e, (_, value) in enumerate(lcos_entries):
        if cfg.lcos_sampling is LcosSampling.POINT or cfg.sigma_inputs == 0.0:
            matrix[e, :] = value
            continue
        for i in range(cfg.samples):
            rng = _stream(cfg.seed, i, LCOS_ID_OFFSET + e)
            matrix[e, i] = _perturb_value(value, cfg.sigma_inputs,
                                          cfg.truncation_z, rng, lower=0.0)
    return matrix


def cheapest_probability(distributions: Sequence[McDistribution],
                         cfg: McConfig,
                         lcos_entries: Sequence[Tuple[str, float]] = ()) -> dict:
    """Probability of each technology having the lowest adjusted levelised
    cost, for one application.

    Per sample index, the minimum over all feasible DR distributions and all
    storage reference entries wins; ties go to the first technology in input
    order (DR distributions first, then references). Infeasible samples can
    never win. Returns {technology label: probability}; probabilities sum to
    1 over the samples where at least one technology is feasible.
    """
    if not distributions and not lcos_entries:
        raise NoFeasibleTechnology("no technologies supplied")
    app_names = {d.application for d in distributions}
    if len(app_names) > 1:
        raise UncertaintyError(
            f"distributions span several applications: {sorted(app_names)}")
    for d in distributions:
        if len(d.samples) != cfg.samples:
            raise UncertaintyError(
                f"{d.technology} has {len(d.samples)} samples, expected {cfg.samples}")

    labels = [d.technology for d in distributions] + [name for name, _ in lcos_entries]
    n_dr = len(distributions)
    values = np.full((len(labels), cfg.samples), np.inf)
    for t, d in enumerate(distributions):
        values[t, d.feasible] = d.samples[d.feasible]
    if lcos_entries:
        values[n_dr:, :] = lcos_sample_matrix(lcos_entries, cfg)

    counted_mask = np.isfinite(values).any(axis=0)
    counted = int(counted_mask.sum())
    if counted == 0:
        raise NoFeasibleTechnology(
            "no feasible technology in any sample for this application")
    # argmin takes the first minimum: the tie-break
    wins = np.bincount(np.argmin(values[:, counted_mask], axis=0),
                       minlength=len(labels))
    return {label: float(wins[t] / counted) for t, label in enumerate(labels)}
