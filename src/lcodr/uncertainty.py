"""Monte-Carlo propagation of input uncertainty.

Every scalar input is independently perturbed with a truncated normal
distribution; all technologies are evaluated on the same perturbed draw
(common random numbers), so per-sample cost comparisons are paired.

Randomness is counter-based (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11). Each perturbed input, value factor and LCOS
reference entry has a substream id, and each (seed, substream, attempt)
keys one Philox4x64 generator. Sample i takes PROPOSALS uniform words of
that stream, starting at word i * PROPOSALS: a range of samples is drawn
at once by starting the generator's counter at the range's first sample.
Each pair of words gives two Box-Muller normals, and the first of the
PROPOSALS normals inside +/- truncation_z is the sample's draw. So the
draws are bit-identical for a fixed seed however the samples are split
into ranges. A sample with no accepted proposal (about 7e-12 of cells at
z = 1.285) draws on from its own generator, keyed by the sample index,
until one is accepted.

A drawn row that breaks a parameter invariant is redrawn whole on the next
attempt's substreams; only the failing rows are redrawn.

Evaluation is batched and runs in one process: every sample is drawn into
one samples x parameters matrix, and `costing.evaluate_batch`, the pairing
kernel that `lcodr run` calls on one row, runs on it once per pairing with
numpy over the sample axis. A sample's values depend on its row only, so
batching changes no output.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from .costing import BATCH_COLUMNS, batch_columns, batch_row, evaluate_batch
from .model import (
    ApplicationSpec,
    LcodrError,
    PARAMETERS,
    ParameterSet,
    SchemeKind,
    VALUE_FACTOR_KEYS,
    VALUE_FACTOR_SPECS,
    ValidationError,
    build_parameter_set,
    philox_generator,
    valid_rows,
)

#: Substream ids: scalar parameters take their registry position, value
#: factors and LCOS reference entries follow in fixed blocks. Append-only.
VF_ID_OFFSET = len(PARAMETERS)
LCOS_ID_OFFSET = VF_ID_OFFSET + len(VALUE_FACTOR_KEYS)

#: Normal proposals, and uniform words, per (sample, substream, attempt).
#: A multiple of 4, so every sample starts on a Philox counter block.
PROPOSALS = 16

#: Recorded in the manifest and the run id: a change to the draws changes it.
RNG_SCHEME = "philox4x64-boxmuller-v1"

#: Attempts at a row that meets every parameter invariant.
MAX_ATTEMPTS = 100


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
        for name in ("sigma_inputs", "sigma_vf"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValidationError(f"must be a finite number >= 0, got {value!r}", name)
        if not (np.isfinite(self.truncation_z) and self.truncation_z > 0):
            raise ValidationError(
                f"must be a finite number > 0 sigma, got {self.truncation_z!r}", "truncation_z")


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


def _first_accepted(uniforms: np.ndarray, z: float) -> np.ndarray:
    """Per row of PROPOSALS uniforms, the first of its Box-Muller normals in
    [-z, z], NaN where there is none.

    Words 2k and 2k+1 give proposals 2k (r cos a) and 2k+1 (r sin a), with
    r = sqrt(-2 ln(1 - u_2k)) and a = 2 pi u_2k+1. A pair is only worked out
    for the rows still without a draw.
    """
    draws = np.full(len(uniforms), np.nan)
    pending = np.arange(len(uniforms))
    for k in range(0, PROPOSALS, 2):
        u = uniforms[pending]
        radius = np.sqrt(-2.0 * np.log1p(-u[:, k]))
        angle = 2.0 * np.pi * u[:, k + 1]
        cos, sin = radius * np.cos(angle), radius * np.sin(angle)
        cos_ok = np.abs(cos) <= z
        ok = cos_ok | (np.abs(sin) <= z)
        draws[pending[ok]] = np.where(cos_ok, cos, sin)[ok]
        pending = pending[~ok]
        if not len(pending):
            break
    return draws


def truncated_normals(seed: int, stream: int, attempt: int, start: int, stop: int,
                      z: float) -> np.ndarray:
    """Standard normal draws truncated at +/- z for the samples [start, stop)
    of one substream and attempt; equal for any split of a range."""
    gen = philox_generator(seed, stream, attempt, counter=start * PROPOSALS // 4)
    draws = _first_accepted(gen.random((stop - start, PROPOSALS)), z)
    for row in np.flatnonzero(np.isnan(draws)):
        # no proposal accepted: go on with the sample's own generator, in
        # blocks of PROPOSALS words (sample indices shifted so that none is 0)
        fallback = philox_generator(seed, stream, attempt, start + row + 1)
        while np.isnan(draws[row]):
            draws[row] = _first_accepted(fallback.random((1, PROPOSALS)), z)[0]
    return draws


def _drawn_columns(cfg: McConfig) -> list:
    """(column, spec, name of its McConfig sigma) of every column Monte-Carlo
    perturbs, in BATCH_COLUMNS order; a column's index is also its substream
    id."""
    specs = ([(spec, "sigma_inputs") for spec in PARAMETERS]
             + [(spec, "sigma_vf") for spec in VALUE_FACTOR_SPECS])
    return [(column, spec, sigma) for column, (spec, sigma) in enumerate(specs)
            if spec.perturb and getattr(cfg, sigma) != 0.0]


def _spread(value: float, cfg: McConfig, sigma: str) -> float:
    """The standard deviation of the draws around `value`: the McConfig field
    `sigma` times |value|. A ValidationError naming that field where the
    widest draw, |value| + spread * truncation_z, is beyond the float range."""
    value, relative = float(value), float(getattr(cfg, sigma))
    spread = relative * abs(value)
    if not math.isfinite(abs(value) + spread * cfg.truncation_z):
        raise ValidationError(f"{relative!r} would overflow the draws around {value!r}", sigma)
    return spread


def perturb_matrix(base: ParameterSet, cfg: McConfig, start: int, stop: int) -> np.ndarray:
    """The perturbed inputs of the samples [start, stop): one row per sample,
    one column per BATCH_COLUMNS entry.

    Each perturbed scalar input and value factor is drawn on its own
    substream and clamped to its registered domain. A row that breaks an
    invariant (`model.valid_rows`) is redrawn whole on the next attempt's
    substreams; after MAX_ATTEMPTS the base configuration is declared
    unsatisfiable. A sigma under which a draw could overflow is a
    ValidationError. Row i depends only on (base, cfg, start + i).
    """
    base_row = np.array(batch_row(base), dtype=float)
    columns = np.repeat(base_row[:, None], stop - start, axis=1)
    pending = np.arange(stop - start)
    for attempt in range(MAX_ATTEMPTS):
        if not len(pending):
            return columns.T
        # the failing rows are redrawn from the span of samples that holds them
        lo, hi = pending[0], pending[-1] + 1
        for column, spec, sigma in _drawn_columns(cfg):
            value = base_row[column]
            drawn = value + _spread(value, cfg, sigma) * truncated_normals(
                cfg.seed, column, attempt, start + lo, start + hi, cfg.truncation_z)
            if spec.lower is not None:
                drawn = np.maximum(spec.lower, drawn)
            if spec.upper is not None:
                drawn = np.minimum(spec.upper, drawn)
            columns[column, pending] = drawn[pending - lo]
        pending = pending[~valid_rows(dict(zip(BATCH_COLUMNS, columns[:, pending])))]
    if not len(pending):
        return columns.T
    error = None
    try:
        _parameter_set(columns[:, pending[0]], base)
    except ValidationError as exc:
        error = exc
    raise PerturbationUnsatisfiable(
        f"no valid perturbation found in {MAX_ATTEMPTS} attempts "
        f"(sample {start + pending[0]}): {error}")


def _parameter_set(row, base: ParameterSet) -> ParameterSet:
    """The ParameterSet of one matrix row."""
    values = dict(zip(BATCH_COLUMNS, row.tolist()))
    return build_parameter_set({spec.key: values[spec.key] for spec in PARAMETERS},
                               {key: values[key] for key in VALUE_FACTOR_KEYS},
                               base.assumptions)


def perturb_parameters(base: ParameterSet, cfg: McConfig,
                       sample_index: int) -> ParameterSet:
    """The perturbed parameter set for one sample index: row sample_index of
    any `perturb_matrix` range that holds it, as a validated ParameterSet.

    Deterministic: repeated calls with equal (base, cfg, sample_index)
    return an identical set.
    """
    return _parameter_set(perturb_matrix(base, cfg, sample_index, sample_index + 1)[0], base)


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
            median, p5, p95 = np.percentile(ok, [50, 5, 95]).tolist()
            stats = dict(mean=float(ok.mean()), median=median, p5=p5, p95=p95)
        else:
            nan = float("nan")
            stats = dict(mean=nan, median=nan, p5=nan, p95=nan)
        return cls(technology=technology, application=application,
                   samples=samples, feasible=feasible, components=components,
                   feasible_fraction=float(feasible.mean()), **stats)


def run_monte_carlo(schemes: Sequence[SchemeKind], apps: Sequence[ApplicationSpec],
                    base: ParameterSet, cfg: McConfig) -> list:
    """Monte-Carlo batch over every (scheme, application) pairing.

    One perturbed parameter set per sample index is shared by all pairings,
    so cross-technology comparisons within a sample use common random
    numbers. Every sample is drawn into one matrix, and each pairing is
    evaluated over it in one `evaluate_batch` call. Returns one
    McDistribution per pairing, ordered scheme-major.
    """
    columns = batch_columns(perturb_matrix(base, cfg, 0, cfg.samples))
    distributions = []
    for scheme in schemes:
        for app in apps:
            batch = evaluate_batch(scheme, app, columns, base.assumptions)
            distributions.append(McDistribution.build(
                scheme.value, app.name, batch.lcodr_vf, batch.feasible, batch.components))
    return distributions


# ---------------------------------------------------------------------------
# Cheapest-technology probabilities
# ---------------------------------------------------------------------------

def lcos_sample_matrix(lcos_entries: Sequence[Tuple[str, float]],
                       cfg: McConfig) -> np.ndarray:
    """Per-sample cost values for the storage reference technologies.

    Point sampling repeats the published value; same-scheme sampling applies
    the input perturbation treatment, floored at 0. Entry order determines
    substream ids, so keep the reference list order stable between runs.
    """
    matrix = np.empty((len(lcos_entries), cfg.samples))
    for e, (_, value) in enumerate(lcos_entries):
        if cfg.lcos_sampling is LcosSampling.POINT or cfg.sigma_inputs == 0.0:
            matrix[e, :] = value
            continue
        drawn = value + _spread(value, cfg, "sigma_inputs") * truncated_normals(
            cfg.seed, LCOS_ID_OFFSET + e, 0, 0, cfg.samples, cfg.truncation_z)
        matrix[e, :] = np.maximum(0.0, drawn)
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
