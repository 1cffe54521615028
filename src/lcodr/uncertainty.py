"""Monte-Carlo propagation of input uncertainty.

Every scalar input is independently perturbed with a truncated normal
distribution; all technologies are evaluated on the same perturbed draw
(common random numbers), so per-sample cost comparisons are paired.

Randomness is counter-based (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11). Each perturbed input, value factor and LCOS
reference entry has a substream id: an input's or value factor's id is its
column in `model.SAMPLE_ROW`, and the LCOS entries follow from
LCOS_ID_OFFSET. Each (seed, substream, attempt) keys one Philox4x64
stream, by the BLAKE2b digest of those integers in hexadecimal (so
different triples give independent streams), and sample i takes uniform
word i of that stream: the words of a range of samples, for every
substream of an attempt, come from one call of `model.philox_uniforms`.
The word is mapped through the inverse normal CDF (`model.normal_quantiles`,
AS241 as `statistics.NormalDist` evaluates it) over the draw's window: +/-
TRUNCATION_Z intersected with the parameter's domain, standardised. So
each draw is a normal conditioned on that window, never a value moved onto
a bound, and the draws are bit-identical for a fixed seed however the
samples are split into ranges.

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
import numbers
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from .costing import (BATCH_COLUMNS, COST_COMPONENTS, batch_columns, batch_row,
                      evaluate_batch)
from .model import (
    ApplicationSpec,
    LcodrError,
    ParameterSet,
    SAMPLE_ROW,
    SchemeKind,
    VALUE_FACTOR_KEYS,
    ValidationError,
    build_parameter_set,
    normal_quantiles,
    philox_uniforms,
    valid_rows,
)
from .valuefactor import summary_statistics

#: Substream ids: a sample-row column takes its position in model.SAMPLE_ROW,
#: and the LCOS reference entries follow in a fixed block. Append-only.
LCOS_ID_OFFSET = len(SAMPLE_ROW)

#: Recorded in the manifest and the run id: a change to the draws changes it.
RNG_SCHEME = "philox4x64-blake2b-invcdf-v2"

#: Attempts at a row that meets every parameter invariant.
MAX_ATTEMPTS = 100

#: Draws are truncated at this many standard deviations either side of the
#: mean. Recorded in the manifest and the run id.
TRUNCATION_Z = 1.285


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
    truncated at TRUNCATION_Z standard deviations either side of the mean.
    """

    samples: int = 1000
    sigma_inputs: float = 0.33
    sigma_vf: float = 0.10
    seed: int = 0
    lcos_sampling: LcosSampling = LcosSampling.POINT

    def __post_init__(self):
        for name, least in (("samples", 1), ("seed", 0)):
            value = getattr(self, name)   # a bool is not a count, though True == 1
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValidationError(f"must be an integer >= {least}, got {value!r}", name)
        for name in ("sigma_inputs", "sigma_vf"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValidationError(f"must be a finite number >= 0, got {value!r}", name)


def _normal_cdf(x: float) -> float:
    """Phi(x), by `statistics.NormalDist().cdf`'s formula."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _truncated(words: np.ndarray, lower: float, upper: float) -> np.ndarray:
    """Standard normal draws conditioned on [lower, upper]: each uniform u
    maps to Phi^-1(Phi(lower) + u * (Phi(upper) - Phi(lower)))."""
    low = _normal_cdf(lower)
    return normal_quantiles(low + words * (_normal_cdf(upper) - low))


def _window(value: float, spread: float, lower, upper) -> tuple:
    """The standardised window of the draws around `value`: +/- TRUNCATION_Z
    intersected with the domain [lower, upper], where None is unbounded. A
    distance to a bound is compared with TRUNCATION_Z * spread before it is
    divided, so a spread of 0 divides nothing and a subnormal one overflows
    nothing."""
    reach = TRUNCATION_Z * spread
    distances = (-math.inf if lower is None else lower - value,
                 math.inf if upper is None else upper - value)
    return tuple(-TRUNCATION_Z if d <= -reach else TRUNCATION_Z if d >= reach else d / spread
                 for d in distances)


def _drawn_columns(cfg: McConfig) -> list:
    """(column, spec, name of its McConfig sigma) of every column Monte-Carlo
    perturbs, in SAMPLE_ROW order; a column's index is also its substream
    id."""
    columns = [(column, spec, "sigma_vf" if spec.group == "value_factors" else "sigma_inputs")
               for column, spec in enumerate(SAMPLE_ROW)]
    return [(column, spec, sigma) for column, spec, sigma in columns
            if spec.perturb and getattr(cfg, sigma) != 0.0]


def _spread(value: float, cfg: McConfig, sigma: str) -> float:
    """The standard deviation of the draws around `value`: the McConfig field
    `sigma` times |value|. A ValidationError naming that field where the
    widest draw, |value| + spread * TRUNCATION_Z, is beyond the float range."""
    value, relative = float(value), float(getattr(cfg, sigma))
    spread = relative * abs(value)
    if not math.isfinite(abs(value) + spread * TRUNCATION_Z):
        raise ValidationError(f"{relative!r} would overflow the draws around {value!r}", sigma)
    return spread


def perturb_matrix(base: ParameterSet, cfg: McConfig, start: int, stop: int) -> np.ndarray:
    """The perturbed inputs of the samples [start, stop): one row per sample,
    one column per BATCH_COLUMNS entry.

    Each perturbed scalar input and value factor is drawn on its own
    substream, conditioned on its registered domain. A row that breaks an
    invariant (`model.valid_rows`) is redrawn whole on the next attempt's
    substreams; after MAX_ATTEMPTS the base configuration is declared
    unsatisfiable. A sigma under which a draw could overflow is a
    ValidationError. Row i depends only on (base, cfg, start + i).
    """
    base_row = np.array(batch_row(base), dtype=float)
    columns = np.repeat(base_row[:, None], stop - start, axis=1)
    pending = np.arange(stop - start)
    drawn = _drawn_columns(cfg)
    for attempt in range(MAX_ATTEMPTS):
        if not len(pending):
            return columns.T
        # the failing rows are redrawn from the span of samples that holds them
        lo, hi = pending[0], pending[-1] + 1
        words = philox_uniforms(cfg.seed, [(column, attempt) for column, _, _ in drawn],
                                start + lo, start + hi)
        for (column, spec, sigma), row in zip(drawn, words):
            value = base_row[column]
            spread = _spread(value, cfg, sigma)
            columns[column, pending] = value + spread * _truncated(
                row[pending - lo], *_window(value, spread, spec.lower, spec.upper))
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
    factors = {key: values.pop(key) for key in VALUE_FACTOR_KEYS}
    return build_parameter_set(values, factors, base.assumptions)


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
    where that sample was infeasible. cost_shares holds, per COST_COMPONENTS
    name, the mean over the feasible samples of that component's share of
    their summed components; it is empty where no sample is feasible. The
    per-sample components themselves are not kept. Summary statistics are
    over the feasible subset only, with percentiles by linear interpolation;
    feasible_fraction exposes how much of the sample survived.
    """

    technology: str
    application: str
    samples: np.ndarray
    feasible: np.ndarray
    cost_shares: Dict[str, float] = field(default_factory=dict)
    mean: float = float("nan")
    median: float = float("nan")
    p5: float = float("nan")
    p95: float = float("nan")
    feasible_fraction: float = 0.0

    @classmethod
    def build(cls, technology: str, application: str, samples: np.ndarray,
              feasible: np.ndarray, components: Dict[str, np.ndarray]) -> "McDistribution":
        """The distribution of `samples`, reducing `components` (per-sample
        arrays by COST_COMPONENTS name, or empty) to their mean shares."""
        samples = np.asarray(samples, dtype=np.float64)
        feasible = np.asarray(feasible, dtype=bool)
        for arr in (samples, feasible):
            arr.flags.writeable = False
        ok = samples[feasible]
        stats = summary_statistics(ok) if len(ok) else {}
        shares = {}
        if len(ok) and components:
            parts = [components[c][feasible] for c in COST_COMPONENTS]
            total = sum(parts)
            shares = {c: float((part / total).mean()) for c, part in zip(COST_COMPONENTS, parts)}
        return cls(technology=technology, application=application,
                   samples=samples, feasible=feasible, cost_shares=shares,
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

def lcos_uniforms(cfg: McConfig, entries: int):
    """The uniform words of the same-scheme LCOS entries 0 .. entries - 1, one
    row per entry, keyed (LCOS_ID_OFFSET + e, 0); None where no entry is
    drawn (point sampling, or sigma_inputs 0). Entry e of every application
    reads row e, so one call over the longest entry list serves a run."""
    if cfg.lcos_sampling is LcosSampling.POINT or cfg.sigma_inputs == 0.0:
        return None
    return philox_uniforms(cfg.seed, [(LCOS_ID_OFFSET + e, 0) for e in range(entries)],
                           0, cfg.samples)


def lcos_sample_matrix(lcos_entries: Sequence[Tuple[str, float]],
                       cfg: McConfig, words=None) -> np.ndarray:
    """Per-sample cost values for the storage reference technologies.

    Point sampling repeats the published value; same-scheme sampling applies
    the input perturbation treatment, conditioned on [0, inf), to the rows
    of `words` (`lcos_uniforms` of at least len(lcos_entries) entries, drawn
    here when None). Entry order determines substream ids, so keep the
    reference list order stable between runs.
    """
    if words is None:
        words = lcos_uniforms(cfg, len(lcos_entries))
    matrix = np.empty((len(lcos_entries), cfg.samples))
    if words is None:
        for e, (_, value) in enumerate(lcos_entries):
            matrix[e] = value
        return matrix
    for e, ((_, value), row) in enumerate(zip(lcos_entries, words)):
        spread = _spread(value, cfg, "sigma_inputs")
        matrix[e] = value + spread * _truncated(row, *_window(value, spread, 0.0, None))
    return matrix


def cheapest_probability(distributions: Sequence[McDistribution],
                         cfg: McConfig,
                         lcos_entries: Sequence[Tuple[str, float]] = (),
                         lcos_words=None) -> dict:
    """Probability of each technology having the lowest adjusted levelised
    cost, for one application.

    Per sample index, the minimum over all feasible DR distributions and all
    storage reference entries wins; ties go to the first technology in input
    order (DR distributions first, then references). Infeasible samples can
    never win. The references are drawn by `lcos_sample_matrix` from
    `lcos_words`. Returns {technology label: probability}; probabilities sum to
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
        values[n_dr:, :] = lcos_sample_matrix(lcos_entries, cfg, lcos_words)

    counted_mask = np.isfinite(values).any(axis=0)
    counted = int(counted_mask.sum())
    if counted == 0:
        raise NoFeasibleTechnology(
            "no feasible technology in any sample for this application")
    # argmin takes the first minimum: the tie-break
    wins = np.bincount(np.argmin(values[:, counted_mask], axis=0),
                       minlength=len(labels))
    return {label: float(wins[t] / counted) for t, label in enumerate(labels)}
