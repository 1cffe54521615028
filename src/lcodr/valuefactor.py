"""Value factors from aligned price and availability time series.

The value factor compares the price-weighted availability of a DR scheme
with a flat, always-available profile. A constant availability (or a
constant price) gives exactly 1; values above 1 mean the scheme tends to be
available when electricity is expensive.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import timedelta
from typing import Dict, Optional, Sequence

import numpy as np

from .model import LcodrError, TimeSeries, philox_uniforms

#: Recorded in the manifest and the run id of `vf --subsample` runs: a
#: change to the subset selection changes it.
VF_RNG_SCHEME = "philox4x64-blake2b-argpartition-v2"

#: Iterations whose subsets `vf_subsample_mc` draws at once.
SUBSAMPLE_BLOCK = 1024


class ValueFactorError(LcodrError):
    #: The profile input the error arose in, when known, by its CLI flag dest.
    source: Optional[str] = None


class NoOverlap(ValueFactorError):
    pass


class IncompatibleIntervals(ValueFactorError):
    pass


class ZeroAvailabilityMean(ValueFactorError):
    pass


class ZeroPriceSum(ValueFactorError):
    source = "price"


class TooFewAssets(ValueFactorError):
    pass


@dataclass(frozen=True)
class AvailabilityProfile:
    """A DR availability series: uncontrolled load or dischargeable power, or,
    with `upper`, the lower and upper battery-energy boundaries."""

    series: TimeSeries
    upper: Optional[TimeSeries] = None
    asset_id: str = ""

    def __post_init__(self):
        if self.upper is None:
            if np.any(self.series.values < 0):
                raise ValueFactorError("availability values must be >= 0")
            return
        if (len(self.upper) != len(self.series)
                or self.upper.start != self.series.start
                or self.upper.interval_seconds != self.series.interval_seconds):
            raise ValueFactorError("energy boundary series must share one grid")
        if np.any(self.upper.values < self.series.values - 1e-9):
            raise ValueFactorError("upper energy boundary below lower boundary")

    def band(self) -> TimeSeries:
        """Usable series: the boundary difference for energy boundaries, the
        series itself otherwise."""
        if self.upper is not None:
            return self.series.with_values(self.upper.values - self.series.values)
        return self.series


def common_grid(a: TimeSeries, b: TimeSeries) -> tuple:
    """The coarser common grid of two series over their overlap: (start,
    interval, points). Intervals must be equal or related by an integer
    ratio. The grid starts at the overlap's first point of the coarser
    series, where both series must have a point, and holds the whole coarse
    intervals up to the overlap's end."""
    ia, ib = a.interval_seconds, b.interval_seconds
    coarse = max(ia, ib)
    ratio = coarse / min(ia, ib)
    if abs(ratio - round(ratio)) > 1e-9:
        raise IncompatibleIntervals(
            f"intervals {ia} s and {ib} s are not integer-related")
    start, end = max(a.start, b.start), min(a.end, b.end)
    if start >= end:
        raise NoOverlap("series do not overlap in time")
    shift = (start - (a if ia >= ib else b).start).total_seconds() % coarse
    if 1e-6 < shift < coarse - 1e-6:   # up to the coarser series' next point
        start += timedelta(seconds=coarse - shift)
    for series in (a, b):
        phase = (start - series.start).total_seconds() % series.interval_seconds
        if 1e-6 < phase < series.interval_seconds - 1e-6:
            raise IncompatibleIntervals("series grids are phase-shifted")
    points = int((end - start).total_seconds() // coarse)
    if points < 2:
        raise NoOverlap("series share fewer than 2 points on their common grid")
    return start, coarse, points


def crop(series: TimeSeries, grid: tuple):
    """(values, head, tail): the values of `series` on a common_grid, a finer
    series averaged over each grid interval, and the rows left off before
    and after them."""
    start, interval, points = grid
    ratio = int(round(interval / series.interval_seconds))
    head = int(round((start - series.start).total_seconds() / series.interval_seconds))
    values = series.values[head:head + points * ratio]
    if ratio > 1:
        values = values.reshape(points, ratio).mean(axis=1)
    return values, head, len(series) - head - points * ratio


def align(price: TimeSeries, profile: AvailabilityProfile):
    """Put a price series and the band of an availability profile on their
    common_grid, each cropped and a finer one averaged (crop). Returns
    (price, band), two TimeSeries on that grid."""
    band = profile.band()
    grid = common_grid(price, band)
    return tuple(TimeSeries(grid[0], grid[1], crop(s, grid)[0]) for s in (price, band))


def _check_sums(mean_avail, price_sum) -> None:
    """Refuse an undefined value factor: the availability mean first, then
    the price sum."""
    if mean_avail <= 0:
        raise ZeroAvailabilityMean("availability series has non-positive mean")
    if price_sum == 0:
        raise ZeroPriceSum("price series sums to zero")


def value_factor(price: TimeSeries, availability: TimeSeries) -> float:
    """Price-weighted availability relative to a flat profile.

    Both series must already share one grid. Scale-invariant in both the
    price and the availability; negative prices are accepted.
    """
    if len(price) != len(availability):
        raise ValueFactorError("price and availability must have equal length")
    p, a = price.values, availability.values
    mean_avail, price_sum = a.mean(), p.sum()
    _check_sums(mean_avail, price_sum)
    return float((p * a).sum() / (mean_avail * price_sum))


def check_pool_grid(first: TimeSeries, profile: AvailabilityProfile) -> None:
    """Refuse a pool asset not on `first`'s grid (start, interval, length)."""
    s = profile.series
    if (s.start, s.interval_seconds, len(s)) != (first.start, first.interval_seconds, len(first)):
        raise ValueFactorError(f"asset {profile.asset_id!r} is not on the first asset's grid")


def profile_factor(price: TimeSeries, profile: AvailabilityProfile) -> float:
    """The value factor of a profile's band against the price: value_factor
    of align's pair."""
    return value_factor(*align(price, profile))


def v2g_value_factors(price: TimeSeries, power_boundary: AvailabilityProfile,
                      energy_boundaries: AvailabilityProfile):
    """Separate value factors for V2G power and energy availability.

    Returns (vf_power, vf_energy); the energy variant weights the width of
    the battery-energy band.
    """
    return profile_factor(price, power_boundary), profile_factor(price, energy_boundaries)


@dataclass(frozen=True)
class VfDistribution:
    """Subsample sensitivity result: one value factor per iteration."""

    samples: np.ndarray
    mean: float
    median: float
    p5: float
    p95: float

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "VfDistribution":
        samples = np.asarray(samples, dtype=np.float64)
        samples.flags.writeable = False
        return cls(samples=samples, **summary_statistics(samples))


def summary_statistics(samples: np.ndarray) -> Dict[str, float]:
    """Mean, median, p5 and p95 of a 1-D array of samples.

    The percentiles are `np.percentile(samples, [50, 5, 95])` (the linear
    method) bit for bit, by numpy's own arithmetic: the same partition on
    the same kth set, the same two-sided lerp, and NaN wherever the
    partitioned array ends in NaN. np.percentile itself dedupes that kth
    set with np.unique, which imports numpy.ma, 1.2 MiB and 10 to 15 ms
    that a command otherwise never loads.
    """
    n = len(samples)
    virtual = (n - 1) * (np.array([50, 5, 95]) / 100)
    previous = np.floor(virtual)
    following = previous + 1
    last = virtual >= n - 1   # take the maximum
    previous[last] = following[last] = -1
    previous, following = previous.astype(np.intp), following.astype(np.intp)
    arr = np.partition(samples, sorted({0, -1, *previous.tolist(), *following.tolist()}))
    a, b, t = arr[previous], arr[following], virtual - previous
    diff = b - a
    lerp = a + diff * t
    np.subtract(b, diff * (1 - t), out=lerp, where=t >= 0.5)
    if np.isnan(arr[-1]):   # NaN sorts last
        lerp[:] = arr[-1]
    median, p5, p95 = lerp.tolist()
    return dict(mean=float(samples.mean()), median=median, p5=p5, p95=p95)


def subsample_masks(seed: int, n_assets: int, subset_size: int, start: int,
                    stop: int) -> np.ndarray:
    """The assets that iterations [start, stop) of `vf_subsample_mc` select,
    one boolean row per iteration.

    The draws come from one Philox4x64 stream keyed by the seed alone (the
    BLAKE2b digest of its hexadecimal text, `model.philox_uniforms`).
    Iteration i takes its uniforms n_assets * i to n_assets * (i + 1) - 1
    and selects the `subset_size` assets with the smallest of them. So
    the rows of a range equal those of any range that holds it.
    """
    uniforms = philox_uniforms(seed, [()], n_assets * start, n_assets * stop)[0]
    chosen = np.argpartition(uniforms.reshape(stop - start, n_assets), subset_size - 1,
                             axis=1)[:, :subset_size]
    mask = np.zeros((stop - start, n_assets), dtype=bool)
    np.put_along_axis(mask, chosen, True, axis=1)
    return mask


def vf_subsample_mc(profiles: Sequence[AvailabilityProfile], price: TimeSeries,
                    subset_size: int, iterations: int, seed: int) -> VfDistribution:
    """Sensitivity of the value factor to which assets happen to be in the
    pool: repeatedly draw `subset_size` assets without replacement
    (`subsample_masks`) and take the value factor of their summed profiles.

    The value factor is linear in the summed profile: with w_j = sum(p *
    a_j) and m_j = sum(a_j) per asset j over n points, a subset S has the
    factor sum_S(w) / ((sum_S(m) / n) * sum(p)). The common grid is decided
    once, from the price and the first asset, whose grid every asset must
    share (check_pool_grid); each asset is cropped onto it and reduced to
    w_j and m_j, and no pool of aligned profiles is held; each iteration
    sums `subset_size` scalars, in asset order. Selections are
    drawn SUBSAMPLE_BLOCK iterations at a time. The first subset whose
    factor is undefined raises value_factor's error, from its own mean and
    the price sum.
    """
    if subset_size < 1:
        raise ValueFactorError(f"subset size must be >= 1, got {subset_size}")
    if iterations < 1:
        raise ValueFactorError(f"iterations must be >= 1, got {iterations}")
    if len(profiles) < subset_size:
        raise TooFewAssets(
            f"need at least {subset_size} asset profiles, got {len(profiles)}")
    grid = common_grid(price, profiles[0].band())
    prices = crop(price, grid)[0]
    weighted, totals = np.empty(len(profiles)), np.empty(len(profiles))
    for j, prof in enumerate(profiles):
        check_pool_grid(profiles[0].series, prof)
        band = crop(prof.band(), grid)[0]
        weighted[j] = (band * prices).sum()
        totals[j] = band.sum()
    price_sum = prices.sum()

    samples = np.empty(iterations)
    for start in range(0, iterations, SUBSAMPLE_BLOCK):
        stop = min(start + SUBSAMPLE_BLOCK, iterations)
        mask = subsample_masks(seed, len(profiles), subset_size, start, stop)
        mean = np.where(mask, totals, 0.0).sum(axis=1) / grid[2]
        failed = np.flatnonzero((mean <= 0) | (price_sum == 0))
        if failed.size:   # value_factor's error, of the first failing subset
            _check_sums(mean[failed[0]], price_sum)
        samples[start:stop] = np.where(mask, weighted, 0.0).sum(axis=1) / (mean * price_sum)
    return VfDistribution.from_samples(samples)
