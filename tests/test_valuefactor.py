import hashlib
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcodr import data, valuefactor
from lcodr.model import TimeSeries
from lcodr.valuefactor import (
    AvailabilityProfile,
    IncompatibleIntervals,
    NoOverlap,
    TooFewAssets,
    ValueFactorError,
    ZeroAvailabilityMean,
    ZeroPriceSum,
    align,
    common_grid,
    crop,
    subsample_masks,
    summary_statistics,
    v2g_value_factors,
    value_factor,
    vf_subsample_mc,
)

START = datetime(2023, 1, 1, tzinfo=timezone.utc)


def series(values, interval=3600.0, start=START):
    return TimeSeries(start, interval, np.array(values, dtype=float))


def test_two_point_fixture():
    # price [1, 3] against availability [0, 1]:
    # sum(p*a) = 3; mean(a) = 0.5; sum(p) = 4  ->  3 / 2 = 1.5
    assert value_factor(series([1.0, 3.0]), series([0.0, 1.0])) == 1.5


def test_constant_series_identity():
    price = series([30.0, 70.0, 50.0, 45.0])
    flat = series([2.0, 2.0, 2.0, 2.0])
    assert value_factor(price, flat) == pytest.approx(1.0, abs=1e-15)
    # a constant price also pins the factor at one for any availability
    assert value_factor(series([50.0] * 4), series([0.1, 0.9, 0.3, 0.7])) == \
        pytest.approx(1.0, abs=1e-15)


def test_scale_invariance():
    rng = np.random.default_rng(7)
    p = rng.uniform(10, 90, 48)
    a = rng.uniform(0, 5, 48)
    base = value_factor(series(p), series(a))
    assert value_factor(series(17.3 * p), series(a)) == pytest.approx(base, rel=1e-12)
    assert value_factor(series(p), series(0.001 * a)) == pytest.approx(base, rel=1e-12)


def test_degenerate_inputs():
    with pytest.raises(ZeroAvailabilityMean):
        value_factor(series([1.0, 2.0]), series([0.0, 0.0]))
    with pytest.raises(ZeroPriceSum):
        value_factor(series([-1.0, 1.0]), series([1.0, 2.0]))


def aligned(a, b):
    """align with `a` as the price and `b` as an availability profile."""
    return align(a, AvailabilityProfile(b))


def test_align_identical_grids():
    a = series([1.0, 2.0, 3.0, 4.0])
    b = series([5.0, 6.0, 7.0, 8.0])
    a2, b2 = aligned(a, b)
    assert list(a2.values) == [1.0, 2.0, 3.0, 4.0]
    assert list(b2.values) == [5.0, 6.0, 7.0, 8.0]
    grid = common_grid(a, b)
    assert crop(a, grid)[1] == 0 and crop(b, grid)[2] == 0


def test_align_overlap_cropping():
    a = series([1.0, 2.0, 3.0, 4.0])
    b = series([9.0, 9.0, 9.0], start=START + timedelta(hours=2))
    a2, b2 = aligned(a, b)
    assert len(a2) == 2
    assert list(a2.values) == [3.0, 4.0]
    grid = common_grid(a, b)
    assert crop(a, grid)[1] == 2
    assert crop(b, grid)[2] == 1


def test_align_integer_ratio_averages_fine_series():
    coarse = series([10.0, 20.0], interval=7200.0)
    fine = series([1.0, 3.0, 5.0, 7.0], interval=3600.0)
    c2, f2 = aligned(coarse, fine)
    assert f2.interval_seconds == 7200.0
    assert list(f2.values) == [2.0, 6.0]   # bucket means


def test_align_takes_the_band_of_energy_boundaries():
    price = series([10.0, 20.0, 30.0, 40.0])
    lower = series([0.0, 1.0, 2.0], start=START + timedelta(hours=1))
    profile = AvailabilityProfile(lower, upper=lower.with_values(np.array([3.0, 3.0, 3.0])))
    p2, band = align(price, profile)
    assert (p2.start, p2.interval_seconds) == (band.start, band.interval_seconds)
    assert list(p2.values) == [20.0, 30.0, 40.0]
    assert list(band.values) == [3.0, 2.0, 1.0]


@pytest.mark.parametrize("swap", [False, True])
def test_align_rejects_non_integer_ratio(swap):
    a, b = series([1.0, 2.0], interval=3600.0), series([1.0, 2.0], interval=2500.0)
    with pytest.raises(IncompatibleIntervals):
        aligned(*((b, a) if swap else (a, b)))


@pytest.mark.parametrize("swap", [False, True])
def test_align_rejects_disjoint_ranges(swap):
    late = series([1.0, 2.0], start=START + timedelta(days=30))
    with pytest.raises(NoOverlap):
        aligned(*((late, series([1.0, 2.0])) if swap else (series([1.0, 2.0]), late)))
    two_hourly, hourly = series([1.0, 2.0], interval=7200.0), series([1.0, 2.0, 3.0])
    with pytest.raises(NoOverlap):   # one point on the common 2 h grid
        aligned(*((hourly, two_hourly) if swap else (two_hourly, hourly)))


@pytest.mark.parametrize("swap", [False, True], ids=["hourly-first", "shifted-first"])
@pytest.mark.parametrize("shifted", [
    series(np.arange(10.0), start=START + timedelta(minutes=30)),
    series(np.arange(20.0), interval=1800.0, start=START + timedelta(minutes=15)),
], ids=["hourly-at-30", "half-hourly-at-15-and-45"])
def test_align_rejects_a_series_with_no_point_at_the_grid_start(shifted, swap):
    # the grid starts at the hourly series' first point after the overlap
    # starts, 01:00, where the other series has none
    hourly = series(np.arange(10.0))
    with pytest.raises(IncompatibleIntervals, match="phase-shifted"):
        aligned(*((shifted, hourly) if swap else (hourly, shifted)))


@pytest.mark.parametrize("swap", [False, True])
def test_crop_counts_every_unused_row(swap):
    # 9.5 hours in common: 9 points, so the hourly series' row 10 and the
    # half-hourly one's row 19 are unused
    hourly, half_hourly = series(np.arange(10.0)), series(np.arange(19.0), interval=1800.0)
    a, b = (half_hourly, hourly) if swap else (hourly, half_hourly)
    a2, b2 = aligned(a, b)
    assert len(a2) == len(b2) == 9
    grid = common_grid(a, b)
    (va, head_a, tail_a), (vb, head_b, tail_b) = crop(a, grid), crop(b, grid)
    assert (head_a, tail_a, head_b, tail_b) == (0, 1, 0, 1)
    assert list(va) == list(a2.values) and list(vb) == list(b2.values)
    for whole, values, head, tail in ((a, va, head_a, tail_a), (b, vb, head_b, tail_b)):
        ratio = round(grid[1] / whole.interval_seconds)
        assert head + len(values) * ratio + tail == len(whole)


def test_subsample_mc_decides_the_common_grid_once(monkeypatch):
    decided = []

    def counted(a, b):
        decided.append((a, b))
        return common_grid(a, b)

    monkeypatch.setattr(valuefactor, "common_grid", counted)
    pool = [AvailabilityProfile(series(p.series.values, interval=1800.0), asset_id=p.asset_id)
            for p in _pool(12, length=96)]
    vf_subsample_mc(pool, series(np.linspace(10, 90, 48)), subset_size=4, iterations=30, seed=1)
    assert len(decided) == 1


def test_energy_boundary_profile_band():
    lower = series([0.0, 10.0, 5.0])
    upper = series([20.0, 30.0, 5.0])
    prof = AvailabilityProfile(lower, upper=upper)
    assert list(prof.band().values) == [20.0, 20.0, 0.0]
    with pytest.raises(Exception):
        AvailabilityProfile(upper, upper=lower)


def test_v2g_value_factors_power_vs_energy():
    price = series([10.0, 50.0, 90.0, 50.0])
    power = AvailabilityProfile(series([1.0, 1.0, 1.0, 1.0]))
    energy = AvailabilityProfile(series([0.0, 0.0, 0.0, 0.0]),
                                 upper=series([0.0, 10.0, 20.0, 10.0]))
    vf_p, vf_e = v2g_value_factors(price, power, energy)
    assert vf_p == pytest.approx(1.0, abs=1e-15)
    # band [0,10,20,10]: sum(p*b) = 500+1800+500 = 2800; mean 10; sum(p) 200
    assert vf_e == pytest.approx(2800.0 / 2000.0, rel=1e-12)


def _pool(n, length=48, seed=3):
    pool = []
    for i in range(n):
        rng = np.random.default_rng((seed, i))
        pool.append(AvailabilityProfile(series(rng.uniform(0, 2, length)), asset_id=f"a{i}"))
    return pool


def test_subsample_mc_deterministic():
    pool = _pool(20)
    price = series(np.linspace(10, 90, 48))
    d1 = vf_subsample_mc(pool, price, subset_size=5, iterations=40, seed=11)
    d2 = vf_subsample_mc(pool, price, subset_size=5, iterations=40, seed=11)
    assert np.array_equal(d1.samples, d2.samples)
    d3 = vf_subsample_mc(pool, price, subset_size=5, iterations=40, seed=12)
    assert not np.array_equal(d1.samples, d3.samples)
    assert d1.p5 <= d1.median <= d1.p95


def test_subsample_mc_needs_enough_assets():
    pool = _pool(4)
    with pytest.raises(TooFewAssets):
        vf_subsample_mc(pool, series(np.linspace(10, 90, 48)), subset_size=5, iterations=1,
                        seed=0)
    with pytest.raises(ValueFactorError, match="subset size"):
        vf_subsample_mc(pool, series(np.linspace(10, 90, 48)), subset_size=0, iterations=1,
                        seed=0)


@pytest.mark.parametrize("iterations", [0, -3])
def test_subsample_mc_needs_an_iteration(iterations):
    with pytest.raises(ValueFactorError, match=f"iterations must be >= 1, got {iterations}"):
        vf_subsample_mc(_pool(4), series(np.linspace(10, 90, 48)), subset_size=2,
                        iterations=iterations, seed=0)


@pytest.mark.parametrize("seed", [0, 5, 13])
def test_subsample_mc_equals_gathered_sum(seed):
    # the linear path against value_factor of the summed profiles of the
    # same subsets, including subsets of the whole pool
    price = series(np.random.default_rng(seed).uniform(5, 95, 96))
    for n_assets, subset_size, iterations in ((30, 12, 60), (30, 30, 20), (7, 1, 40),
                                              (45, 44, 1100)):
        pool = _pool(n_assets, length=96, seed=seed)
        dist = vf_subsample_mc(pool, price, subset_size=subset_size,
                               iterations=iterations, seed=seed)
        stack = np.stack([p.series.values for p in pool])
        masks = subsample_masks(seed, n_assets, subset_size, 0, iterations)
        reference = [value_factor(price, price.with_values(stack[m].sum(axis=0)))
                     for m in masks]
        np.testing.assert_allclose(dist.samples, reference, rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", [0, 5, 13])
def test_subsample_mc_equals_the_stacked_formula_bit_for_bit(seed):
    # the per-asset sums against the whole-pool formula they replace:
    # aligned profiles stacked, each row of (pool * p).sum(axis=1); the
    # price starts 2 hours early and runs 4 hours late, so both are cropped,
    # and the 30-asset pool is half-hourly, so it is averaged to hours
    price = series(np.random.default_rng(seed).uniform(5, 95, 102),
                   start=START - timedelta(hours=2))
    for n_assets, interval in ((7, 3600.0), (30, 1800.0), (45, 3600.0)):
        pool = [AvailabilityProfile(series(p.series.values, interval=interval))
                for p in _pool(n_assets, length=int(96 * 3600 / interval), seed=seed)]
        dist = vf_subsample_mc(pool, price, subset_size=5, iterations=300, seed=seed)
        pairs = [valuefactor.align(price, prof) for prof in pool]
        p = pairs[0][0].values
        stack = np.stack([band.values for _, band in pairs])
        weighted, totals = (stack * p).sum(axis=1), stack.sum(axis=1)
        masks = subsample_masks(seed, n_assets, 5, 0, 300)
        mean = np.where(masks, totals, 0.0).sum(axis=1) / len(p)
        assert (dist.samples == np.where(masks, weighted, 0.0).sum(axis=1)
                / (mean * p.sum())).all()


def test_subsets_are_the_smallest_uniforms_of_each_iteration():
    n_assets, subset_size = 9, 4
    # the stream of the seed alone: keyed by the BLAKE2b digest of "3"
    digest = hashlib.blake2b(b"3", digest_size=16).digest()
    key = np.frombuffer(digest, dtype="<u8")
    uniforms = np.random.Generator(np.random.Philox(key=key)).random(50 * n_assets).reshape(
        50, n_assets)
    want = np.zeros((50, n_assets), dtype=bool)
    np.put_along_axis(want, np.argsort(uniforms, axis=1)[:, :subset_size], True, axis=1)
    assert np.array_equal(subsample_masks(3, n_assets, subset_size, 0, 50), want)


def test_subsets_hold_subset_size_distinct_assets():
    for n_assets, subset_size in ((20, 5), (13, 13), (6, 1)):
        masks = subsample_masks(2, n_assets, subset_size, 0, 500)
        assert (masks.sum(axis=1) == subset_size).all()


def test_subset_ranges_are_slices_of_one_stream():
    # starts whose first uniform is not on a Philox counter block included
    whole = subsample_masks(8, 7, 3, 0, 40)
    for start, stop in ((0, 1), (1, 40), (3, 9), (13, 14)):
        assert np.array_equal(subsample_masks(8, 7, 3, start, stop), whole[start:stop])


def test_selection_frequency_is_subset_size_over_n_assets():
    n_assets, subset_size, iterations = 20, 5, 4000
    counts = subsample_masks(17, n_assets, subset_size, 0, iterations).sum(axis=0)
    share = subset_size / n_assets
    sigma = np.sqrt(iterations * share * (1 - share))
    assert (np.abs(counts - iterations * share) <= 4 * sigma).all()


def test_subsample_mc_block_size_changes_nothing(monkeypatch):
    pool = _pool(11, seed=4)
    price = series(np.linspace(10, 90, 48))
    whole = vf_subsample_mc(pool, price, subset_size=6, iterations=50, seed=9)
    monkeypatch.setattr(valuefactor, "SUBSAMPLE_BLOCK", 7)
    blocks = vf_subsample_mc(pool, price, subset_size=6, iterations=50, seed=9)
    assert np.array_equal(whole.samples, blocks.samples)


def test_subsample_mc_raises_value_factor_errors():
    price = series(np.linspace(10, 90, 48))
    pool = _pool(3)
    pool[1] = AvailabilityProfile(series(np.zeros(48)))
    with pytest.raises(ZeroAvailabilityMean, match="non-positive mean"):
        vf_subsample_mc(pool, price, subset_size=1, iterations=200, seed=0)
    zero_sum = series(np.tile([-1.0, 1.0], 24))
    with pytest.raises(ZeroPriceSum, match="sums to zero"):
        vf_subsample_mc(_pool(3), zero_sum, subset_size=2, iterations=5, seed=0)
    # iteration 0 of seed s selects the zero asset: value_factor checks the
    # availability mean before the price sum
    s = next(s for s in range(100) if subsample_masks(s, 3, 1, 0, 1)[0, 1])
    with pytest.raises(ZeroAvailabilityMean):
        vf_subsample_mc(pool, zero_sum, subset_size=1, iterations=5, seed=s)


def test_subsample_mc_raises_its_errors_without_value_factor_or_a_crop(monkeypatch):
    # a failing subset's error comes from its own mean and the price sum:
    # no subset profile is summed and nothing is cropped after the set-up
    def unused(*args):
        raise AssertionError("value_factor was called")

    crops = []

    def counted(series, grid):
        crops.append(series)
        return crop(series, grid)

    monkeypatch.setattr(valuefactor, "value_factor", unused)
    monkeypatch.setattr(valuefactor, "crop", counted)
    pool = _pool(3)
    pool[1] = AvailabilityProfile(series(np.zeros(48)))
    with pytest.raises(ZeroAvailabilityMean, match="availability series has non-positive mean"):
        vf_subsample_mc(pool, series(np.linspace(10, 90, 48)), subset_size=1, iterations=200,
                        seed=0)
    assert len(crops) == len(pool) + 1   # the price and each asset, once
    with pytest.raises(ZeroPriceSum, match="price series sums to zero"):
        vf_subsample_mc(_pool(3), series(np.tile([-1.0, 1.0], 24)), subset_size=2,
                        iterations=5, seed=0)
    assert len(crops) == 2 * (len(pool) + 1)


@pytest.mark.parametrize("grids", [((START, 36), (START, 48)),
                                   ((START, 48), (START + timedelta(hours=1), 47))],
                         ids=["length", "start"])
def test_both_value_factor_paths_refuse_a_pool_off_the_first_assets_grid(grids):
    # each asset covers the 24-hour price, so both align to the same grid
    price = series(np.linspace(10, 90, 24), start=START + timedelta(hours=2))
    pool = [AvailabilityProfile(series(np.ones(n), start=start), asset_id=f"a{i}")
            for i, (start, n) in enumerate(grids)]
    message = "asset 'a1' is not on the first asset's grid"
    with pytest.raises(ValueFactorError, match=message):
        data._pool_total(pool)
    with pytest.raises(ValueFactorError, match=message):
        vf_subsample_mc(pool, price, subset_size=1, iterations=5, seed=0)


#: Values that the samples take in ties: mixed signed zeros (which np.sort
#: would order unlike np.percentile's partition), negatives, integers.
TIED = st.just([0.0, -0.0]) | st.lists(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.5, 3.0]) | st.floats(-1e6, 1e6),
    min_size=1, max_size=6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 3000), TIED,
       st.sampled_from([0.0, 0.5, 0.95, 1.0]), st.floats(1e-3, 1e3), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@example(1, [-0.0], 1.0, 1.0, False, 0)
@example(2, [0.0, -0.0], 1.0, 1.0, False, 1)
@example(3, [1.0], 0.0, 1.0, True, 2)
def test_summary_statistics_are_numpys_percentiles_bit_for_bit(n, tied, tie_share, scale,
                                                               nan, seed):
    """Normal samples of which a share is replaced by a few tied values
    (all-equal samples at share 1 with one value), and at most one NaN.
    Infinities are left out: the kernel never passes one, and inf - inf
    warns in np.percentile too."""
    rng = np.random.default_rng(seed)
    samples = scale * rng.standard_normal(n)
    pick = rng.random(n) < tie_share
    samples[pick] = rng.choice(np.array(tied), pick.sum())
    if nan:
        samples[rng.integers(n)] = np.nan
    stats = summary_statistics(samples)
    got = np.array([stats["median"], stats["p5"], stats["p95"]])
    assert got.tobytes() == np.percentile(samples, [50, 5, 95]).tobytes()   # -0.0 too
    assert np.array(stats["mean"]).tobytes() == np.array(samples.mean()).tobytes()
