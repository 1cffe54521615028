import numpy as np
import pytest

from lcodr.model import (
    ParameterSet,
    SchemeKind,
    default_applications,
    default_parameters,
    parameter_values,
)
from lcodr.uncertainty import (
    LcosSampling,
    McConfig,
    McDistribution,
    NoFeasibleTechnology,
    cheapest_probability,
    perturb_parameters,
    run_monte_carlo,
    sample_truncated_normal,
)


def test_truncated_normal_zero_sigma_is_mean():
    rng = np.random.default_rng(0)
    assert sample_truncated_normal(3.7, 0.0, 1.285, rng) == 3.7


def test_truncated_normal_bounds_and_mean():
    rng = np.random.default_rng(42)
    draws = np.array([sample_truncated_normal(1.0, 0.33, 1.285, rng)
                      for _ in range(100_000)])
    bound = 1.285 * 0.33
    assert draws.min() >= 1.0 - bound
    assert draws.max() <= 1.0 + bound
    # symmetric truncation preserves the mean; the standard deviation of the
    # truncated distribution is below sigma, so 0.005 is > 3 standard errors
    assert abs(draws.mean() - 1.0) < 0.005


def test_perturb_zero_sigma_identity():
    base = default_parameters()
    cfg = McConfig(samples=1, sigma_inputs=0.0, sigma_vf=0.0, seed=1)
    perturbed = perturb_parameters(base, cfg, 0)
    assert parameter_values(perturbed) == parameter_values(base)
    assert perturbed.value_factors == base.value_factors


def test_perturb_deterministic_and_bounded():
    base = default_parameters()
    cfg = McConfig(samples=10, seed=5)
    a = perturb_parameters(base, cfg, 3)
    b = perturb_parameters(base, cfg, 3)
    assert parameter_values(a) == parameter_values(b)
    c = perturb_parameters(base, cfg, 4)
    assert parameter_values(a) != parameter_values(c)
    # truncation keeps the guaranteed minimum charge inside [0.173, 0.427]
    for i in range(50):
        p = perturb_parameters(base, cfg, i)
        gmc = p.ev.guaranteed_min_charge
        assert 0.30 * (1 - 1.285 * 0.33) - 1e-9 <= gmc <= 0.30 * (1 + 1.285 * 0.33) + 1e-9


def test_perturb_skips_fixed_parameters():
    base = default_parameters()
    cfg = McConfig(samples=1, seed=9)
    p = perturb_parameters(base, cfg, 0)
    assert p.econ.lifetime_years == base.econ.lifetime_years
    assert p.econ.om_fraction == base.econ.om_fraction
    assert p.econ.reward_floor == base.econ.reward_floor


def _small_run(samples=20, workers=None, seed=0):
    apps = [a for a in default_applications()
            if a.name in ("Energy arbitrage", "Primary response")]
    cfg = McConfig(samples=samples, seed=seed)
    return run_monte_carlo(list(SchemeKind), apps, default_parameters(), cfg,
                           workers=workers), cfg


def test_run_monte_carlo_degenerate_matches_deterministic():
    from lcodr.costing import evaluate_pairing
    apps = [a for a in default_applications() if a.name == "Energy arbitrage"]
    cfg = McConfig(samples=1, sigma_inputs=0.0, sigma_vf=0.0, seed=0)
    dists = run_monte_carlo([SchemeKind.V2G], apps, default_parameters(), cfg)
    expected = evaluate_pairing(SchemeKind.V2G, apps[0], default_parameters())
    assert dists[0].samples[0] == pytest.approx(expected.breakdown.lcodr_vf, rel=1e-12)
    assert dists[0].feasible_fraction == 1.0


def test_run_monte_carlo_deterministic_across_workers():
    # 23 samples split unevenly over 2 x 4 and 3 x 4 sample ranges
    for samples in (23, 1):
        serial, _ = _small_run(samples, None)
        for workers in (2, 3):
            pooled, _ = _small_run(samples, workers)
            for d1, d2 in zip(serial, pooled):
                assert np.array_equal(d1.samples, d2.samples, equal_nan=True)
                assert np.array_equal(d1.feasible, d2.feasible)
                for name, values in d1.components.items():
                    assert np.array_equal(values, d2.components[name], equal_nan=True)


def test_run_monte_carlo_never_calls_the_scalar_path(monkeypatch):
    import lcodr.costing

    def forbidden(*args):
        raise AssertionError("scalar path called")

    monkeypatch.setattr(lcodr.costing, "evaluate_pairing", forbidden)
    monkeypatch.setattr(lcodr.costing, "size_pairing", forbidden)
    dists, _ = _small_run(5)
    assert any(d.feasible.any() for d in dists)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**40])
def test_stream_draws_equal_tuple_seeded_generator(seed):
    from lcodr.uncertainty import _stream
    key = (seed, 1499, 38, 2)
    assert np.array_equal(_stream(*key).normal(size=8),
                          np.random.default_rng(key).normal(size=8))


def test_mc_summary_statistics_on_feasible_subset():
    dists, _ = _small_run(30)
    for d in dists:
        ok = d.samples[d.feasible]
        if len(ok):
            assert d.median == pytest.approx(np.percentile(ok, 50))
            assert d.p5 <= d.median <= d.p95
            assert d.feasible_fraction == pytest.approx(d.feasible.mean())


def _dist(tech, values, feasible=None):
    values = np.asarray(values, dtype=float)
    if feasible is None:
        feasible = np.isfinite(values)
    return McDistribution.build(tech, "app", values, np.asarray(feasible),
                                {})


def test_cheapest_probability_strict_winner():
    cfg = McConfig(samples=4, seed=0)
    probs = cheapest_probability(
        [_dist("a", [1, 1, 1, 1]), _dist("b", [2, 2, 2, 2])], cfg)
    assert probs == {"a": 1.0, "b": 0.0}


def test_cheapest_probability_tie_breaks_to_first():
    cfg = McConfig(samples=3, seed=0)
    probs = cheapest_probability(
        [_dist("x", [5, 5, 5]), _dist("y", [5, 5, 5])], cfg)
    assert probs == {"x": 1.0, "y": 0.0}


def test_cheapest_probability_simplex():
    cfg = McConfig(samples=100, seed=0)
    rng = np.random.default_rng(8)
    probs = cheapest_probability(
        [_dist("a", rng.uniform(1, 3, 100)),
         _dist("b", rng.uniform(1, 3, 100)),
         _dist("c", rng.uniform(1, 3, 100))], cfg,
        lcos_entries=[("s", 2.0)])
    assert all(0.0 <= p <= 1.0 for p in probs.values())
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_cheapest_probability_infeasible_never_wins():
    cfg = McConfig(samples=3, seed=0)
    nan = float("nan")
    probs = cheapest_probability(
        [_dist("dead", [nan, nan, nan]), _dist("alive", [9, 9, 9])], cfg)
    assert probs["dead"] == 0.0
    assert probs["alive"] == 1.0
    with pytest.raises(NoFeasibleTechnology):
        cheapest_probability([_dist("dead", [nan, nan, nan])], cfg)


def test_cheapest_probability_monotone_dominance():
    cfg = McConfig(samples=50, seed=0)
    rng = np.random.default_rng(13)
    a = rng.uniform(1, 3, 50)
    b = rng.uniform(1, 3, 50)
    before = cheapest_probability([_dist("a", a), _dist("b", b)], cfg)["a"]
    after = cheapest_probability([_dist("a", a - 0.5), _dist("b", b)], cfg)["a"]
    assert after >= before


def _cheapest_by_loop(values):
    """Per-sample reference: the first minimum of each column with a finite
    entry wins."""
    wins = np.zeros(values.shape[0])
    counted = 0
    for col in values.T:
        if np.isfinite(col).any():
            wins[int(np.argmin(col))] += 1
            counted += 1
    return [float(w / counted) for w in wins]


def test_cheapest_probability_equals_per_sample_loop():
    cfg = McConfig(samples=400, seed=0)
    rng = np.random.default_rng(21)
    values = rng.integers(1, 6, size=(3, 400)).astype(float)   # many ties
    values[rng.random((3, 400)) < 0.3] = np.nan                  # infeasible
    values[:, :7] = np.nan                                       # nobody feasible
    dists = [_dist(t, v) for t, v in zip("abc", values)]
    probs = cheapest_probability(dists, cfg, lcos_entries=[("s", 3.0)])
    reference = np.vstack([np.where(np.isnan(values), np.inf, values),
                           np.full(400, 3.0)])
    assert list(probs.values()) == _cheapest_by_loop(reference)


def test_lcos_point_vs_perturbed():
    from lcodr.uncertainty import lcos_sample_matrix
    cfg = McConfig(samples=8, seed=0, lcos_sampling=LcosSampling.POINT)
    m = lcos_sample_matrix([("s", 100.0)], cfg)
    assert np.all(m == 100.0)
    cfg2 = McConfig(samples=8, seed=0, lcos_sampling=LcosSampling.SAME_SCHEME)
    m2 = lcos_sample_matrix([("s", 100.0)], cfg2)
    assert not np.all(m2 == 100.0)
    assert np.all(np.abs(m2 - 100.0) <= 1.285 * 0.33 * 100.0 + 1e-9)
