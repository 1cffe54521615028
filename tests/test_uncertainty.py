import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcodr.costing import BATCH_COLUMNS, batch_row
from lcodr.model import (
    PARAMETER_INDEX,
    ParameterSet,
    SchemeKind,
    build_parameter_set,
    default_applications,
    default_parameters,
    parameter_values,
    philox_uniforms,
)
from lcodr.uncertainty import (
    LcosSampling,
    _truncated,
    McConfig,
    McDistribution,
    NoFeasibleTechnology,
    PerturbationUnsatisfiable,
    cheapest_probability,
    lcos_sample_matrix,
    lcos_uniforms,
    perturb_matrix,
    perturb_parameters,
    run_monte_carlo,
)
from truncated_normal import sample_truncated_normal


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


def _small_run(samples=20, seed=0):
    apps = [a for a in default_applications()
            if a.name in ("Energy arbitrage", "Primary response")]
    cfg = McConfig(samples=samples, seed=seed)
    return run_monte_carlo(list(SchemeKind), apps, default_parameters(), cfg), cfg


def test_run_monte_carlo_degenerate_matches_deterministic():
    from lcodr.costing import evaluate_pairing
    apps = [a for a in default_applications() if a.name == "Energy arbitrage"]
    cfg = McConfig(samples=1, sigma_inputs=0.0, sigma_vf=0.0, seed=0)
    dists = run_monte_carlo([SchemeKind.V2G], apps, default_parameters(), cfg)
    expected = evaluate_pairing(SchemeKind.V2G, apps[0], default_parameters())
    assert dists[0].samples[0] == pytest.approx(expected.breakdown.lcodr_vf, rel=1e-12)
    assert dists[0].feasible_fraction == 1.0


def test_run_monte_carlo_never_calls_the_scalar_path(monkeypatch):
    import lcodr.costing
    import lcodr.sizing

    def forbidden(*args):
        raise AssertionError("scalar path called")

    monkeypatch.setattr(lcodr.costing, "evaluate_pairing", forbidden)
    monkeypatch.setattr(lcodr.sizing, "size_pairing", forbidden)
    dists, _ = _small_run(5)
    assert any(d.feasible.any() for d in dists)


def test_mc_summary_statistics_on_feasible_subset():
    dists, _ = _small_run(30)
    for d in dists:
        ok = d.samples[d.feasible]
        if len(ok):
            assert d.median == pytest.approx(np.percentile(ok, 50))
            assert d.p5 <= d.median <= d.p95
            assert d.feasible_fraction == pytest.approx(d.feasible.mean())


def test_mc_distributions_keep_no_per_sample_array_but_cost_and_feasibility():
    """A distribution keeps its costs and feasibility per sample, and its
    cost components only as mean shares: five floats where a sample is
    feasible, none where no sample is."""
    from dataclasses import fields
    from lcodr.costing import COST_COMPONENTS
    cfg = McConfig(samples=20, seed=0)
    dists = run_monte_carlo(list(SchemeKind), default_applications(), default_parameters(), cfg)
    assert any(not d.feasible.any() for d in dists)
    for d in dists:
        for f in fields(d):
            value = getattr(d, f.name)
            held = list(value.values()) if isinstance(value, dict) else [value]
            arrays = [v for v in held if isinstance(v, np.ndarray)]
            assert arrays == ([value] if f.name in ("samples", "feasible") else []), f.name
        assert d.samples.shape == d.feasible.shape == (cfg.samples,)
        assert list(d.cost_shares) == (list(COST_COMPONENTS) if d.feasible.any() else [])
        assert all(type(share) is float for share in d.cost_shares.values())


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


# ---------------------------------------------------------------------------
# Counter-based draws
# ---------------------------------------------------------------------------

#: A base on two invariant boundaries (active == average heat-pump power,
#: ceiling just above twice the wall), so about three rows in four are
#: redrawn at least once.
EDGE = build_parameter_set({**parameter_values(default_parameters()),
                            "hp_active_power": 0.46, "ceiling_height": 0.1000001},
                           vars(default_parameters().value_factors))


def _split(n, cuts):
    bounds = sorted({0, n, *(c % (n + 1) for c in cuts)})
    return list(zip(bounds, bounds[1:]))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 60), cuts=st.lists(st.integers(0, 60), max_size=5),
       seed=st.sampled_from([0, 7, 2**32, 2**70]), edge=st.booleans())
def test_draws_do_not_depend_on_the_split(n, cuts, seed, edge):
    base = EDGE if edge else default_parameters()
    cfg = McConfig(samples=n, seed=seed)
    whole = perturb_matrix(base, cfg, 0, n)
    joined = np.vstack([perturb_matrix(base, cfg, lo, hi) for lo, hi in _split(n, cuts)])
    assert np.array_equal(whole, joined)
    normals = _truncated(philox_uniforms(seed, [(3, 1)], 0, n)[0], -1.285, 1.285)
    assert np.array_equal(normals, np.concatenate(
        [_truncated(philox_uniforms(seed, [(3, 1)], lo, hi)[0], -1.285, 1.285)
         for lo, hi in _split(n, cuts)]))


def test_edge_base_redraws_rows_and_keeps_them_valid():
    cfg = McConfig(samples=200, seed=2)
    matrix = perturb_matrix(EDGE, cfg, 0, 200)
    columns = dict(zip(BATCH_COLUMNS, matrix.T))
    assert (columns["hp_active_power"] >= columns["hp_average_power"]).all()
    assert (columns["ceiling_height"] > 2 * columns["wall_thickness"]).all()
    # the attempt-0 draw of a redrawn row is not its final value
    stream = PARAMETER_INDEX["hp_active_power"]
    first = 0.46 + 0.33 * 0.46 * _truncated(philox_uniforms(2, [(stream, 0)], 0, 200)[0],
                                            -1.285, 1.285)
    redrawn = first != columns["hp_active_power"]
    assert 50 < redrawn.sum() < 200


def test_matrix_rows_are_the_perturbed_parameter_sets():
    for base in (default_parameters(), EDGE):
        cfg = McConfig(samples=40, seed=11)
        matrix = perturb_matrix(base, cfg, 0, 40)
        for i in range(40):
            assert batch_row(perturb_parameters(base, cfg, i)) == matrix[i].tolist()


def test_unsatisfiable_after_the_attempt_budget(monkeypatch):
    import lcodr.uncertainty
    monkeypatch.setattr(lcodr.uncertainty, "valid_rows",
                        lambda columns: np.zeros(len(columns["heat_pump"]), dtype=bool))
    with pytest.raises(PerturbationUnsatisfiable, match="100 attempts .sample 3"):
        perturb_matrix(default_parameters(), McConfig(samples=5), 3, 5)


def _quantile_gap(draws, reference):
    qs = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    return np.abs(np.quantile(draws, qs) - np.quantile(reference, qs)).max()


def test_truncated_normals_match_the_scalar_sampler():
    z = 1.285
    draws = _truncated(philox_uniforms(9, [(0, 0)], 0, 100_000)[0], -z, z)
    rng = np.random.default_rng(9)
    scalar = np.array([sample_truncated_normal(0.0, 1.0, z, rng) for _ in range(100_000)])
    assert np.abs(draws).max() <= z
    # quantiles agree to a few standard errors; the variance is that of the
    # standard normal truncated at +/- z
    assert _quantile_gap(draws, scalar) < 0.02
    density = math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
    assert draws.var() == pytest.approx(1 - 2 * z * density / math.erf(z / math.sqrt(2)),
                                        abs=0.005)


def test_a_column_on_a_one_sided_window_matches_the_scalar_sampler():
    # charger_efficiency (0.92, at most 1) reaches its upper bound 0.26
    # standard deviations above the base: the sampler conditions on the
    # domain, as the reference does by rejection
    n, base, spread = 50_000, 0.92, 0.33 * 0.92
    column = perturb_matrix(default_parameters(), McConfig(samples=n, seed=9), 0, n)[
        :, BATCH_COLUMNS.index("charger_efficiency")]
    rng = np.random.default_rng(9)
    scalar = np.array([sample_truncated_normal(base, spread, 1.285, rng, upper=1.0)
                       for _ in range(n)])
    assert column.max() <= 1.0 and column.min() >= base - 1.285 * spread
    assert _quantile_gap((column - base) / spread, (scalar - base) / spread) < 0.03


def test_draws_on_a_bound_of_one_are_truncated_to_the_analytic_mean():
    n = 10_000
    matrix = perturb_matrix(default_parameters(), McConfig(samples=n, seed=0), 0, n)
    z, normal = 1.285, NormalDist()
    for key, base in (("charger_efficiency", 0.92), ("home_charge_fraction", 0.90)):
        column = matrix[:, BATCH_COLUMNS.index(key)]
        assert not (column == 1.0).any(), key   # no point mass on the bound
        spread = 0.33 * base
        upper = (1.0 - base) / spread
        mean = base + spread * ((normal.pdf(-z) - normal.pdf(upper))
                                / (normal.cdf(upper) - normal.cdf(-z)))
        assert abs(column.mean() - mean) < 4 * column.std() / math.sqrt(n), key


def test_a_base_next_to_an_open_bound_draws_a_continuous_column():
    # wall_thickness > 0: the window is +/- TRUNCATION_Z around 1e-12, which
    # the open bound 0 does not cut, and no draw may sit on one value
    values = {**parameter_values(default_parameters()), "wall_thickness": 1e-12}
    base = build_parameter_set(values, vars(default_parameters().value_factors))
    column = perturb_matrix(base, McConfig(samples=200, seed=0), 0, 200)[
        :, BATCH_COLUMNS.index("wall_thickness")]
    assert len(set(column.tolist())) == 200
    assert (column > 0).all()


def test_a_zero_spread_keeps_the_base_value_exactly():
    values = {**parameter_values(default_parameters()), "v2g_reward_base": 0.0}
    base = build_parameter_set(values, vars(default_parameters().value_factors))
    matrix = perturb_matrix(base, McConfig(samples=30, seed=4), 0, 30)
    assert (matrix[:, BATCH_COLUMNS.index("v2g_reward_base")] == 0.0).all()


def test_a_subnormal_spread_keeps_the_base_row_without_overflow():
    # (bound - value) / spread would overflow; the window is decided
    # before dividing, and RuntimeWarnings are errors in this suite
    base = default_parameters()
    matrix = perturb_matrix(base, McConfig(samples=8, seed=1, sigma_inputs=2.2e-311,
                                           sigma_vf=2.2e-311), 0, 8)
    assert (matrix == np.array(batch_row(base))).all()


def test_mc_builds_no_generator_per_sample(monkeypatch):
    # each (seed, substream, attempt) stream derives its Philox key once
    import lcodr.model
    built = []
    derive = lcodr.model._philox_key

    def counting(*args, **kwargs):
        built.append(1)
        return derive(*args, **kwargs)

    monkeypatch.setattr(lcodr.model, "_philox_key", counting)
    counts = []
    for samples in (50, 400):
        built.clear()
        _small_run(samples)
        counts.append(len(built))
    assert counts[0] == counts[1] <= 40


def test_same_scheme_lcos_draws_are_non_negative_and_prefix_stable():
    entries = [("a", 100.0), ("b", 0.0), ("c", 250.0)]
    cfg = McConfig(samples=300, seed=6, sigma_inputs=1.5,
                   lcos_sampling=LcosSampling.SAME_SCHEME)
    m = lcos_sample_matrix(entries, cfg)
    # conditioned on [0, inf): a positive entry draws above 0, and an entry
    # of 0 has a spread of 0
    assert (m[[0, 2]] > 0).all()
    assert (m[1] == 0).all()
    shorter = lcos_sample_matrix(entries, McConfig(samples=120, seed=6, sigma_inputs=1.5,
                                                   lcos_sampling=LcosSampling.SAME_SCHEME))
    assert np.array_equal(m[:, :120], shorter)


@pytest.mark.parametrize("field,value", [("sigma_inputs", float("nan")),
                                         ("sigma_vf", float("inf")),
                                         ("sigma_vf", -0.5)])
def test_mc_config_rejects_non_finite_settings(field, value):
    from lcodr.model import ValidationError
    with pytest.raises(ValidationError) as info:
        McConfig(**{field: value})
    assert info.value.field_path == field


@pytest.mark.parametrize("field,value", [("seed", -1), ("seed", 1.5), ("seed", True),
                                         ("seed", "3"), ("seed", None), ("samples", 0),
                                         ("samples", 2.0), ("samples", True)])
def test_mc_config_rejects_a_seed_or_sample_count_that_is_not_a_counting_number(field, value):
    from lcodr.model import ValidationError
    with pytest.raises(ValidationError) as info:
        McConfig(**{field: value})
    assert info.value.field_path == field


def test_mc_config_takes_numpy_and_arbitrary_size_integers():
    for seed in (np.int64(7), 2**130 + 3, 2**20000 + 1):
        cfg = McConfig(samples=np.uint32(3), seed=seed)
        assert perturb_matrix(default_parameters(), cfg, 0, 3).shape == (3, len(BATCH_COLUMNS))


def test_same_scheme_lcos_words_are_drawn_once_per_run(monkeypatch, tmp_path):
    # entry e of every application reads stream (LCOS_ID_OFFSET + e, 0): one
    # kernel call draws them for all twelve applications
    import lcodr.uncertainty
    from lcodr.cli import main
    calls = []
    draw = lcodr.uncertainty.philox_uniforms

    def counting(seed, keys, start, stop):
        keys = list(keys)
        if keys and keys[0][0] >= lcodr.uncertainty.LCOS_ID_OFFSET:
            calls.append(keys)
        return draw(seed, keys, start, stop)

    monkeypatch.setattr(lcodr.uncertainty, "philox_uniforms", counting)
    assert main(["mc", "--samples", "20", "--lcos-sampling", "same_scheme",
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_shared_lcos_words_give_each_entry_list_its_own_draws():
    entries = [("a", 100.0), ("b", 40.0)]
    cfg = McConfig(samples=50, seed=2, lcos_sampling=LcosSampling.SAME_SCHEME)
    words = lcos_uniforms(cfg, 4)
    assert np.array_equal(lcos_sample_matrix(entries, cfg, words),
                          lcos_sample_matrix(entries, cfg))
    point = McConfig(samples=50, seed=2)
    assert lcos_uniforms(point, 4) is None
    assert (lcos_sample_matrix(entries, point, None) == [[100.0], [40.0]]).all()
