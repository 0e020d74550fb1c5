import dataclasses
import itertools
import warnings

import numpy as np
import pytest

import cdps.bench
import cdps.gmm
from cdps.gmm import (
    GaussianMixture,
    denoiser_jacobian_vp,
    exact_posterior,
    log_marginal_density,
    make_grid_gmm,
    mixture_log_density,
    sample_mixture,
    denoiser_jvp_fn_for,
    score,
    score_fn_for,
)
from cdps.operators import from_dense, zero_operator
from cdps.schedules import alpha_bar, make_linear_schedule


def fd_score(gmm, x, abar, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (log_marginal_density(gmm, x + e, abar)
                - log_marginal_density(gmm, x - e, abar)) / (2 * h)
    return g


def test_grid_gmm_structure():
    g = make_grid_gmm(2)
    assert g.K == 25
    rows = {tuple(m) for m in g.means}
    assert {(-16.0, -16.0), (0.0, 0.0), (16.0, 16.0)} <= rows
    np.testing.assert_allclose(g.weights, 0.04)
    np.testing.assert_allclose(g.weights @ g.means, 0.0, atol=1e-12)
    # pattern repeats the pair across dimensions
    g6 = make_grid_gmm(6)
    assert g6.means.shape == (25, 6)
    np.testing.assert_array_equal(g6.means[:, :2], g6.means[:, 2:4])
    with pytest.raises(ValueError):
        make_grid_gmm(3)


def test_score_zero_at_center():
    g = make_grid_gmm(4)
    for abar in (1.0, 0.5, 0.1):
        np.testing.assert_allclose(score(g, np.zeros(4), abar), 0.0, atol=1e-12)


def test_score_single_component_closed_form():
    mu = np.array([1.5, -2.0])
    g = GaussianMixture(means=mu[None], weights=np.ones(1), variance=1.0)
    x = np.array([0.3, 0.7])
    np.testing.assert_allclose(score(g, x, 1.0), mu - x, rtol=1e-12)


def test_score_matches_finite_differences():
    g = make_grid_gmm(4)
    rng = np.random.default_rng(0)
    x = rng.uniform(-20, 20, 4)
    s = score(g, x, 0.7)
    np.testing.assert_allclose(fd_score(g, x, 0.7), s, rtol=1e-5)


def test_score_batched_matches_single():
    g = make_grid_gmm(4)
    rng = np.random.default_rng(1)
    X = rng.uniform(-20, 20, (5, 4))
    batched = score(g, X, 0.5)
    for i in range(5):
        np.testing.assert_allclose(batched[i], score(g, X[i], 0.5), rtol=1e-12)


def test_denoiser_jacobian_vp_matches_tweedie_fd():
    g = make_grid_gmm(4)
    rng = np.random.default_rng(3)
    x = rng.uniform(-10, 10, 4)
    u = rng.standard_normal(4)
    abar = 0.4

    def x0_hat(pt):
        return (pt + (1 - abar) * score(g, pt, abar)) / np.sqrt(abar)

    h = 1e-6
    fd = (x0_hat(x + h * u) - x0_hat(x - h * u)) / (2 * h)
    jv = denoiser_jacobian_vp(g, x, abar, u)
    np.testing.assert_allclose(jv, fd, rtol=1e-5, atol=1e-7)


def test_denoiser_jacobian_vp_stable_at_vanishing_abar():
    # The naive (u + (1-abar) H u)/sqrt(abar) form overflows here.
    g = make_grid_gmm(4)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(4)
    u = rng.standard_normal(4)
    jv = denoiser_jacobian_vp(g, x, 1e-130, u)
    assert np.all(np.isfinite(jv))
    assert np.linalg.norm(jv) < 1e-60  # scales like sqrt(abar)


def test_denoiser_jacobian_vp_broadcasts_one_u_against_a_batch():
    # One u against five points gives each point's own product with that u.
    g = make_grid_gmm(4)
    rng = np.random.default_rng(5)
    X = rng.uniform(-10, 10, (5, 4))
    u = rng.standard_normal(4)
    batched = denoiser_jacobian_vp(g, X, 0.4, u)
    assert batched.shape == X.shape
    for i in range(5):
        np.testing.assert_allclose(batched[i], denoiser_jacobian_vp(g, X[i], 0.4, u), rtol=1e-12)


def count_passes(monkeypatch):
    """Count responsibilities evaluations through cdps.gmm."""
    calls = []
    real = cdps.gmm._responsibilities

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(cdps.gmm, "_responsibilities", counted)
    return calls


def test_score_and_jvps_share_one_pass(monkeypatch):
    g = make_grid_gmm(8)
    rng = np.random.default_rng(30)
    x = rng.uniform(-20, 20, (50, 8))
    u = rng.standard_normal((50, 8))
    abar = 0.3
    calls = count_passes(monkeypatch)
    s = score(g, x, abar)
    jv = denoiser_jacobian_vp(g, x, abar, u)
    assert len(calls) == 1
    # Each call on its own fresh mixture computes its own pass.
    np.testing.assert_array_equal(s, score(dataclasses.replace(g), x, abar))
    np.testing.assert_array_equal(jv, denoiser_jacobian_vp(dataclasses.replace(g), x, abar, u))
    assert len(calls) == 3


def test_shared_pass_recomputes_on_new_point(monkeypatch):
    # A pass keyed on the identity of x would serve the stale pass after
    # the in-place change.
    g = make_grid_gmm(8)
    rng = np.random.default_rng(31)
    x = rng.uniform(-20, 20, (20, 8))
    calls = count_passes(monkeypatch)
    score(g, x, 0.5)
    x[:, 0] += 4.0
    np.testing.assert_array_equal(score(g, x, 0.5), score(dataclasses.replace(g), x, 0.5))
    assert len(calls) == 3
    np.testing.assert_array_equal(score(g, x, 0.25), score(dataclasses.replace(g), x, 0.25))
    assert len(calls) == 5
    # The same values in another batch shape are another point.
    assert score(g, x.reshape(2, 10, 8), 0.25).shape == (2, 10, 8)
    assert len(calls) == 6


def test_cached_responsibilities_are_read_only():
    g = make_grid_gmm(4)
    x = np.random.default_rng(32).standard_normal((5, 4))
    score(g, x, 0.5)
    r = cdps.gmm._pass(g, x, 0.5)[0]
    assert not r.flags.writeable
    with pytest.raises(ValueError):
        r[0, 0] = 0.0


def _reference_pass(gmm, x, abar):
    """The score pass as first written: (K,) variances and log weights, logits
    scaled by -2 and -1/2 in place.  The oracle of the bitwise test below."""
    means_t = np.sqrt(abar) * gmm.means
    var_t = abar * np.full(gmm.K, gmm.variance) + (1.0 - abar)
    x2 = np.einsum("...i,...i->...", x, x)[..., None]
    logits = x @ means_t.T
    logits *= -2.0
    logits += x2
    logits += np.einsum("ki,ki->k", means_t, means_t)
    logits /= var_t
    logits += gmm.d * np.log(var_t)
    logits *= -0.5
    logits += np.log(gmm.weights)
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits, means_t, var_t


def _reference_score(gmm, x, abar):
    r, means_t, var_t = _reference_pass(gmm, x, abar)
    rv = r / var_t
    return rv @ means_t - x * rv.sum(axis=-1)[..., None]


def _reference_denoiser_jacobian_vp(gmm, x, abar, u):
    r, _, var_t = _reference_pass(gmm, x, abar)
    v = float(var_t[0])
    t = r * (u @ gmm.means.T)
    cov_u = t @ gmm.means - (r @ gmm.means) * t.sum(axis=-1)[..., None]
    return np.sqrt(abar) * ((gmm.variance / v) * u + ((1.0 - abar) / (v * v)) * cov_u)


def test_score_pass_bitwise_equals_reference():
    # A scalar variance and log weights, and the folded -2 and -1/2, must
    # not move a bit of the score or the denoiser's Jacobian product: DPS
    # amplifies the score's rounding past the benchmark's reference
    # tolerance (see the module docstring); C-DPS moves by a few ulps.  At
    # variance 1.5, unlike 1, variance / v and abar * variance round.
    rng = np.random.default_rng(33)
    d, K = 8, 25
    grid = make_grid_gmm(d)
    weights = rng.dirichlet(np.ones(K))
    mixtures = {
        "equal": grid,
        "unequal weights": dataclasses.replace(grid, weights=weights),
        "variance 1.5": dataclasses.replace(grid, variance=1.5),
    }
    assert type(grid.variance) is float and np.ndim(grid._log_weights) == 0
    # Every seventh level of the benchmark schedule, with its ends.
    abars = make_linear_schedule(1000, 0.1, 500.0).alpha_bars
    levels = [*abars[1::7].tolist(), float(abars[-1]), 1.0]
    xs = {"single": 8.0 * rng.standard_normal(d), "batched": 8.0 * rng.standard_normal((30, d))}
    for name, g in mixtures.items():
        for kind, x in xs.items():
            u = rng.standard_normal(x.shape)
            for abar in levels:
                g = dataclasses.replace(g)  # a fresh pass every call
                pairs = [(score(g, x, abar), _reference_score(g, x, abar)),
                         (denoiser_jacobian_vp(g, x, abar, u),
                          _reference_denoiser_jacobian_vp(g, x, abar, u))]
                for got, ref in pairs:
                    assert np.array_equal(got, ref), (name, kind, abar)


@pytest.mark.parametrize("d", [2, 8, 32])
def test_level_table_closures_equal_per_call_pass(d, monkeypatch):
    # The closures read each level's constants from a table each builds once;
    # the score and Jacobian product must equal the per-call pass and the
    # reference pass bit for bit at every level, and a Jacobian product at
    # the score's (x, t) must reuse the score's pass.
    rng = np.random.default_rng(34)
    grid = make_grid_gmm(d)
    weights = rng.dirichlet(np.ones(grid.K))
    mixtures = {
        "grid": grid,
        "unequal weights": dataclasses.replace(grid, weights=weights),
        "variance 1.5": dataclasses.replace(grid, variance=1.5),
        # Grid means scale exactly by powers of two; these do not.
        "random means": dataclasses.replace(grid, means=8.0 * rng.standard_normal((9, d)),
                                            weights=np.full(9, 1 / 9)),
    }
    schedule = make_linear_schedule(1000, 0.1, 500.0)
    x = 8.0 * rng.standard_normal((20, d))
    u = rng.standard_normal((20, d))
    calls = count_passes(monkeypatch)
    for name, g in mixtures.items():
        score_fn = score_fn_for(g, schedule)
        jvp_fn = denoiser_jvp_fn_for(g, schedule)
        for t in range(schedule.num_steps + 1):
            per_call = dataclasses.replace(g)
            abar = alpha_bar(schedule, t)
            s = score_fn(x, t)
            assert np.array_equal(s, score(per_call, x, abar)), (name, t)
            assert np.array_equal(s, _reference_score(g, x, abar)), (name, t)
            before = len(calls)
            jv = jvp_fn(x, t, u)
            assert len(calls) == before
            assert np.array_equal(jv, denoiser_jacobian_vp(per_call, x, abar, u)), (name, t)
            assert np.array_equal(jv, _reference_denoiser_jacobian_vp(g, x, abar, u)), (name, t)
        for bad in (-1, schedule.num_steps + 1):
            with pytest.raises(ValueError, match=r"t must be an integer in \[0, T\]"):
                score_fn(x, bad)
            with pytest.raises(ValueError, match=r"t must be an integer in \[0, T\]"):
                jvp_fn(x, bad, u)


def test_isotropic_guards():
    x = np.zeros((2, 2))
    full = GaussianMixture(means=np.zeros((1, 2)), weights=np.ones(1), cov=np.eye(2))
    with pytest.raises(ValueError, match="isotropic"):
        score(full, x, 0.5)
    with pytest.raises(ValueError, match="isotropic"):
        denoiser_jacobian_vp(full, x, 0.5, x)


def test_exact_posterior_with_underflowed_weights_does_not_warn():
    prior = make_grid_gmm(8)
    A = from_dense(np.eye(8))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        post = exact_posterior(prior, A, prior.means[0], 1e-2)
    assert np.any(post.weights == 0.0)


def _logsumexp_cases(rng):
    """Random 1-D and 2-D logits with -inf entries, tied maxima and all--inf rows."""
    cases = []
    for shape in [(1,), (5,), (25,), (1, 7), (4, 25), (30, 3)]:
        for scale in (1e-3, 1.0, 50.0, 1e3):
            a = scale * rng.standard_normal(shape)
            tied = a.copy()
            flat = tied.reshape(-1)
            flat[rng.integers(flat.size, size=max(1, flat.size // 3))] = flat.max()
            holes = a.copy()
            holes[rng.random(shape) < 0.4] = -np.inf
            cases += [a, tied, holes, np.round(a)]
        dead = rng.standard_normal(shape)
        dead[0] = -np.inf
        cases += [dead, np.full(shape, -np.inf), np.zeros(shape)]
    return cases


def test_logsumexp_within_a_few_ulp_of_scipy():
    # numpy's logaddexp folded along the axis: the same shapes and infinities
    # as scipy, and finite values within 8 eps of max(|scipy's|, 1).
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(7)
    eps = np.finfo(float).eps
    for a in _logsumexp_cases(rng):
        for axis in (None, -1, *range(a.ndim)):
            ours, theirs = cdps.gmm._logsumexp(a, axis=axis), special.logsumexp(a, axis=axis)
            assert np.shape(ours) == np.shape(theirs)
            ours, theirs = np.asarray(ours), np.asarray(theirs)
            finite = np.isfinite(theirs)
            np.testing.assert_array_equal(ours[~finite], theirs[~finite])
            ours, theirs = ours[finite], theirs[finite]
            assert np.all(np.abs(ours - theirs) <= 8 * eps * np.maximum(np.abs(theirs), 1.0))
    assert np.shape(cdps.gmm._logsumexp(np.array([0.0, -np.inf]))) == ()
    assert cdps.gmm._logsumexp(np.array([-np.inf, -np.inf])) == -np.inf
    np.testing.assert_array_equal(cdps.gmm._logsumexp(np.full((2, 3), -np.inf), axis=0),
                                  np.full(3, -np.inf))


def test_exact_posterior_conjugate_case():
    d = 3
    prior = GaussianMixture(means=np.zeros((1, d)), weights=np.ones(1), variance=1.0)
    y = np.array([1.0, -2.0, 0.5])
    post = exact_posterior(prior, from_dense(np.eye(d)), y, 1.0)
    np.testing.assert_allclose(post.means[0], y / 2.0, rtol=1e-12)
    np.testing.assert_allclose(post.cov, np.eye(d) / 2.0, rtol=1e-12)
    np.testing.assert_allclose(post.weights, [1.0])


def test_exact_posterior_uninformative_operator():
    prior = make_grid_gmm(4)
    post = exact_posterior(prior, zero_operator(2, 4), np.zeros(2), 0.5)
    np.testing.assert_allclose(post.weights, prior.weights, rtol=1e-12)
    np.testing.assert_allclose(post.means, prior.means, rtol=1e-12)
    np.testing.assert_allclose(post.cov, np.eye(4), rtol=1e-12)


def test_exact_posterior_weights_normalized_and_cov_spd():
    rng = np.random.default_rng(5)
    prior = make_grid_gmm(8)
    A = from_dense(rng.standard_normal((3, 8)) * 0.4)
    y = rng.standard_normal(3)
    post = exact_posterior(prior, A, y, 0.1)
    assert abs(post.weights.sum() - 1.0) < 1e-12
    np.linalg.cholesky(post.cov)  # raises if not SPD


def test_exact_posterior_weights_sum_to_one_to_rounding():
    # Normalised by the largest log weight and then the sum, the weights sum
    # to 1 within 2 eps on every benchmark-style task here.  Subtracting a
    # log-sum-exp folded by np.logaddexp.reduce missed that on 8 of these 90
    # tasks, by up to 4.5 eps, and scipy's logsumexp on 1.
    special = pytest.importorskip("scipy.special")
    cfg = cdps.bench.BenchConfig(dims=(4, 8))
    eps = np.finfo(float).eps
    for d in (4, 8):
        for m, sigma, k in itertools.product((1, 2, 4), (1e-2, 0.1, 1.0), range(5)):
            prior, A, _, y = cdps.bench.make_measurement_model(cfg, d, m, sigma, k)
            weights = exact_posterior(prior, A, y, sigma).weights
            assert abs(weights.sum() - 1.0) <= 2 * eps
            mat = A.dense
            L = np.linalg.cholesky(sigma * sigma * np.eye(m) + mat @ mat.T)
            white = np.linalg.solve(L, (y - prior.means @ mat.T).T).T
            logw = np.log(prior.weights) - 0.5 * np.einsum("ki,ki->k", white, white)
            np.testing.assert_allclose(weights, np.exp(logw - special.logsumexp(logw)),
                                       rtol=1e-12, atol=1e-300)


def test_exact_posterior_sigma_to_infinity_recovers_prior():
    rng = np.random.default_rng(6)
    prior = make_grid_gmm(4)
    A = from_dense(rng.standard_normal((2, 4)))
    post = exact_posterior(prior, A, rng.standard_normal(2), 1e6)
    assert np.max(np.abs(post.weights - prior.weights)) < 1e-6


def test_exact_posterior_rejects_bad_inputs():
    prior = make_grid_gmm(4)
    A = from_dense(np.ones((2, 4)))
    with pytest.raises(ValueError):
        exact_posterior(prior, A, np.array([1.0, np.nan]), 0.5)
    with pytest.raises(ValueError, match=r"shape \(2,\), got \(3,\)"):
        exact_posterior(prior, A, np.zeros(3), 0.5)
    for sigma in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            exact_posterior(prior, A, np.zeros(2), sigma)


def test_sample_mixture_single_component_moments():
    g = GaussianMixture(means=np.zeros((1, 3)), weights=np.ones(1), variance=1.0)
    s = sample_mixture(g, 40_000, np.random.default_rng(7))
    np.testing.assert_allclose(s.mean(axis=0), 0.0, atol=0.03)
    np.testing.assert_allclose(np.cov(s.T), np.eye(3), atol=0.03)


def test_sample_mixture_deterministic():
    g = make_grid_gmm(4)
    a = sample_mixture(g, 100, np.random.default_rng(8))
    b = sample_mixture(g, 100, np.random.default_rng(8))
    np.testing.assert_array_equal(a, b)


def test_sample_mixture_conjugate_posterior_mean():
    # mean of draws from N(y/2, I/2) lands within 3 standard errors of y/2
    d, n = 3, 100_000
    prior = GaussianMixture(means=np.zeros((1, d)), weights=np.ones(1), variance=1.0)
    y = np.array([1.0, -2.0, 0.5])
    post = exact_posterior(prior, from_dense(np.eye(d)), y, 1.0)
    s = sample_mixture(post, n, np.random.default_rng(9))
    se = np.sqrt(0.5 / n)
    assert np.all(np.abs(s.mean(axis=0) - y / 2.0) < 3 * se)


def test_full_covariance_mixture_factors_its_covariance_once(monkeypatch):
    # The SPD check's Cholesky factor is the one sample_mixture and
    # mixture_log_density use, so neither factors the covariance again.
    cov = np.array([[2.0, 0.3], [0.3, 0.5]])
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or cholesky(a))
    g = GaussianMixture(means=np.array([[0.0, 1.0], [2.0, -1.0]]),
                        weights=np.array([0.25, 0.75]), cov=cov)
    assert len(calls) == 1
    L = cholesky(cov)
    draws = sample_mixture(g, 50, np.random.default_rng(11))
    rng = np.random.default_rng(11)
    ks = rng.choice(2, size=50, p=g.weights)
    np.testing.assert_array_equal(draws, g.means[ks] + rng.standard_normal((50, 2)) @ L.T)
    x = np.array([[0.5, 0.5], [3.0, -2.0]])
    white = np.linalg.solve(L, (x[:, None, :] - g.means)[..., None])[..., 0]
    expected = np.log(np.exp(-0.5 * np.einsum("nki,nki->nk", white, white)) @ g.weights
                      / (2.0 * np.pi * np.sqrt(np.linalg.det(cov))))
    np.testing.assert_allclose(mixture_log_density(g, x), expected, rtol=1e-12)
    assert len(calls) == 1


@pytest.mark.parametrize("case, match", [
    ({"means": np.zeros(2)}, r"means must be \(K, d\)"),
    ({"weights": np.full(3, 1.0 / 3.0)}, r"weights must be \(K,\)"),
    ({"variance": np.ones(2)}, "variance must be a number"),
    ({"variance": True}, "variance must be a number"),
    ({"variance": 0.0}, "variance must be positive and finite"),
    ({"variance": -1.0}, "variance must be positive and finite"),
    ({"variance": np.nan}, "variance must be positive and finite"),
    ({"variance": np.inf}, "variance must be positive and finite"),
    ({"variance": None, "cov": np.eye(3)}, r"cov must be \(d, d\)"),
    ("abar-zero", r"abar must lie in \(0, 1\]"),
    ("abar-above-one", r"abar must lie in \(0, 1\]"),
    ("posterior-non-unit", "unit-variance components"),
    ("posterior-nearly-unit", "unit-variance components"),
    ("posterior-no-dense", "dense operator"),
    ("sample-zero", "n must be >= 1"),
], ids=["means-1d", "weights-shape", "variance-array", "variance-bool", "variance-zero",
        "variance-negative", "variance-nan", "variance-inf", "cov-shape", "abar-zero",
        "abar-above-one", "posterior-non-unit", "posterior-nearly-unit", "posterior-no-dense",
        "sample-zero"])
def test_gmm_input_refusals(case, match):
    good = dict(means=np.zeros((2, 2)), weights=np.full(2, 0.5), variance=1.0)
    prior = make_grid_gmm(2)
    A = from_dense(np.eye(2))
    with pytest.raises(ValueError, match=match):
        if isinstance(case, dict):
            GaussianMixture(**{**good, **case})
        elif case.startswith("abar"):
            score(prior, np.zeros(2), 0.0 if case == "abar-zero" else 1.5)
        elif case == "posterior-non-unit":
            exact_posterior(GaussianMixture(**{**good, "variance": 2.0}), A, np.zeros(2), 0.5)
        elif case == "posterior-nearly-unit":
            exact_posterior(GaussianMixture(**{**good, "variance": 1.0 + 1e-13}), A,
                            np.zeros(2), 0.5)
        elif case == "posterior-no-dense":
            exact_posterior(prior, dataclasses.replace(A, dense=None), np.zeros(2), 0.5)
        else:
            # A bool and a float are no counts either, and are refused before any draw.
            rng = np.random.default_rng(0)
            state = rng.bit_generator.state
            for n in (True, 2.0):
                with pytest.raises(ValueError, match=match):
                    sample_mixture(prior, n, rng)
            assert rng.bit_generator.state == state
            sample_mixture(prior, 0, rng)


def test_mixture_validation():
    with pytest.raises(ValueError):
        GaussianMixture(means=np.zeros((2, 2)), weights=np.array([0.7, 0.7]), variance=1.0)
    with pytest.raises(ValueError):
        GaussianMixture(means=np.zeros((1, 2)), weights=np.ones(1))
    with pytest.raises(np.linalg.LinAlgError):
        GaussianMixture(means=np.zeros((1, 2)), weights=np.ones(1),
                        cov=np.array([[1.0, 2.0], [2.0, 1.0]]))
    # NaN passes both the weight-sum test and var <= 0, so finiteness is its own check.
    good = dict(means=np.zeros((2, 2)), weights=np.full(2, 0.5), variance=1.0)
    for name, bad in (("means", np.array([[0.0, np.nan], [0.0, 0.0]])),
                      ("means", np.array([[0.0, np.inf], [0.0, 0.0]])),
                      ("weights", np.array([np.nan, 0.5])),
                      ("weights", np.array([np.nan, np.nan])),
                      ("variance", np.nan),
                      ("variance", np.inf)):
        with pytest.raises(ValueError, match="finite"):
            GaussianMixture(**{**good, name: bad})
    for cov in (np.array([[1.0, np.nan], [np.nan, 1.0]]), np.diag([1.0, np.inf])):
        with pytest.raises(ValueError, match="finite"):
            GaussianMixture(means=np.zeros((1, 2)), weights=np.ones(1), cov=cov)
