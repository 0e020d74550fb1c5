import dataclasses
import warnings

import numpy as np
import pytest

import cdps.gmm
from cdps.gmm import (
    GaussianMixture,
    denoiser_jacobian_vp,
    exact_posterior,
    log_marginal_density,
    make_grid_gmm,
    sample_mixture,
    denoiser_jvp_fn_for,
    score,
    score_fn_for,
    score_jacobian_vp,
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
    g = GaussianMixture(means=mu[None], weights=np.ones(1), variances=np.ones(1))
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


def test_score_jacobian_vp_matches_directional_fd():
    g = make_grid_gmm(4)
    rng = np.random.default_rng(2)
    x = rng.uniform(-10, 10, 4)
    u = rng.standard_normal(4)
    h = 1e-6
    fd = (score(g, x + h * u, 0.5) - score(g, x - h * u, 0.5)) / (2 * h)
    hv = score_jacobian_vp(g, x, 0.5, u)
    np.testing.assert_allclose(hv, fd, rtol=1e-6, atol=1e-8)


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
    hv = score_jacobian_vp(g, x, abar, u)
    assert len(calls) == 1
    # Each call on its own fresh mixture computes its own pass.
    np.testing.assert_array_equal(s, score(dataclasses.replace(g), x, abar))
    np.testing.assert_array_equal(jv, denoiser_jacobian_vp(dataclasses.replace(g), x, abar, u))
    np.testing.assert_array_equal(hv, score_jacobian_vp(dataclasses.replace(g), x, abar, u))
    assert len(calls) == 4


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
    var_t = abar * gmm.variances + (1.0 - abar)
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


def _reference_score_jacobian_vp(gmm, x, abar, u):
    r, means_t, var_t = _reference_pass(gmm, x, abar)
    rv = r / var_t
    s = rv @ means_t - x * rv.sum(axis=-1)[..., None]
    gu = (u @ means_t.T - np.einsum("...i,...i->...", x, u)[..., None]) / var_t
    t = r * gu
    term = t @ means_t - x * t.sum(axis=-1)[..., None]
    su = np.einsum("...i,...i->...", s, u)[..., None]
    return -rv.sum(axis=-1)[..., None] * u + term - s * su


def _reference_denoiser_jacobian_vp(gmm, x, abar, u):
    r, _, var_t = _reference_pass(gmm, x, abar)
    v = float(var_t[0])
    t = r * (u @ gmm.means.T)
    cov_u = t @ gmm.means - (r @ gmm.means) * t.sum(axis=-1)[..., None]
    return np.sqrt(abar) * ((gmm.variances[0] / v) * u + ((1.0 - abar) / (v * v)) * cov_u)


def test_score_pass_bitwise_equals_reference():
    # Scalar variances and log weights, and the folded -2 and -1/2, must not
    # move a bit of the score or its Jacobian products: DPS amplifies the
    # score's rounding past the benchmark's reference tolerance.
    rng = np.random.default_rng(33)
    d, K = 8, 25
    grid = make_grid_gmm(d)
    weights = rng.dirichlet(np.ones(K))
    mixtures = {
        "equal": (grid, True),
        "unequal weights": (dataclasses.replace(grid, weights=weights), True),
        "unequal variances": (dataclasses.replace(grid, variances=rng.uniform(0.5, 2.0, K)),
                              False),
        "unequal both": (GaussianMixture(means=grid.means, weights=weights,
                                         variances=rng.uniform(0.5, 2.0, K)), False),
        "nearly equal variances": (dataclasses.replace(
            grid, variances=1.0 + 1e-14 * rng.standard_normal(K)), True),
    }
    assert np.ndim(grid._var) == 0 and np.ndim(grid._log_weights) == 0
    assert np.ndim(mixtures["nearly equal variances"][0]._var) == 1
    # Every seventh level of the benchmark schedule, with its ends.
    abars = make_linear_schedule(1000, 0.1, 500.0).alpha_bars
    levels = [*abars[1::7].tolist(), float(abars[-1]), 1.0]
    xs = {"single": 8.0 * rng.standard_normal(d), "batched": 8.0 * rng.standard_normal((30, d))}
    for name, (g, equal_var) in mixtures.items():
        for kind, x in xs.items():
            u = rng.standard_normal(x.shape)
            for abar in levels:
                g = dataclasses.replace(g)  # a fresh pass every call
                pairs = [(score(g, x, abar), _reference_score(g, x, abar)),
                         (score_jacobian_vp(g, x, abar, u),
                          _reference_score_jacobian_vp(g, x, abar, u))]
                if equal_var:
                    pairs.append((denoiser_jacobian_vp(g, x, abar, u),
                                  _reference_denoiser_jacobian_vp(g, x, abar, u)))
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
        "grid": (grid, True),
        "unequal weights": (dataclasses.replace(grid, weights=weights), True),
        "unequal variances": (dataclasses.replace(grid, variances=rng.uniform(0.5, 2.0, grid.K)),
                              False),
        # Grid means scale exactly by powers of two; these do not.
        "random means": (dataclasses.replace(grid, means=8.0 * rng.standard_normal((9, d)),
                                             weights=np.full(9, 1 / 9), variances=np.ones(9)),
                         True),
    }
    schedule = make_linear_schedule(1000, 0.1, 500.0)
    x = 8.0 * rng.standard_normal((20, d))
    u = rng.standard_normal((20, d))
    calls = count_passes(monkeypatch)
    for name, (g, equal_var) in mixtures.items():
        score_fn = score_fn_for(g, schedule)
        jvp_fn = denoiser_jvp_fn_for(g, schedule) if equal_var else None
        for t in range(schedule.num_steps + 1):
            per_call = dataclasses.replace(g)
            abar = alpha_bar(schedule, t)
            s = score_fn(x, t)
            assert np.array_equal(s, score(per_call, x, abar)), (name, t)
            assert np.array_equal(s, _reference_score(g, x, abar)), (name, t)
            if equal_var:
                before = len(calls)
                jv = jvp_fn(x, t, u)
                assert len(calls) == before
                assert np.array_equal(jv, denoiser_jacobian_vp(per_call, x, abar, u)), (name, t)
                ref = _reference_denoiser_jacobian_vp(g, x, abar, u)
                assert np.array_equal(jv, ref), (name, t)
        for bad in (-1, schedule.num_steps + 1):
            with pytest.raises(ValueError, match="t must be in"):
                score_fn(x, bad)
            if equal_var:
                with pytest.raises(ValueError, match="t must be in"):
                    jvp_fn(x, bad, u)


def test_isotropic_guards():
    x = np.zeros((2, 2))
    unequal = GaussianMixture(means=np.zeros((2, 2)), weights=np.full(2, 0.5),
                              variances=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="equal component variances"):
        denoiser_jacobian_vp(unequal, x, 0.5, x)
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


def test_logsumexp_bitwise_equals_scipy():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(7)
    for a in _logsumexp_cases(rng):
        for axis in (None, -1):
            ours, theirs = cdps.gmm._logsumexp(a, axis=axis), special.logsumexp(a, axis=axis)
            assert np.shape(ours) == np.shape(theirs)
            assert np.array_equal(ours, theirs, equal_nan=True), (a, axis)
    assert np.shape(cdps.gmm._logsumexp(np.array([0.0, -np.inf]))) == ()
    assert cdps.gmm._logsumexp(np.array([-np.inf, -np.inf])) == -np.inf


def test_exact_posterior_conjugate_case():
    d = 3
    prior = GaussianMixture(means=np.zeros((1, d)), weights=np.ones(1), variances=np.ones(1))
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
    with pytest.raises(ValueError):
        exact_posterior(prior, A, np.zeros(2), -1.0)


def test_sample_mixture_single_component_moments():
    g = GaussianMixture(means=np.zeros((1, 3)), weights=np.ones(1), variances=np.ones(1))
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
    prior = GaussianMixture(means=np.zeros((1, d)), weights=np.ones(1), variances=np.ones(1))
    y = np.array([1.0, -2.0, 0.5])
    post = exact_posterior(prior, from_dense(np.eye(d)), y, 1.0)
    s = sample_mixture(post, n, np.random.default_rng(9))
    se = np.sqrt(0.5 / n)
    assert np.all(np.abs(s.mean(axis=0) - y / 2.0) < 3 * se)


def test_mixture_validation():
    with pytest.raises(ValueError):
        GaussianMixture(means=np.zeros((2, 2)), weights=np.array([0.7, 0.7]),
                        variances=np.ones(2))
    with pytest.raises(ValueError):
        GaussianMixture(means=np.zeros((1, 2)), weights=np.ones(1))
    with pytest.raises(np.linalg.LinAlgError):
        GaussianMixture(means=np.zeros((1, 2)), weights=np.ones(1),
                        cov=np.array([[1.0, 2.0], [2.0, 1.0]]))
