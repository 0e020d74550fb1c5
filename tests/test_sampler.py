import dataclasses
import functools
import math
import mmap
import re
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cdps.sampler
from cdps.gmm import (
    GaussianMixture,
    exact_posterior,
    make_grid_gmm,
    sample_mixture,
    score,
    score_fn_for,
    denoiser_jvp_fn_for,
)
from cdps.linalg import CgReport, cg_solve, spectral_factor, spectral_solve
from cdps.metrics import IterateTrace, measurement_residual, sliced_wasserstein
from cdps.operators import (
    CirculantNoise,
    DiagonalNoise,
    IsotropicNoise,
    LowRankNoise,
    blur_operator,
    from_dense,
    make_random_svd_operator,
    mix_conditional_cov,
    mix_variance,
    zero_operator,
)
from cdps.sampler import (
    ChainFailureError,
    MeasurementChain,
    NonlinearMap,
    NormalStream,
    SolverConfig,
    _ancestral_step,
    _pinv,
    cdps_sample,
    cdps_step,
    cdps_step_nonlinear,
    dps_sample,
    generate_measurement_chain,
    ilvr_sample,
    linearize,
    make_step_params,
    posterior_mean,
    pw_cg_draw,
    score_sde_sample,
)
from cdps.schedules import alpha_bar, check_finite, make_linear_schedule

BENCH_SCHEDULE = make_linear_schedule(1000, 0.1, 500.0)


# ---------------------------------------------------------------------------
# Measurement chain


def test_chain_degenerate_schedule_stays_at_y0():
    schedule = make_linear_schedule(200, 1e-9, 1e-9)
    y0 = np.array([2.0, -1.0])
    chain = generate_measurement_chain(y0, schedule, np.random.default_rng(0))
    assert np.max(np.abs(chain.y_levels - y0)) < 1e-2


def test_chain_single_step_recursion():
    schedule = make_linear_schedule(1, 0.5, 0.5)
    y0 = np.array([1.0, 2.0])
    chain = generate_measurement_chain(y0, schedule, np.random.default_rng(1))
    z = np.random.default_rng(1).standard_normal((1, 2))[0]
    np.testing.assert_allclose(chain.y_at(1), np.sqrt(0.5) * y0 + np.sqrt(0.5) * z, rtol=1e-12)
    np.testing.assert_array_equal(chain.y_at(0), y0)


@pytest.mark.parametrize("n_chains", [None, 1, 7])
def test_chain_equals_block_recursion_in_place(n_chains):
    # Bit-equal to one (n, T, m) noise draw run through the recursion, and
    # built without a second block of that size.
    schedule = BENCH_SCHEDULE
    T, m = schedule.num_steps, 16
    y0 = np.linspace(-2.0, 3.0, m)
    batch = () if n_chains is None else (n_chains,)
    z = np.random.default_rng(33).standard_normal(batch + (T, m))
    expected = np.empty(batch + (T + 1, m))
    expected[..., 0, :] = y0
    for t in range(1, T + 1):
        expected[..., t, :] = (np.sqrt(schedule.alphas[t - 1]) * expected[..., t - 1, :]
                               + np.sqrt(schedule.betas[t - 1]) * z[..., t - 1, :])
    del z

    rng = np.random.default_rng(33)
    tracemalloc.start()
    try:
        chain = generate_measurement_chain(y0, schedule, rng, n_chains)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(chain.y_levels, expected)
    # The generator ends where the one (n, T, m) draw leaves it.
    block = np.random.default_rng(33)
    block.standard_normal(batch + (T, m))
    assert rng.bit_generator.state == block.bit_generator.state
    # At 7 chains the level array dwarfs the schedule's two T-long arrays.
    if n_chains == 7:
        assert peak <= 1.1 * chain.y_levels.nbytes


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="reads /proc/self/statm")
def test_freed_chain_gives_back_its_pages():
    # Freeing a block larger than the chain first raises malloc's mmap
    # threshold past the chain's size, so a chain taken from malloc would
    # stay resident in the heap once freed.  The chain's own mapping is
    # given back whatever the heap holds.
    def resident_bytes():
        return int(Path("/proc/self/statm").read_text().split()[1]) * mmap.PAGESIZE

    larger = np.ones(28 << 17)  # 28 MiB
    del larger
    chain = generate_measurement_chain(np.zeros(32), BENCH_SCHEDULE, np.random.default_rng(5),
                                       n_chains=100)
    nbytes = chain.y_levels.nbytes
    held = resident_bytes()
    del chain
    assert held - resident_bytes() >= 0.9 * nbytes


def test_chain_marginal_mean_monte_carlo():
    schedule = BENCH_SCHEDULE
    y0 = np.array([1.5, -0.5, 2.0])
    n = 4000
    chain = generate_measurement_chain(y0, schedule, np.random.default_rng(2), n_chains=n)
    t = 500
    abar = schedule.alpha_bars[t]
    samples = chain.y_at(t)
    se = samples.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(samples.mean(axis=0) - np.sqrt(abar) * y0) < 3 * se)


def test_chain_validates_inputs():
    with pytest.raises(ValueError):
        generate_measurement_chain(np.array([np.inf]), BENCH_SCHEDULE, np.random.default_rng(3))
    chain = generate_measurement_chain(np.zeros(2), BENCH_SCHEDULE, np.random.default_rng(3))
    with pytest.raises(ValueError):
        chain.y_at(1001)


@pytest.mark.parametrize("n_chains", [0, -3, True, 2.0])
def test_chain_refuses_fewer_than_one_chain(n_chains):
    # 0 used to return an empty chain, -3 to end in numpy's "negative
    # dimensions" and True and 2.0 in a TypeError from the chain's pages;
    # the chain now refuses each as the samplers do, before any draw.
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="n_chains must be an integer >= 1"):
        generate_measurement_chain(np.zeros(2), BENCH_SCHEDULE, rng, n_chains)
    assert rng.bit_generator.state == state


def test_measurement_chain_takes_levels_as_a_float_array():
    # A 1-D array of levels used to end in an IndexError and a nested list
    # in an AttributeError; the levels are now read as a float array, and
    # fewer than two dimensions are refused.
    schedule = make_linear_schedule(4, 0.1, 1.25)
    with pytest.raises(ValueError, match=r"chain length must be T \+ 1 .* got shape \(5,\)"):
        MeasurementChain(y_levels=np.zeros(5), schedule=schedule)
    chain = MeasurementChain(y_levels=[[0.0, 1.0]] * 5, schedule=schedule)
    assert chain.y_levels.dtype == float and chain.y_levels.shape == (5, 2)
    np.testing.assert_array_equal(chain.y_at(4), [0.0, 1.0])
    # A sampler's own chain keeps its float view, uncopied.
    drawn = generate_measurement_chain(np.zeros(2), schedule, np.random.default_rng(5), 3)
    again = MeasurementChain(drawn.y_levels, schedule)
    assert again.y_levels is drawn.y_levels and drawn.y_levels.shape == (3, 5, 2)


# ---------------------------------------------------------------------------
# Coupled step


def test_step_measurement_free_collapse():
    # A = 0 under the bare two-factor posterior: x/sqrt(1-beta) plus noise of
    # variance beta/(1-beta).
    schedule = make_linear_schedule(4, 0.2, 0.4)
    d, m, t = 3, 2, 3
    A = zero_operator(m, d)
    noise = IsotropicNoise(1.0)
    cfg = SolverConfig(prior_mode="none")
    x_t = np.array([1.0, -2.0, 0.5])
    beta = schedule.betas[t - 1]

    params = make_step_params(x_t, t, lambda x, tt: -x, A, noise, schedule, cfg)
    mu = posterior_mean(params, x_t, np.zeros(m))
    np.testing.assert_allclose(mu, x_t / np.sqrt(1.0 - beta), rtol=1e-10)

    rng = np.random.default_rng(4)
    v, _ = pw_cg_draw(params.precision, rng, preconditioner=params.preconditioner)
    clone = np.random.default_rng(4)
    eps1 = clone.standard_normal(d)
    clone.standard_normal(m)  # eps2 consumed but annihilated by A = 0
    c = (1.0 - beta) / beta
    np.testing.assert_allclose(v, eps1 / np.sqrt(c), rtol=1e-10)


def test_step_matches_dense_posterior_oracle():
    # mu_post equals the dense two-factor posterior solve
    rng = np.random.default_rng(5)
    d, m, t = 4, 2, 600
    schedule = BENCH_SCHEDULE
    A = from_dense(rng.standard_normal((m, d)))
    noise = IsotropicNoise(0.25)
    gmm = make_grid_gmm(d)
    score_fn = score_fn_for(gmm, schedule)
    cfg = SolverConfig(prior_mode="none")

    x_t = rng.standard_normal(d)
    y_prev = rng.standard_normal(m)
    params = make_step_params(x_t, t, score_fn, A, noise, schedule, cfg)
    mu = posterior_mean(params, x_t, y_prev)

    beta = schedule.betas[t - 1]
    abar_prev = schedule.alpha_bars[t - 1]
    gamma = abar_prev * 0.25 + (1.0 - abar_prev)
    s_hat = score_fn(x_t, t)
    b = (1.0 - abar_prev) * A.dense @ s_hat
    lam = (1.0 - beta) / beta * np.eye(d) + A.dense.T @ A.dense / gamma
    rhs = np.sqrt(1.0 - beta) / beta * x_t + A.dense.T @ (y_prev - b) / gamma
    expected = np.linalg.solve(lam, rhs)
    assert np.linalg.norm(mu - expected) / np.linalg.norm(expected) < 1e-8


def test_step_prior_dominates_as_beta_vanishes():
    schedule = make_linear_schedule(1, 1e-8, 1e-8)
    rng = np.random.default_rng(6)
    d, m = 4, 2
    A = from_dense(rng.standard_normal((m, d)))
    noise = IsotropicNoise(1.0)
    cfg = SolverConfig(prior_mode="none")
    x_t = rng.standard_normal(d)
    y = 100.0 * rng.standard_normal(m)
    params = make_step_params(x_t, 1, lambda x, tt: -x, A, noise, schedule, cfg)
    mu = posterior_mean(params, x_t, y)
    assert np.linalg.norm(mu - x_t) / np.linalg.norm(x_t) < 1e-3


def test_step_distributional_covariance():
    # empirical covariance of x_{t-1} from a fixed (x_t, y_prev) matches the
    # dense posterior covariance
    rng = np.random.default_rng(7)
    d, m, t = 4, 2, 700
    schedule = BENCH_SCHEDULE
    A = from_dense(rng.standard_normal((m, d)))
    noise = IsotropicNoise(0.5)
    cfg = SolverConfig(prior_mode="none")
    gmm = make_grid_gmm(d)
    score_fn = score_fn_for(gmm, schedule)

    n = 50_000
    x_t = np.tile(rng.standard_normal(d), (n, 1))
    y_prev = rng.standard_normal(m)
    levels = np.zeros((schedule.num_steps + 1, m))
    levels[t - 1] = y_prev
    chain = MeasurementChain(y_levels=levels, schedule=schedule)
    x_next = cdps_step(x_t, chain, t, score_fn, A, noise, np.random.default_rng(8), cfg)
    emp = np.cov(x_next.T)
    params = make_step_params(x_t[0], t, score_fn, A, noise, schedule, cfg)
    target = np.linalg.inv(params.precision.dense())
    assert np.linalg.norm(emp - target) / np.linalg.norm(target) < 0.05
    mu = posterior_mean(params, x_t[0], y_prev)
    se = np.sqrt(np.diag(target) / n)
    assert np.all(np.abs(x_next.mean(axis=0) - mu) < 4 * se)


def test_remark2_prior_inclusion_changes_mean_by_order_beta():
    rng = np.random.default_rng(9)
    d, m = 6, 3
    schedule = BENCH_SCHEDULE
    A = from_dense(rng.standard_normal((m, d)))
    noise = IsotropicNoise(0.3)
    gmm = make_grid_gmm(d)
    score_fn = score_fn_for(gmm, schedule)
    for t in (50, 400, 900):
        beta = schedule.betas[t - 1]
        x_t = rng.standard_normal(d)
        y_prev = rng.standard_normal(m)
        mus = {}
        for mode in ("none", "identity"):
            cfg = SolverConfig(prior_mode=mode)
            params = make_step_params(x_t, t, score_fn, A, noise, schedule, cfg)
            mus[mode] = posterior_mean(params, x_t, y_prev)
        change = np.linalg.norm(mus["identity"] - mus["none"]) / np.linalg.norm(mus["none"])
        assert change < 10.0 * beta


def test_cdps_sample_deterministic_and_traced():
    rng = np.random.default_rng(10)
    d, m, sigma = 4, 2, 0.1
    prior = make_grid_gmm(d)
    A = make_random_svd_operator(d, m, rng)
    y = rng.standard_normal(m)
    schedule = make_linear_schedule(50, 0.1, 100.0)
    score_fn = score_fn_for(prior, schedule)
    noise = IsotropicNoise(sigma ** 2)

    kwargs = dict(n_chains=8, config=SolverConfig(strict=False))
    obs1, obs2 = IterateTrace(score_fn, y, A), IterateTrace(score_fn, y, A)
    x1, tr1 = cdps_sample(y, A, noise, schedule, obs1, np.random.default_rng(11), **kwargs)
    x2, tr2 = cdps_sample(y, A, noise, schedule, obs2, np.random.default_rng(11), **kwargs)
    np.testing.assert_array_equal(x1, x2)
    # Observing goes through the same step: the samples do not change.
    x_plain, _ = cdps_sample(y, A, noise, schedule, score_fn, np.random.default_rng(11),
                             **kwargs)
    np.testing.assert_array_equal(x_plain, x1)
    (res1, cos1, _), (res2, _, _) = obs1.close(x1), obs2.close(x2)
    assert cos1.shape == (51, 8)
    assert res1.shape == (51, 8)
    assert tr1.failed_rows.size == 0
    np.testing.assert_array_equal(res1, res2)
    # A dense operator is solved exactly; without its dense form every step runs CG.
    assert np.all(tr1.cg_iters == 0)
    _, tr3 = cdps_sample(y, dataclasses.replace(A, dense=None), noise, schedule, score_fn,
                         np.random.default_rng(11), **kwargs)
    assert np.all(tr3.cg_iters[1:] > 0)


def test_cdps_sample_single_chain_shape():
    rng = np.random.default_rng(40)
    d, m = 4, 2
    prior = make_grid_gmm(d)
    A = make_random_svd_operator(d, m, rng)
    y = rng.standard_normal(m)
    schedule = make_linear_schedule(30, 0.1, 7.5)
    score_fn = score_fn_for(prior, schedule)
    observer = IterateTrace(score_fn, y, A)
    x0, tr = cdps_sample(y, A, IsotropicNoise(0.01), schedule, observer,
                         np.random.default_rng(41), config=SolverConfig(strict=False))
    assert x0.shape == (4,)
    assert all(record.shape == (31,) for record in observer.close(x0))
    assert tr.cg_iters.shape == (31,)


def test_strict_cg_failure_raises_at_the_first_step(monkeypatch):
    # Without a dense form the step runs CG; held to one iteration at tol
    # 1e-14 it converges no row, and the default (strict) config raises at
    # t = T naming every failed row instead of recording them.
    monkeypatch.setattr(cdps.sampler, "cg_solve",
                        functools.partial(cg_solve, tol=1e-14, max_iter=1))
    rng = np.random.default_rng(42)
    A = dataclasses.replace(make_random_svd_operator(8, 4, rng), dense=None)
    schedule = make_linear_schedule(5, 0.1, 1.25)
    threads = threading.active_count()
    with pytest.raises(ChainFailureError) as err:
        cdps_sample(rng.standard_normal(4), A, IsotropicNoise(1e-2), schedule,
                    score_fn_for(make_grid_gmm(8), schedule), np.random.default_rng(43),
                    n_chains=6)
    assert err.value.t == schedule.num_steps
    assert err.value.rows.tolist() == list(range(6))
    assert threading.active_count() == threads  # the normals' producer is joined


def test_single_steps_raise_on_a_failed_cg_row_whatever_strict_says(monkeypatch):
    # A single step or mean keeps no trace to record a failed row in, so it
    # raises under strict=False too; a run under strict=False records the row.
    monkeypatch.setattr(cdps.sampler, "cg_solve",
                        functools.partial(cg_solve, tol=1e-14, max_iter=1))
    rng = np.random.default_rng(46)
    A = dataclasses.replace(make_random_svd_operator(8, 4, rng), dense=None)
    schedule = make_linear_schedule(5, 0.1, 1.25)
    score_fn = score_fn_for(make_grid_gmm(8), schedule)
    noise, lax = IsotropicNoise(1e-2), SolverConfig(strict=False)
    y = rng.standard_normal(4)
    chain = generate_measurement_chain(y, schedule, rng, n_chains=3)
    x_t = rng.standard_normal((3, 8))
    with pytest.raises(ChainFailureError, match="sample CG solve failed at step t=3") as err:
        cdps_step(x_t, chain, 3, score_fn, A, noise, rng, lax)
    assert err.value.rows.tolist() == [0, 1, 2]
    params = make_step_params(x_t, 3, score_fn, A, noise, schedule, lax)
    with pytest.raises(ChainFailureError, match="mean CG solve failed at step t=3"):
        posterior_mean(params, x_t, chain.y_at(2))
    _, trace = cdps_sample(y, A, noise, schedule, score_fn, np.random.default_rng(47),
                           n_chains=3, config=lax)
    assert trace.failed_rows.tolist() == [0, 1, 2]


def _report_unconverged(monkeypatch, T, rows_at):
    """Make the step's CG solve report ``rows_at[t]`` unconverged at step t, the solution kept."""
    steps = iter(range(T, 0, -1))

    def flagged(*args, **kwargs):
        x, report = cg_solve(*args, **kwargs)
        converged = report.row_converged.copy()
        converged[rows_at.get(next(steps), [])] = False
        return x, CgReport(report.iterations, converged)

    monkeypatch.setattr(cdps.sampler, "cg_solve", flagged)


def test_failed_rows_are_gathered_from_every_step(monkeypatch):
    # Rows reported unconverged at different steps all reach the trace, once
    # each, and are still stepped; strict mode raises at the first such step.
    rng = np.random.default_rng(44)
    A = dataclasses.replace(make_random_svd_operator(8, 4, rng), dense=None)
    y = rng.standard_normal(4)
    schedule = make_linear_schedule(5, 0.1, 1.25)
    T = schedule.num_steps
    score_fn = score_fn_for(make_grid_gmm(8), schedule)

    def run(strict):
        return cdps_sample(y, A, IsotropicNoise(1e-2), schedule, score_fn,
                           np.random.default_rng(45), n_chains=6,
                           config=SolverConfig(strict=strict))

    x_ref, trace_ref = run(strict=False)
    assert trace_ref.failed_rows.size == 0
    _report_unconverged(monkeypatch, T, {T: [1], 2: [4, 1]})
    x, trace = run(strict=False)
    assert trace.failed_rows.tolist() == [1, 4]
    np.testing.assert_array_equal(x, x_ref)
    _report_unconverged(monkeypatch, T, {T: [1], 2: [4, 1]})
    with pytest.raises(ChainFailureError) as err:
        run(strict=True)
    assert err.value.t == T
    assert err.value.rows.tolist() == [1]


@pytest.mark.parametrize("kind", ["fused", "factored", "rebuilt", "cg", "dps", "score_sde",
                                  "ilvr"])
def test_loop_scores_once_per_step_the_iterate_that_step_takes(kind, monkeypatch):
    # The contract IterateTrace relies on: the reverse-time loop calls the
    # score exactly once per step, at t = T..1 in order, with the very iterate
    # that step then takes, and hands the step the score it returned.
    d, m, n, T = 6, 2, 4, 12
    rng = np.random.default_rng(31)
    A = from_dense(rng.standard_normal((m, d)))
    y = rng.standard_normal(m)
    schedule = make_linear_schedule(T, 0.1, 5.0)
    prior = make_grid_gmm(d)
    score_fn = score_fn_for(prior, schedule)
    scored, stepped = [], []

    def scoring(x, t):
        scored.append((t, x, score_fn(x, t)))
        return scored[-1][2]

    run = cdps.sampler._reverse_run

    def spied_run(A, schedule, score_fn, rng, n_chains, per_row, step):
        def spied_step(x, t, s_hat, eps):
            stepped.append((t, x, s_hat))
            return step(x, t, s_hat, eps)
        return run(A, schedule, score_fn, rng, n_chains, per_row, spied_step)

    monkeypatch.setattr(cdps.sampler, "_reverse_run", spied_run)
    if kind == "factored":
        monkeypatch.setattr(cdps.sampler, "FUSED_STEP_MAX_D", 0)
    rng = np.random.default_rng(32)
    if kind in ("fused", "factored", "rebuilt", "cg"):
        noise = DiagonalNoise(np.full(m, 0.01)) if kind == "rebuilt" else IsotropicNoise(0.01)
        op = dataclasses.replace(A, dense=None) if kind == "cg" else A
        _, trace = cdps_sample(y, op, noise, schedule, scoring, rng, n_chains=n)
        assert np.all(trace.cg_iters[1:] > 0) == (kind == "cg")
    elif kind == "dps":
        dps_sample(y, A, schedule, scoring, denoiser_jvp_fn_for(prior, schedule), rng, n_chains=n)
    else:
        sample = score_sde_sample if kind == "score_sde" else ilvr_sample
        sample(y, A, schedule, scoring, rng, n_chains=n)
    assert [t for t, _, _ in scored] == [t for t, _, _ in stepped] == list(range(T, 0, -1))
    assert all(xs is xt and ss is st for (_, xs, ss), (_, xt, st) in zip(scored, stepped))


def test_cg_run_records_its_iterations_unasked():
    # Every run keeps its steps' solver work: with no option set, a CG run's
    # trace holds each step's iteration count, and 0 at t = 0, where none runs.
    d, m, T = 6, 2, 10
    rng = np.random.default_rng(33)
    A = dataclasses.replace(from_dense(rng.standard_normal((m, d))), dense=None)
    schedule = make_linear_schedule(T, 0.1, 5.0)
    _, trace = cdps_sample(rng.standard_normal(m), A, IsotropicNoise(0.01), schedule,
                           score_fn_for(make_grid_gmm(d), schedule), rng, n_chains=3)
    assert trace.cg_iters.shape == (T + 1,) and trace.cg_iters[0] == 0
    assert np.all(trace.cg_iters[1:] > 0)


def test_schedules_and_chains_compare_without_raising():
    # A generated __eq__ over array fields raises on two equal-length arrays;
    # both classes compare, and hash, by identity instead.
    a, b = make_linear_schedule(5, 0.1, 1.0), make_linear_schedule(5, 0.1, 1.0)
    chain = generate_measurement_chain(np.ones(2), a, np.random.default_rng(0))
    other = generate_measurement_chain(np.ones(2), a, np.random.default_rng(0))
    assert a == a and a != b and chain == chain and chain != other
    assert len({a, b, chain, other}) == 4


@pytest.mark.parametrize("method", ["dps", "score_sde", "ilvr"])
def test_baseline_trace_has_zero_iterations_and_no_failed_rows(method):
    d, m, n = 6, 2, 5
    rng = np.random.default_rng(78)
    A = from_dense(rng.standard_normal((m, d)))
    y = rng.standard_normal(m)
    schedule = make_linear_schedule(10, 0.1, 5.0)
    T = schedule.num_steps
    prior = make_grid_gmm(d)
    score_fn = score_fn_for(prior, schedule)
    rng = np.random.default_rng(79)
    observer = IterateTrace(score_fn, y, A)
    if method == "dps":
        x0, trace = dps_sample(y, A, schedule, observer, denoiser_jvp_fn_for(prior, schedule),
                               rng, n_chains=n)
    else:
        sample = score_sde_sample if method == "score_sde" else ilvr_sample
        x0, trace = sample(y, A, schedule, observer, rng, n_chains=n)
    assert observer.close(x0)[0].shape == (T + 1, n)
    np.testing.assert_array_equal(trace.cg_iters, np.zeros(T + 1, dtype=int))
    assert trace.failed_rows.size == 0


def test_cdps_sample_shared_chain(monkeypatch):
    # Every row steps along one measurement chain, drawn first from the
    # generator exactly as a single-chain run draws it.
    rng = np.random.default_rng(12)
    d, m = 4, 2
    prior = make_grid_gmm(d)
    A = make_random_svd_operator(d, m, rng)
    y = rng.standard_normal(m)
    schedule = make_linear_schedule(20, 0.1, 50.0)
    score_fn = score_fn_for(prior, schedule)
    chains = []

    def capture(*args, **kwargs):
        chains.append(generate_measurement_chain(*args, **kwargs))
        return chains[-1]

    monkeypatch.setattr(cdps.sampler, "generate_measurement_chain", capture)
    for noise in (IsotropicNoise(0.01), DiagonalNoise(np.full(m, 0.01))):
        x0, _ = cdps_sample(y, A, noise, schedule, score_fn,
                            np.random.default_rng(13), n_chains=5, shared_chain=True,
                            config=SolverConfig(strict=False))
        assert x0.shape == (5, 4)
        assert chains[-1].y_levels.shape == (schedule.num_steps + 1, m)
        expected = generate_measurement_chain(y, schedule, np.random.default_rng(13))
        np.testing.assert_array_equal(chains[-1].y_levels, expected.y_levels)


SPECTRAL_SHAPES = {"m<d": (6, 2), "m=d": (4, 4), "m>d": (4, 6)}


@pytest.mark.parametrize("shape", list(SPECTRAL_SHAPES))
@pytest.mark.parametrize("prior_mode", ["score", "identity", "none"])
@pytest.mark.parametrize("chains", ["rows", "shared", "single"])
def test_isotropic_run_matches_rebuilt_steps(shape, prior_mode, chains, monkeypatch):
    # Isotropic noise with a dense operator factors A once per run; the same
    # covariance as a diagonal noise model rebuilds every step's precision.
    # Both must give the same samples and diagnostics from the same seed.  The
    # fused step makes one spectral_solve per block: steps 50, 49..18, 17..1.
    assert _check_isotropic_run_matches_rebuilt_steps(SPECTRAL_SHAPES[shape], prior_mode,
                                                      chains, monkeypatch) == 3


@pytest.mark.parametrize("shape", list(SPECTRAL_SHAPES) + ["tall"])
@pytest.mark.parametrize("prior_mode", ["score", "identity", "none"])
@pytest.mark.parametrize("chains", ["rows", "shared", "single"])
def test_factored_spectral_run_matches_rebuilt_steps(shape, prior_mode, chains, monkeypatch):
    # When d or m is above FUSED_STEP_MAX_D the spectral step keeps its
    # factored solve, one spectral_solve per step; "tall" is the m > d shape
    # with only m above it.
    monkeypatch.setattr(cdps.sampler, "FUSED_STEP_MAX_D", 4 if shape == "tall" else 0)
    assert _check_isotropic_run_matches_rebuilt_steps(
        SPECTRAL_SHAPES["m>d" if shape == "tall" else shape], prior_mode, chains,
        monkeypatch) == 50


@pytest.mark.parametrize("d, m", [(80, 4), (800, 4), (80, 80)])
def test_factored_step_at_its_own_sizes_matches_rebuilt_steps(d, m, monkeypatch):
    # The sizes the factored step serves, with FUSED_STEP_MAX_D as it is: one
    # spectral_solve per step, where the fused step makes one per block.
    assert max(d, m) > cdps.sampler.FUSED_STEP_MAX_D
    assert _check_isotropic_run_matches_rebuilt_steps((d, m), "score", "rows", monkeypatch) == 50


def _check_isotropic_run_matches_rebuilt_steps(shape, prior_mode, chains, monkeypatch):
    """Returns the number of ``spectral_solve`` calls the isotropic run made, of 50 steps.

    ``shape`` is (d, m).
    """
    d, m = shape
    rng = np.random.default_rng(70)
    A = from_dense(rng.standard_normal((m, d)))
    y = rng.standard_normal(m)
    schedule = make_linear_schedule(50, 0.1, 20.0)
    score_fn = score_fn_for(make_grid_gmm(d), schedule)
    sigma2 = 0.01
    n_chains = None if chains == "single" else 6
    kwargs = dict(n_chains=n_chains, shared_chain=chains == "shared",
                  config=SolverConfig(prior_mode=prior_mode))
    obs_ref = IterateTrace(score_fn, y, A)
    x_ref, _ = cdps_sample(y, A, DiagonalNoise(np.full(m, sigma2)), schedule, obs_ref,
                           np.random.default_rng(71), **kwargs)

    def rebuilt(*args):
        raise AssertionError("the isotropic run rebuilt a step's covariance")

    monkeypatch.setattr(cdps.sampler, "mix_conditional_cov", rebuilt)
    solves = []

    def counted(*args):
        solves.append(1)
        return spectral_solve(*args)

    monkeypatch.setattr(cdps.sampler, "spectral_solve", counted)
    observer = IterateTrace(score_fn, y, A)
    x, tr = cdps_sample(y, A, IsotropicNoise(sigma2), schedule, observer,
                        np.random.default_rng(71), **kwargs)
    isotropic_solves = len(solves)
    (res, cos, mse), (res_ref, cos_ref, mse_ref) = observer.close(x), obs_ref.close(x_ref)
    for got, ref in ((x, x_ref), (res, res_ref), (cos[1:], cos_ref[1:]), (mse[1:], mse_ref[1:])):
        assert got.shape == ref.shape
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.all(tr.cg_iters == 0) and tr.failed_rows.size == 0

    def nan_at_10(x_t, t):
        s_hat = score_fn(x_t, t)
        return s_hat * np.nan if t == 10 else s_hat

    threads = threading.active_count()
    with pytest.raises(ValueError, match="score at t=10 must be finite"):
        cdps_sample(y, A, IsotropicNoise(sigma2), schedule, nan_at_10,
                    np.random.default_rng(71), **kwargs)
    assert threading.active_count() == threads  # the normals' producer is joined
    return isotropic_solves


@pytest.mark.parametrize("fused", [True, False])
@pytest.mark.parametrize("shared", [False, True])
def test_spectral_run_stream_order(fused, shared, monkeypatch):
    # The documented draw order: the chain block, x_T, then per step eps1
    # (n, d) and eps2 (n, m).  The right-hand side and solve draw nothing else.
    if not fused:
        monkeypatch.setattr(cdps.sampler, "FUSED_STEP_MAX_D", 0)
    d, m, n = 6, 2, 5
    rng = np.random.default_rng(72)
    A = from_dense(rng.standard_normal((m, d)))
    y = rng.standard_normal(m)
    schedule = make_linear_schedule(30, 0.1, 20.0)
    rng = np.random.default_rng(73)
    cdps_sample(y, A, IsotropicNoise(0.01), schedule, score_fn_for(make_grid_gmm(d), schedule),
                rng, n_chains=n, shared_chain=shared)
    expected = np.random.default_rng(73)
    T = schedule.num_steps
    expected.standard_normal((T, m) if shared else (n, T, m))
    expected.standard_normal((n, d))
    for _ in range(T):
        expected.standard_normal((n, d))
        expected.standard_normal((n, m))
    assert rng.bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize("path", ["rebuilt", "single", "dps", "score_sde", "ilvr",
                                  "dps-single", "score_sde-single", "ilvr-single"])
def test_run_stream_order_on_every_path(path):
    # Whichever thread draws them, every sampler leaves its generator where
    # serial draws in the documented order leave it, and no thread behind,
    # with n chains or one (n_chains=None; "single" is C-DPS's).
    d, m, n = 6, 2, 5
    rng = np.random.default_rng(76)
    A = from_dense(rng.standard_normal((m, d)))
    y = rng.standard_normal(m)
    schedule = make_linear_schedule(30, 0.1, 20.0)
    T = schedule.num_steps
    prior = make_grid_gmm(d)
    score_fn = score_fn_for(prior, schedule)
    rng = np.random.default_rng(77)
    threads = threading.active_count()
    method, _, single = path.partition("-")
    batch = () if single or method == "single" else (n,)
    n_chains = batch[0] if batch else None
    if method in ("rebuilt", "single"):
        noise = DiagonalNoise(np.full(m, 0.01)) if method == "rebuilt" else IsotropicNoise(0.01)
        cdps_sample(y, A, noise, schedule, score_fn, rng, n_chains=n_chains)
        serial = [batch + (T, m), batch + (d,)] + [batch + (d,), batch + (m,)] * T
    elif method == "dps":
        dps_sample(y, A, schedule, score_fn, denoiser_jvp_fn_for(prior, schedule), rng,
                   n_chains=n_chains)
        serial = [batch + (d,)] * (T + 1)
    else:
        sample = score_sde_sample if method == "score_sde" else ilvr_sample
        sample(y, A, schedule, score_fn, rng, n_chains=n_chains)
        serial = [batch + (d,)] + [batch + (d,), batch + (m,)] * T
    assert threading.active_count() == threads
    expected = np.random.default_rng(77)
    for shape in serial:
        expected.standard_normal(shape)
    assert rng.bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize("case", [
    f"{method}-{bad}" for method in ("cdps", "dps", "score_sde", "ilvr") for bad in ("short", "nan")
] + ["cdps_step", "cdps_step_nonlinear", "cdps_step-t", "cdps_step_nonlinear-t"])
def test_bad_y_is_refused_before_any_draw(case):
    # Every sampler requires y of shape (m,) with finite entries, and each
    # single step a chain of m-long levels and an integer t.  A 1-long y used
    # to broadcast over the m measurements, a NaN y gave NaN samples, and
    # t = 3.5 failed inside numpy; now each raises before the generator moves.
    d, m, n = 8, 4, 3
    rng = np.random.default_rng(83)
    M = rng.standard_normal((m, d))
    A, noise = from_dense(M), IsotropicNoise(0.01)
    schedule = make_linear_schedule(5, 0.1, 1.25)
    prior = make_grid_gmm(d)
    score_fn = score_fn_for(prior, schedule)
    method, _, bad = case.partition("-")
    y = np.array([0.5]) if bad == "short" else np.full(m, np.nan)
    match = {"short": r"shape \(4,\)", "nan": "finite", "": "length 4", "t": "integer"}[bad]
    rng = np.random.default_rng(84)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=match):
        if method == "cdps":
            cdps_sample(y, A, noise, schedule, score_fn, rng, n_chains=n)
        elif method == "dps":
            dps_sample(y, A, schedule, score_fn, denoiser_jvp_fn_for(prior, schedule), rng,
                       n_chains=n)
        elif method in ("score_sde", "ilvr"):
            sample = score_sde_sample if method == "score_sde" else ilvr_sample
            sample(y, A, schedule, score_fn, rng, n_chains=n)
        else:
            chain = generate_measurement_chain(np.zeros(m) if bad else np.array([0.5]), schedule,
                                               np.random.default_rng(85))
            x_t = np.random.default_rng(86).standard_normal(d)
            t = 3.5 if bad else 3
            if method == "cdps_step":
                cdps_step(x_t, chain, t, score_fn, A, noise, rng)
            else:
                cdps_step_nonlinear(x_t, chain, t, score_fn, affine_map(M), noise, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("method", ["cdps", "dps", "score_sde", "ilvr"])
@pytest.mark.parametrize("n_chains", [0, -3, True, 2.0])
def test_samplers_refuse_fewer_than_one_chain(method, n_chains):
    # Zero chains used to run every step on an empty batch and return a
    # (0, d) array, -3 ended in numpy's "negative dimensions" and True and
    # 2.0 in a TypeError inside numpy; each sampler now refuses all four
    # before any draw, C-DPS before its chain.
    d, m = 8, 4
    rng = np.random.default_rng(87)
    A = from_dense(rng.standard_normal((m, d)))
    y = rng.standard_normal(m)
    schedule = make_linear_schedule(5, 0.1, 1.25)
    prior = make_grid_gmm(d)
    score_fn = score_fn_for(prior, schedule)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="n_chains must be an integer >= 1"):
        if method == "cdps":
            cdps_sample(y, A, IsotropicNoise(0.01), schedule, score_fn, rng, n_chains=n_chains)
        elif method == "dps":
            dps_sample(y, A, schedule, score_fn, denoiser_jvp_fn_for(prior, schedule), rng,
                       n_chains=n_chains)
        else:
            sample = score_sde_sample if method == "score_sde" else ilvr_sample
            sample(y, A, schedule, score_fn, rng, n_chains=n_chains)
    assert rng.bit_generator.state == state


def one_nan(x):
    """An array of x's shape, zero but for one NaN entry."""
    out = np.zeros(np.shape(x))
    out.flat[-1] = np.nan
    return out


@pytest.mark.parametrize("bad", ["row", "scalar", "nan"])
@pytest.mark.parametrize("method", ["cdps", "dps", "score_sde", "ilvr", "cdps_step",
                                    "make_step_params", "dps_jvp"])
def test_score_and_jacobian_product_of_another_shape_are_refused(method, bad):
    # A score, or DPS's Jacobian product, of another shape than x used to be
    # broadcast over the chains: a (1, d) score ran as every row's score and
    # a scalar one as a constant (DPS gave the samples of a zero score).  Each
    # is now refused at its step, naming t and both shapes.  One of x's shape
    # with a NaN entry is refused at its step too: DPS, Score-SDE and ILVR
    # used to return all-NaN samples with no failed row.
    d, m, n = 4, 2, 3
    rng = np.random.default_rng(91)
    A = from_dense(rng.standard_normal((m, d)))
    y = rng.standard_normal(m)
    schedule = make_linear_schedule(5, 0.1, 1.25)
    T = schedule.num_steps
    prior = make_grid_gmm(d)
    score_fn, jvp_fn = score_fn_for(prior, schedule), denoiser_jvp_fn_for(prior, schedule)
    wrong = {"row": lambda x: np.zeros((1, d)), "scalar": lambda x: 0.0, "nan": one_nan}[bad]
    if method == "dps_jvp":
        jvp_fn = lambda x, t, u: wrong(x)  # noqa: E731
    else:
        score_fn = lambda x, t: wrong(x)  # noqa: E731
    name = "denoiser_jvp_fn" if method == "dps_jvp" else "score"
    shape = "(1, 4)" if bad == "row" else "()"
    match = (f"{name} at t={T} must be finite" if bad == "nan"
             else f"{name} at t={T} has shape {shape}, not x's (3, 4)")
    with pytest.raises(ValueError, match=re.escape(match)):
        if method == "cdps":
            cdps_sample(y, A, IsotropicNoise(0.01), schedule, score_fn, rng, n_chains=n)
        elif method in ("dps", "dps_jvp"):
            dps_sample(y, A, schedule, score_fn, jvp_fn, rng, n_chains=n)
        elif method in ("score_sde", "ilvr"):
            sample = score_sde_sample if method == "score_sde" else ilvr_sample
            sample(y, A, schedule, score_fn, rng, n_chains=n)
        elif method == "cdps_step":
            chain = generate_measurement_chain(y, schedule, rng, n_chains=n)
            cdps_step(rng.standard_normal((n, d)), chain, T, score_fn, A, IsotropicNoise(0.01),
                      rng)
        else:
            make_step_params(rng.standard_normal((n, d)), T, score_fn, A, IsotropicNoise(0.01),
                             schedule)


@pytest.mark.parametrize("case, match", [
    ("cdps_step-nan-x_t", "x_t must be finite"),
    ("cdps_step_nonlinear-nan-x_t", "x_t must be finite"),
    ("cdps_step-t-beyond-chain", r"t must be an integer in \[1, T\]"),
    ("cdps_step_nonlinear-t-beyond-chain", r"t must be an integer in \[1, T\]"),
    ("cdps_step-wide-x_t", r"x_t must have last axis 4, got shape \(8,\)"),
    ("cdps_step_nonlinear-wide-x_t", r"x_t must have last axis 4, got shape \(8,\)"),
    ("chain-length", "chain length must be T"),
    ("chain-2d-y0", "y0 must be a nonempty 1-D"),
    ("chain-empty-y0", "y0 must be a nonempty 1-D"),
    ("linearize-shape", "Jacobian probe produced a wrong shape"),
    ("prior_mode", "prior_mode must be one of"),
    ("cdps_step-nan-level", "the chain's level y_2 must be finite"),
    ("cdps_step_nonlinear-nan-score", "score at t=3 must be finite"),
    ("make_step_params-narrow-x_t", r"x_t must have last axis 4, got shape \(3,\)"),
    ("make_step_params-nan-x_t", "x_t must be finite"),
    ("posterior_mean-scalar-y_prev", r"y_prev must have last axis 2, got shape \(\)"),
    ("posterior_mean-short-y_prev", r"y_prev must have last axis 2, got shape \(1,\)"),
    ("posterior_mean-long-y_prev", r"y_prev must have last axis 2, got shape \(3,\)"),
    ("posterior_mean-nan-y_prev", "y_prev must be finite"),
    ("posterior_mean-narrow-x_t", r"x_t must have last axis 4, got shape \(3,\)"),
    ("posterior_mean-nan-x_t", "x_t must be finite"),
], ids=["cdps_step-nan-x_t", "cdps_step_nonlinear-nan-x_t", "cdps_step-t-beyond-chain",
        "cdps_step_nonlinear-t-beyond-chain", "cdps_step-wide-x_t", "cdps_step_nonlinear-wide-x_t",
        "chain-length", "chain-2d-y0", "chain-empty-y0", "linearize-shape", "prior_mode",
        "cdps_step-nan-level", "cdps_step_nonlinear-nan-score", "make_step_params-narrow-x_t",
        "make_step_params-nan-x_t", "posterior_mean-scalar-y_prev", "posterior_mean-short-y_prev",
        "posterior_mean-long-y_prev", "posterior_mean-nan-y_prev", "posterior_mean-narrow-x_t",
        "posterior_mean-nan-x_t"])
def test_sampler_input_refusals(case, match):
    # Each input check, on its own; a non-finite x_t, a t beyond the T of the
    # schedule the chain was drawn on, or an x_t wider than d (which used to
    # reach the score and draw 12 normals before a reshape failed) is refused
    # before the step draws anything, and so are a NaN level of the chain (on
    # the fused step, which used to refuse only its right-hand side, after
    # the draw) and a NaN score.  make_step_params used to take an x_t of
    # width 3 or with a NaN, and posterior_mean broadcast a y_prev of shape
    # () or (1,) over the m measurements and failed in numpy on one of (3,).
    d, m = 4, 2
    M = np.random.default_rng(88).standard_normal((m, d))
    schedule = make_linear_schedule(5, 0.1, 1.25)
    score_fn = score_fn_for(make_grid_gmm(d), schedule)
    chain = generate_measurement_chain(np.zeros(m), schedule, np.random.default_rng(89))
    x_t = np.full(d, np.nan)
    rng = np.random.default_rng(90)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=match):
        if case == "cdps_step-nan-x_t":
            cdps_step(x_t, chain, 3, score_fn, from_dense(M), IsotropicNoise(0.01), rng)
        elif case == "cdps_step_nonlinear-nan-x_t":
            cdps_step_nonlinear(x_t, chain, 3, score_fn, affine_map(M), IsotropicNoise(0.01), rng)
        elif case == "cdps_step-t-beyond-chain":
            cdps_step(np.zeros(d), chain, 6, score_fn, from_dense(M), IsotropicNoise(0.01), rng)
        elif case == "cdps_step_nonlinear-t-beyond-chain":
            cdps_step_nonlinear(np.zeros(d), chain, 6, score_fn, affine_map(M),
                                IsotropicNoise(0.01), rng)
        elif case == "cdps_step-wide-x_t":
            cdps_step(np.zeros(2 * d), chain, 3, score_fn, from_dense(M), IsotropicNoise(0.01), rng)
        elif case == "cdps_step_nonlinear-wide-x_t":
            cdps_step_nonlinear(np.zeros(2 * d), chain, 3, score_fn, affine_map(M),
                                IsotropicNoise(0.01), rng)
        elif case == "chain-length":
            MeasurementChain(np.zeros((schedule.num_steps, m)), schedule)
        elif case.startswith("chain-"):
            y0 = np.zeros((2, m)) if case == "chain-2d-y0" else np.zeros(0)
            generate_measurement_chain(y0, schedule, rng)
        elif case == "linearize-shape":
            linearize(NonlinearMap(m=m, d=d, apply=lambda x: x[..., :m],
                                   jvp=lambda x, u: u[..., :m + 1]), np.zeros(d))
        elif case == "prior_mode":
            SolverConfig(prior_mode="bogus")
        elif case == "cdps_step-nan-level":
            levels = chain.y_levels.copy()
            levels[2, -1] = np.nan
            cdps_step(np.zeros(d), MeasurementChain(levels, schedule), 3, score_fn, from_dense(M),
                      IsotropicNoise(0.01), rng)
        elif case == "cdps_step_nonlinear-nan-score":
            cdps_step_nonlinear(np.zeros(d), chain, 3, lambda x, t: one_nan(x), affine_map(M),
                                IsotropicNoise(0.01), rng)
        else:
            method, _, bad = case.partition("-")
            x = {"narrow-x_t": np.zeros(d - 1), "nan-x_t": x_t}.get(bad, np.zeros(d))
            args = (score_fn, from_dense(M), IsotropicNoise(0.1), schedule)
            if method == "make_step_params":
                make_step_params(x, 3, *args)
            else:
                y_prev = {"scalar-y_prev": 1.0, "short-y_prev": np.ones(1),
                          "long-y_prev": np.ones(m + 1), "nan-y_prev": np.full(m, np.nan)}
                posterior_mean(make_step_params(np.zeros(d), 3, *args), x,
                               y_prev.get(bad, np.zeros(m)))
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("path", ["fused", "factored", "rebuilt", "cg"])
def test_finiteness_is_checked_where_values_enter_not_per_step(path, monkeypatch):
    # A run checks y0 once and each score by one sum, which calls
    # check_finite only when that sum is not finite; a single step checks
    # its x_t and its level.  The factored and rebuilt steps used to check
    # every step's right-hand side too, one call per step.
    d, m, n = 6, 2, 3
    rng = np.random.default_rng(92)
    A = from_dense(rng.standard_normal((m, d)))
    y = rng.standard_normal(m)
    noise = IsotropicNoise(0.01)
    if path == "factored":
        monkeypatch.setattr(cdps.sampler, "FUSED_STEP_MAX_D", 0)
    elif path == "rebuilt":
        noise = DiagonalNoise(np.full(m, 0.01))
    elif path == "cg":
        A = dataclasses.replace(A, dense=None)
    schedule = make_linear_schedule(10, 0.1, 2.5)
    score_fn = score_fn_for(make_grid_gmm(d), schedule)
    chain = generate_measurement_chain(y, schedule, rng, n_chains=n)
    names = []

    def counted(a, name, *args, **kwargs):
        names.append(name)
        return check_finite(a, name, *args, **kwargs)

    monkeypatch.setattr(cdps.sampler, "check_finite", counted)
    x, trace = cdps_sample(y, A, noise, schedule, score_fn, rng, n_chains=n)
    assert np.all(np.isfinite(x)) and trace.failed_rows.size == 0
    assert names == ["y0"]
    cdps_step(x, chain, 3, score_fn, A, noise, rng)
    assert names == ["y0", "x_t", "the chain's level y_2"]


@pytest.mark.parametrize("path", ["dense", "cg"])
@pytest.mark.parametrize("noise", [DiagonalNoise(np.ones(3)), CirculantNoise(np.ones(3)),
                                   LowRankNoise(np.ones((3, 1)), 0.1), 0.01],
                         ids=["diagonal", "circulant", "low-rank", "not-a-model"])
def test_samplers_refuse_a_noise_model_of_another_size(noise, path):
    # With m = 2, a noise model of size 3 used to fail with numpy's
    # broadcast error at the first step, after the chain and x_T had
    # advanced the generator; an object that is no noise model failed there
    # too.  Each sampler now refuses both before any draw.
    d, m = 4, 2
    M = np.random.default_rng(95).standard_normal((m, d))
    A = from_dense(M) if path == "dense" else dataclasses.replace(from_dense(M), dense=None)
    schedule = make_linear_schedule(5, 0.1, 1.25)
    score_fn = score_fn_for(make_grid_gmm(d), schedule)
    chain = generate_measurement_chain(np.zeros(m), schedule, np.random.default_rng(96))
    error, match = ((TypeError, "unsupported noise model float") if isinstance(noise, float)
                    else (ValueError, "noise model has size 3, the measurement size m = 2"))
    calls = {
        "cdps_sample": lambda rng: cdps_sample(np.zeros(m), A, noise, schedule, score_fn, rng,
                                               n_chains=3),
        "cdps_step": lambda rng: cdps_step(np.zeros(d), chain, 3, score_fn, A, noise, rng),
    }
    if path == "dense":  # the nonlinear step's Jacobian is always dense
        calls["cdps_step_nonlinear"] = lambda rng: cdps_step_nonlinear(
            np.zeros(d), chain, 3, score_fn, affine_map(M), noise, rng)
    for name, call in calls.items():
        rng = np.random.default_rng(97)
        state = rng.bit_generator.state
        with pytest.raises(error, match=match):
            call(rng)
        assert rng.bit_generator.state == state, name


@pytest.mark.parametrize("path", ["fused", "factored", "diagonal", "cg"])
def test_single_step_is_the_runs_step(path, monkeypatch):
    # From a run's shared chain, x_T and generator state, cdps_step returns
    # that run's output on a one-step schedule bit for bit, and leaves the
    # generator where the run leaves it, on every path a run can take.
    if path == "factored":
        monkeypatch.setattr(cdps.sampler, "FUSED_STEP_MAX_D", 0)
    d, m, n = 6, 2, 5
    rng = np.random.default_rng(78)
    A = from_dense(rng.standard_normal((m, d)))
    if path == "cg":
        A = dataclasses.replace(A, dense=None)
    noise = DiagonalNoise(np.full(m, 0.01)) if path == "diagonal" else IsotropicNoise(0.01)
    y = rng.standard_normal(m)
    schedule = make_linear_schedule(1, 0.1, 20.0)
    score_fn = score_fn_for(make_grid_gmm(d), schedule)
    rng, clone = np.random.default_rng(79), np.random.default_rng(79)
    x_run, _ = cdps_sample(y, A, noise, schedule, score_fn, rng, n_chains=n, shared_chain=True)
    chain = generate_measurement_chain(y, schedule, clone)
    x_T = clone.standard_normal((n, d))
    x_step = cdps_step(x_T, chain, 1, score_fn, A, noise, clone)
    np.testing.assert_array_equal(x_step, x_run)
    assert clone.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("path", ["fused", "factored"])
def test_each_step_is_built_once(path, monkeypatch):
    # The spectral step calls mix_variance once for each step whose w_t (and,
    # fused, whose matrices) it builds: one call for a single step, and T for
    # a run, whatever the fused block size, which leaves the samples as they are.
    if path == "factored":
        monkeypatch.setattr(cdps.sampler, "FUSED_STEP_MAX_D", 0)
    d, m = 8, 4
    rng = np.random.default_rng(87)
    A = make_random_svd_operator(d, m, rng)
    y = rng.standard_normal(m)
    schedule = BENCH_SCHEDULE
    score_fn = score_fn_for(make_grid_gmm(d), schedule)
    chain = generate_measurement_chain(y, schedule, rng)
    calls = []

    def counted(*args):
        calls.append(args)
        return mix_variance(*args)

    monkeypatch.setattr(cdps.sampler, "mix_variance", counted)
    cdps_step(rng.standard_normal((100, d)), chain, 500, score_fn, A, IsotropicNoise(1e-4), rng)
    assert len(calls) == 1
    runs = []
    for block in (cdps.sampler.STEP_BLOCK, 1, 3):
        monkeypatch.setattr(cdps.sampler, "STEP_BLOCK", block)
        calls.clear()
        x, _ = cdps_sample(y, A, IsotropicNoise(1e-4), schedule, score_fn,
                           np.random.default_rng(88), n_chains=2)
        assert len(calls) == schedule.num_steps
        runs.append(x)
    for x in runs[1:]:
        assert np.array_equal(x, runs[0])


@pytest.mark.parametrize("path", ["fused", "factored", "diagonal", "cg"])
@pytest.mark.parametrize("rows", [(), (3,)], ids=["single", "three"])
def test_single_step_refuses_a_chain_of_other_rows(path, rows, monkeypatch):
    # A single step draws one eps1 and eps2 per row of x_t.  A chain of four
    # rows against one x_t used to fail mid-step on the fused path and, on
    # the rebuilt one, to give four rows sharing one draw; x_t must have the
    # chain's rows, or the chain none, and any other pair raises before a draw.
    if path == "factored":
        monkeypatch.setattr(cdps.sampler, "FUSED_STEP_MAX_D", 0)
    d, m = 6, 2
    rng = np.random.default_rng(89)
    A = from_dense(rng.standard_normal((m, d)))
    if path == "cg":
        A = dataclasses.replace(A, dense=None)
    noise = DiagonalNoise(np.full(m, 0.01)) if path == "diagonal" else IsotropicNoise(0.01)
    schedule = make_linear_schedule(5, 0.1, 1.25)
    score_fn = score_fn_for(make_grid_gmm(d), schedule)
    y = rng.standard_normal(m)
    chain = generate_measurement_chain(y, schedule, rng, n_chains=4)
    x_t = rng.standard_normal(rows + (d,))
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=re.escape(f"(4, 6, 2) do not match x_t {x_t.shape}")):
        cdps_step(x_t, chain, 3, score_fn, A, noise, rng)
    assert rng.bit_generator.state == state
    shared = generate_measurement_chain(y, schedule, rng)
    for x, c in ((rng.standard_normal((4, d)), chain), (x_t, shared)):
        assert cdps_step(x, c, 3, score_fn, A, noise, rng).shape == x.shape


@pytest.mark.parametrize("dense", [True, False])
def test_posterior_mean_broadcasts_one_x_t_against_per_row_levels(dense):
    # posterior_mean draws nothing, so one x_t against four levels is four
    # means, each that of its own level.
    d, m = 6, 2
    rng = np.random.default_rng(90)
    A = from_dense(rng.standard_normal((m, d)))
    if not dense:
        A = dataclasses.replace(A, dense=None)
    schedule = make_linear_schedule(5, 0.1, 1.25)
    x_t, y_prev = rng.standard_normal(d), rng.standard_normal((4, m))
    params = make_step_params(x_t, 3, lambda x, t: -x, A, IsotropicNoise(0.01), schedule)
    mu = posterior_mean(params, x_t, y_prev)
    assert mu.shape == (4, d)
    for row in range(4):
        np.testing.assert_allclose(mu[row], posterior_mean(params, x_t, y_prev[row]), rtol=1e-6)


def test_make_step_params_takes_only_an_integer_t():
    # t = 3.5 passed the range check and failed inside numpy with IndexError.
    d, m = 6, 2
    rng = np.random.default_rng(91)
    A = from_dense(rng.standard_normal((m, d)))
    schedule = make_linear_schedule(5, 0.1, 1.25)
    x_t = rng.standard_normal(d)
    args = (lambda x, t: -x, A, IsotropicNoise(0.01), schedule)
    for t in (3.5, 0, 6):
        with pytest.raises(ValueError, match=r"integer in \[1, T\]"):
            make_step_params(x_t, t, *args)
    assert make_step_params(x_t, np.int64(2), *args).t == 2


@pytest.mark.parametrize("bad", [True, 2.5, np.float64(2)], ids=["bool", "float", "np-float64"])
@pytest.mark.parametrize("site", ["step", "y_at", "alpha_bar", "score_fn", "jvp_fn"])
def test_every_level_site_takes_only_an_integer_t(site, bad):
    # A bool is an int to Python: cdps_step(t=True) reached the score, whose
    # level table it boolean-indexed, and y_at(True) returned every level with
    # an extra axis; y_at(2.5) and alpha_bar(s, 2.5) failed inside numpy with
    # IndexError.  One check in schedules refuses each with ValueError.
    d, m = 4, 2
    schedule = make_linear_schedule(5, 0.1, 1.25)
    prior = make_grid_gmm(d)
    chain = generate_measurement_chain(np.zeros(m), schedule, np.random.default_rng(92))
    A = from_dense(np.random.default_rng(93).standard_normal((m, d)))
    sites = {
        "step": lambda t: cdps_step(np.zeros(d), chain, t, score_fn_for(prior, schedule), A,
                                    IsotropicNoise(0.01), np.random.default_rng(94)),
        "y_at": chain.y_at,
        "alpha_bar": lambda t: alpha_bar(schedule, t),
        "score_fn": lambda t: score_fn_for(prior, schedule)(np.zeros(d), t),
        "jvp_fn": lambda t: denoiser_jvp_fn_for(prior, schedule)(np.zeros(d), t, np.ones(d)),
    }
    with pytest.raises(ValueError, match=r"t must be an integer in \[[01], T\] with T = 5"):
        sites[site](bad)
    sites[site](np.int64(2))


def test_normal_stream_equals_serial_draws(monkeypatch):
    # Iterated, the stream yields one flat view of seven normals per step,
    # from blocks of three steps (the last of one) cycled through recycled
    # buffers: the serial stream in order, and the generator ends where the
    # serial draws leave it.
    monkeypatch.setattr(cdps.sampler, "NORMAL_BLOCK_BYTES", 8 * 7 * 3)
    rng = np.random.default_rng(78)
    got = []
    with NormalStream(rng, 7, 10) as stream:
        for view in stream:
            assert view.shape == (7,)
            got.append(view.copy())  # a view is valid until the next one is asked for
    assert len(got) == 10
    expected = np.random.default_rng(78)
    np.testing.assert_array_equal(np.concatenate(got), expected.standard_normal(70))
    assert rng.bit_generator.state == expected.bit_generator.state


class _StandInGenerator:
    """A generator stand-in whose ``standard_normal`` raises (or stalls) from call ``fail_at``.

    ``calls`` counts the calls begun, ``drawn`` those that returned.
    """

    def __init__(self, seed, fail_at, stall_s=None):
        self._rng = np.random.default_rng(seed)
        self._fail_at = fail_at
        self._stall_s = stall_s
        self.stalled = threading.Event()
        self.calls = 0
        self.drawn = 0

    def standard_normal(self, size=None, out=None):
        self.calls += 1
        if self.calls >= self._fail_at:
            if self._stall_s is None:
                raise FloatingPointError(f"stand-in failure at call {self.calls}")
            self.stalled.set()
            time.sleep(self._stall_s)
        values = self._rng.standard_normal(size, out=out)
        self.drawn += 1
        return values


def test_normal_stream_views_stay_in_its_buffers(monkeypatch):
    # Every view the stream yields lies in one of the two buffers it
    # allocated before it was entered.  Once the caller is in block k, the
    # producer may fill block k + 1 and no further, into the buffer of the
    # block the caller has left; with it that far ahead, the view of the
    # caller's step still holds that step's serial draws.
    monkeypatch.setattr(cdps.sampler, "NORMAL_BLOCK_BYTES", 8 * 7 * 3)
    per_step, steps = 7, 20  # seven blocks: six of three steps and one of two
    counting = _StandInGenerator(91, fail_at=math.inf)
    stream = NormalStream(counting, per_step, steps)
    buffers = list(stream._buffers)
    assert len(buffers) == 2
    expected = np.random.default_rng(91).standard_normal((steps, per_step))
    with stream:
        for step, view in enumerate(stream):
            assert view.shape == (per_step,)
            assert sum(np.shares_memory(view, buf) for buf in buffers) == 1
            allowed = min(step // 3 + 2, 7)
            deadline = time.monotonic() + 30
            while counting.drawn < allowed:
                assert time.monotonic() < deadline
                time.sleep(1e-3)
            time.sleep(5e-3)  # time for a fill beyond the allowed ones to begin
            assert counting.calls == allowed
            np.testing.assert_array_equal(view, expected[step])
    assert step == steps - 1


@pytest.mark.parametrize("method", ["cdps", "dps"])
def test_producer_error_reaches_the_caller(method, monkeypatch):
    # Two steps per block: the shared chain and x_T are the stand-in's first
    # calls (x_T alone for DPS), the producer's first blocks the next ones,
    # and its third block raises.  The run must raise that error, within a
    # bounded wait and leaving no thread behind.
    d, m, n = 6, 2, 5
    monkeypatch.setattr(cdps.sampler, "NORMAL_BLOCK_BYTES", 8 * n * (d + m) * 2)
    rng = np.random.default_rng(79)
    A = from_dense(rng.standard_normal((m, d)))
    y = rng.standard_normal(m)
    schedule = make_linear_schedule(30, 0.1, 20.0)
    prior = make_grid_gmm(d)
    score_fn = score_fn_for(prior, schedule)
    fail_at = 5 if method == "cdps" else 4
    failing = _StandInGenerator(80, fail_at)
    caught = []

    def run():
        try:
            if method == "cdps":
                cdps_sample(y, A, IsotropicNoise(0.01), schedule, score_fn, failing,
                            n_chains=n, shared_chain=True)
            else:
                dps_sample(y, A, schedule, score_fn, denoiser_jvp_fn_for(prior, schedule),
                           failing, n_chains=n)
        except FloatingPointError as exc:
            caught.append(exc)

    threads = threading.active_count()
    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert threading.active_count() == threads
    assert [str(exc) for exc in caught] == [f"stand-in failure at call {fail_at}"]
    assert failing.calls == fail_at


def test_consumer_error_joins_a_busy_producer(monkeypatch):
    # Two steps per block.  The run raises at its first score call, once the
    # producer is inside its second block's draw (the stand-in's fourth call,
    # after the shared chain, x_T and the first block, which the loop takes
    # before the score); the sampler returns only after that draw ends and
    # the producer has stopped, its third block never drawn.
    d, m, n = 6, 2, 5
    monkeypatch.setattr(cdps.sampler, "NORMAL_BLOCK_BYTES", 8 * n * (d + m) * 2)
    rng = np.random.default_rng(79)
    A = from_dense(rng.standard_normal((m, d)))
    y = rng.standard_normal(m)
    schedule = make_linear_schedule(30, 0.1, 20.0)
    stalling = _StandInGenerator(80, 4, stall_s=0.3)

    def score_during_draw(x, t):
        assert stalling.stalled.wait(timeout=30)
        raise ArithmeticError("score failed")

    threads = threading.active_count()
    with pytest.raises(ArithmeticError, match="score failed"):
        cdps_sample(y, A, IsotropicNoise(0.01), schedule, score_during_draw, stalling,
                    n_chains=n, shared_chain=True)
    assert threading.active_count() == threads
    assert stalling.calls == 4


def _reference_fused_run(y, A, sigma2, schedule, score_fn, rng, n_chains, shared_chain,
                         prior_mode):
    """cdps_sample's x_0 on the fused spectral path, one step at a time.

    The forward chain is built chain-major, each chain's noise drawn straight
    into its levels 1..T; each step builds S_t, the score map and w_t A
    itself and draws eps1 (n, d) and eps2 (n, m) in two calls.  The oracle
    of the bitwise test below.
    """
    T, m = schedule.num_steps, y.size
    rows = None if shared_chain else n_chains
    levels = np.empty((T + 1, m) if rows is None else (rows, T + 1, m))
    for block in (levels,) if rows is None else levels:
        rng.standard_normal(out=block[1:])
    levels[..., 0, :] = y
    for t in range(1, T + 1):
        level = levels[..., t, :]
        level *= np.sqrt(schedule.betas)[t - 1]
        level += np.sqrt(schedule.alphas)[t - 1] * levels[..., t - 1, :]
    x = rng.standard_normal((A.d,) if n_chains is None else (n_chains, A.d))
    batch = x.shape[:-1]
    sc = cdps.sampler._step_scalars(schedule, prior_mode)
    mat = A.dense
    _, s, v = spectral_factor(mat)
    s2 = s * s
    gram, eye = mat.T @ mat, np.eye(A.d)
    null = eye - v @ v.T if v.shape[1] < A.d else None
    for t in range(T, 0, -1):
        s_hat = score_fn(x, t)
        i = t - 1
        w = mix_variance(sigma2, sc.abar_prev[i]) ** -0.5
        c, pull = sc.c[i], sc.pull[i]
        w2 = w * w
        solve = (v / (c + w2 * s2)) @ v.T
        if null is not None:
            solve += null / c
        drift = (pull * sc.tweedie[i]) * eye - (w2 * (1.0 - sc.abar_prev[i])) * gram
        eps1 = rng.standard_normal(batch + (A.d,))
        eps2 = rng.standard_normal(batch + (A.m,))
        eps2 += w * levels[..., i, :]
        rhs = eps2 @ (w * mat)
        rhs += s_hat @ drift
        rhs += (sc.keep[i] + pull) * x
        eps1 *= math.sqrt(c)
        rhs += eps1
        assert np.all(np.isfinite(rhs))
        x = rhs @ solve
    return x


def _fused_block_steps():
    return cdps.sampler.STEP_BLOCK


@pytest.mark.parametrize("shape", list(SPECTRAL_SHAPES))
@pytest.mark.parametrize("chains", ["rows", "shared", "single"])
@pytest.mark.parametrize("steps, prior_mode", [
    ("1", "score"), ("block-1", "score"), ("block", "score"), ("block+1", "score"),
    ("block+1", "identity"), ("block+1", "none"),
])
def test_fused_run_equals_per_step_reference(shape, chains, steps, prior_mode):
    # The fused step builds its matrices for a block of steps at once, draws
    # each step's normals in one call and reads a time-major chain; every
    # sample and trace must still equal the per-step run bit for bit, on
    # either side of a block boundary.
    d, m = SPECTRAL_SHAPES[shape]
    block = _fused_block_steps()
    T = {"1": 1, "block-1": block - 1, "block": block, "block+1": block + 1}[steps]
    rng = np.random.default_rng(74)
    A = from_dense(rng.standard_normal((m, d)))
    y = rng.standard_normal(m)
    schedule = make_linear_schedule(T, 0.1, 20.0)
    prior = make_grid_gmm(d)
    n_chains = None if chains == "single" else 5
    observe = steps != "block-1"

    def per_call_score(x, t):
        return score(dataclasses.replace(prior), x, alpha_bar(schedule, t))

    obs_ref = IterateTrace(per_call_score, y, A)
    score_fn = score_fn_for(prior, schedule)
    observer = IterateTrace(score_fn, y, A)
    x_ref = _reference_fused_run(
        y, A, 0.01, schedule, obs_ref if observe else per_call_score,
        np.random.default_rng(75), n_chains, chains == "shared", prior_mode)
    x, _ = cdps_sample(y, A, IsotropicNoise(0.01), schedule, observer if observe else score_fn,
                       np.random.default_rng(75), n_chains=n_chains,
                       shared_chain=chains == "shared",
                       config=SolverConfig(prior_mode=prior_mode))
    assert np.array_equal(x, x_ref)
    if observe:
        for got, ref in zip(observer.close(x), obs_ref.close(x_ref)):
            assert np.array_equal(got, ref, equal_nan=True)


@pytest.mark.parametrize("steps", ["1", "block-1", "block", "block+1", "recycled"])
def test_fused_run_across_normal_blocks(steps, monkeypatch):
    # The fused run takes each step's normals from the stream's blocks; on
    # either side of the first block's end, and over 14 blocks in recycled
    # buffers, samples and traces equal the serial per-step run bit for bit.
    d, m, n = 6, 2, 5
    if steps == "recycled":
        monkeypatch.setattr(cdps.sampler, "NORMAL_BLOCK_BYTES", 8 * n * (d + m) * 3)
        T = 40
    else:
        block = cdps.sampler.NORMAL_BLOCK_BYTES // (8 * n * (d + m))
        T = {"1": 1, "block-1": block - 1, "block": block, "block+1": block + 1}[steps]
    rng = np.random.default_rng(81)
    A = from_dense(rng.standard_normal((m, d)))
    y = rng.standard_normal(m)
    schedule = make_linear_schedule(T, 0.1, 20.0)
    prior = make_grid_gmm(d)

    def per_call_score(x, t):
        return score(prior, x, alpha_bar(schedule, t))

    obs_ref = IterateTrace(per_call_score, y, A)
    observer = IterateTrace(score_fn_for(prior, schedule), y, A)
    x_ref = _reference_fused_run(y, A, 0.01, schedule, obs_ref, np.random.default_rng(82), n,
                                 False, "score")
    x, _ = cdps_sample(y, A, IsotropicNoise(0.01), schedule, observer,
                       np.random.default_rng(82), n_chains=n)
    assert np.array_equal(x, x_ref)
    for got, ref in zip(observer.close(x), obs_ref.close(x_ref)):
        assert np.array_equal(got, ref, equal_nan=True)


def conjugate_output_law(schedule):
    """Exact output law of cdps_sample for prior N(0, 1), A = 1 and unit noise.

    Every step is affine-Gaussian here, so the law of x_0 given y_0 follows
    from a moment recursion, one coordinate at a time.  It carries the mean
    of (x_t, y_t), as multiples of y_0, and their 2x2 covariance backward
    from x_T ~ N(0, 1) and y_T ~ N(sqrt(abar_T) y_0, 1 - abar_T).  Each step
    first draws y_{t-1} | y_t, y_0, the Gaussian time reversal of the
    measurement chain, then applies the coupled step in "score" prior mode:
    precision P = c + 1/gamma with gamma = abar_{t-1} + 1 - abar_{t-1} = 1
    and c = (1-beta)/beta + 1/(1-abar_{t-1}) (the prior term only for
    t >= 2), right-hand side sqrt(1-beta)/beta x_t + (y_{t-1} - b)/gamma plus
    the prior pull (x_t + (1-abar_t) s) / (sqrt(1-beta) (1-abar_{t-1})),
    offset b = (1-abar_{t-1}) s, and a draw of variance 1/P.  The prior has
    unit variance at every noise level, so the frozen score is s = -x_t.

    Returns (r, v): E[x_0] = r y_0 and Var[x_0] = v per coordinate.
    """
    T = schedule.num_steps
    abars = schedule.alpha_bars
    mean = np.array([0.0, np.sqrt(abars[T])])
    cov = np.diag([1.0, 1.0 - abars[T]])
    for t in range(T, 0, -1):
        beta = schedule.betas[t - 1]
        abar, abar_prev = abars[t], abars[t - 1]
        gamma = abar_prev * 1.0 + (1.0 - abar_prev)  # unit noise variance
        # x_{t-1} = a x_t + g y_{t-1} + N(0, 1/P), with s = -x_t folded into a
        c = (1.0 - beta) / beta
        coef_x = np.sqrt(1.0 - beta) / beta + (1.0 - abar_prev) / gamma
        if t >= 2:
            c += 1.0 / (1.0 - abar_prev)
            coef_x += abar / (np.sqrt(1.0 - beta) * (1.0 - abar_prev))
        prec = c + 1.0 / gamma
        a, g = coef_x / prec, 1.0 / (gamma * prec)
        # y_{t-1} = p y_t + q y_0 + N(0, w)
        p = np.sqrt(1.0 - beta) * (1.0 - abar_prev) / (1.0 - abar)
        q = np.sqrt(abar_prev) * beta / (1.0 - abar)
        w = beta * (1.0 - abar_prev) / (1.0 - abar)
        M = np.array([[a, g * p], [0.0, p]])
        N = np.array([[g * g * w + 1.0 / prec, g * w], [g * w, w]])
        mean = M @ mean + np.array([g * q, q])
        cov = M @ cov @ M.T + N
    return mean[0], cov[0, 0]


def dense_step_kernel(t, schedule, score_fn, A, sigma2):
    """Dense "score"-mode coupled step: x_{t-1} ~ N(Fx x_t + Fy y_{t-1}, K).

    Written in matrix form from the step formulas (precision
    c I + A^T A / gamma, measurement offset b = (1-abar_{t-1}) A s and, for
    t >= 2, the prior precision and pull).  The frozen score's linear map is
    read off ``score_fn`` by probing with the identity, so s = -x_t is not
    assumed.  Returns (Fx, Fy, K).
    """
    d = A.d
    beta = schedule.betas[t - 1]
    abar, abar_prev = schedule.alpha_bars[t], schedule.alpha_bars[t - 1]
    gamma = abar_prev * sigma2 + (1.0 - abar_prev)
    assert np.allclose(score_fn(np.zeros(d), t), 0.0)  # zero-mean prior: s is linear
    S = np.asarray(score_fn(np.eye(d), t), dtype=float).T
    Ad = A.dense
    prec = (1.0 - beta) / beta * np.eye(d) + Ad.T @ Ad / gamma
    rhs_x = np.sqrt(1.0 - beta) / beta * np.eye(d) - (1.0 - abar_prev) * Ad.T @ Ad @ S / gamma
    if t >= 2:
        prec += np.eye(d) / (1.0 - abar_prev)
        rhs_x += (np.eye(d) + (1.0 - abar) * S) / (np.sqrt(1.0 - beta) * (1.0 - abar_prev))
    K = np.linalg.inv(prec)
    return K @ rhs_x, K @ Ad.T / gamma, K


def dense_two_step_law(schedule, score_fn, A, sigma2, y0):
    """Law of x_0 after two coupled steps, marginalized from the dense joint.

    Every variable of (x_2, y_2, y_1, x_1, x_0) is written as G y_0 + B e,
    with e the independent standard normal draws: x_2, the two noises of
    the forward measurement chain y_t = sqrt(1-beta_t) y_{t-1} +
    sqrt(beta_t) z_t, and the two step draws.  Returns the joint's x_0 block:
    its mean and covariance.
    """
    d, m = A.d, A.m
    blocks = [d, m, m, d, d]  # e = (x_2, z_1, z_2, step-2 draw, step-1 draw)
    cut = np.cumsum([0] + blocks)
    pick = [np.eye(cut[-1])[cut[k]:cut[k + 1]] for k in range(len(blocks))]
    roots = np.sqrt(schedule.betas)
    keeps = np.sqrt(1.0 - schedule.betas)

    x2 = (np.zeros((d, m)), pick[0])
    y1 = (keeps[0] * np.eye(m), roots[0] * pick[1])
    y2 = (keeps[1] * y1[0], keeps[1] * y1[1] + roots[1] * pick[2])
    Fx, Fy, K = dense_step_kernel(2, schedule, score_fn, A, sigma2)
    x1 = (Fx @ x2[0] + Fy @ y1[0],
          Fx @ x2[1] + Fy @ y1[1] + np.linalg.cholesky(K) @ pick[3])
    Fx, Fy, K = dense_step_kernel(1, schedule, score_fn, A, sigma2)
    x0 = (Fx @ x1[0] + Fy, Fx @ x1[1] + np.linalg.cholesky(K) @ pick[4])

    G = np.vstack([v[0] for v in (x2, y2, y1, x1, x0)])
    B = np.vstack([v[1] for v in (x2, y2, y1, x1, x0)])
    mean, cov = G @ y0, B @ B.T
    return mean[-d:], cov[-d:, -d:]


def test_cdps_sample_conjugate_posterior_moments():
    # Known approximation gap: the coupled Gaussianized step is biased away
    # from the exact conjugate posterior (see README); the idealized 5%
    # target asserted here is not met by the method.  The sampler's exact
    # output law is pinned by test_cdps_sample_matches_conjugate_recursion.
    d = 4
    prior = GaussianMixture(means=np.zeros((1, d)), weights=np.ones(1), variance=1.0)
    A = from_dense(np.eye(d))
    y = np.array([2.0, -1.0, 0.5, 3.0])
    schedule = BENCH_SCHEDULE
    score_fn = score_fn_for(prior, schedule)
    x0, _ = cdps_sample(y, A, IsotropicNoise(1.0), schedule, score_fn,
                        np.random.default_rng(14), n_chains=10_000,
                        config=SolverConfig(strict=False))
    target_mean = y / 2.0
    target_cov = np.eye(d) / 2.0
    assert np.linalg.norm(x0.mean(axis=0) - target_mean) <= 0.05 * np.linalg.norm(target_mean)
    assert np.linalg.norm(np.cov(x0.T) - target_cov) <= 0.05 * np.linalg.norm(target_cov)


def test_cdps_sample_matches_conjugate_recursion():
    # The sampler's output on the conjugate problem matches the exact moment
    # recursion of its step formulas; the recursion is checked first.
    d = 4
    prior = GaussianMixture(means=np.zeros((1, d)), weights=np.ones(1), variance=1.0)
    A = from_dense(np.eye(d))
    y = np.array([2.0, -1.0, 0.5, 3.0])

    # T = 1: the score prior is dropped, so the recursion must reproduce the
    # dense two-factor posterior with x_1 ~ N(0, I) marginalized out.
    one = make_linear_schedule(1, 0.1, 500.0)
    beta = one.betas[0]
    lam = (1.0 - beta) / beta * np.eye(d) + A.dense.T @ A.dense
    K = np.linalg.inv(lam)
    dense_mean = K @ A.dense.T @ y
    dense_cov = K + (np.sqrt(1.0 - beta) / beta) ** 2 * K @ K.T
    r1, v1 = conjugate_output_law(one)
    np.testing.assert_allclose(r1 * y, dense_mean, rtol=1e-12)
    np.testing.assert_allclose(v1 * np.eye(d), dense_cov, rtol=1e-12, atol=1e-15)

    # T = 2 exercises the prior pull, the Tweedie offset and the time
    # reversal of the measurement chain: marginalize the dense joint.
    two = make_linear_schedule(2, 0.2, 1.0)  # betas 0.1, 0.5
    two_score = score_fn_for(prior, two)
    dense_mean, dense_cov = dense_two_step_law(two, two_score, A, 1.0, y)
    r2, v2 = conjugate_output_law(two)
    np.testing.assert_allclose(r2 * y, dense_mean, rtol=1e-12)
    np.testing.assert_allclose(v2 * np.eye(d), dense_cov, rtol=1e-12, atol=1e-15)
    # The dense step kernel is the sampler's step.
    rng = np.random.default_rng(15)
    for t in (1, 2):
        x_t, y_prev = rng.standard_normal(d), rng.standard_normal(d)
        params = make_step_params(x_t, t, two_score, A, IsotropicNoise(1.0), two)
        mu = posterior_mean(params, x_t, y_prev)
        Fx, Fy, K = dense_step_kernel(t, two, two_score, A, 1.0)
        np.testing.assert_allclose(mu, Fx @ x_t + Fy @ y_prev, rtol=1e-8)
        np.testing.assert_allclose(params.precision.dense(), np.linalg.inv(K), rtol=1e-12)

    # The figures the README states, and their spread over schedules.
    r, v = conjugate_output_law(BENCH_SCHEDULE)
    assert r == pytest.approx(0.612, abs=1e-3)
    assert v == pytest.approx(0.669, abs=1e-3)
    for T, beta_max in [(100, 20.0), (500, 20.0), (1000, 20.0), (4000, 20.0),
                        (500, 500.0), (1000, 500.0), (4000, 500.0)]:
        rT, vT = conjugate_output_law(make_linear_schedule(T, 0.1, beta_max))
        assert 0.59 <= round(rT, 2) <= 0.63
        assert 0.66 <= round(vT, 2) <= 0.67

    schedule = BENCH_SCHEDULE
    score_fn = score_fn_for(prior, schedule)
    x0, _ = cdps_sample(y, A, IsotropicNoise(1.0), schedule, score_fn,
                        np.random.default_rng(14), n_chains=10_000,
                        config=SolverConfig(strict=False))
    target_mean = r * y
    target_cov = v * np.eye(d)
    assert np.linalg.norm(x0.mean(axis=0) - target_mean) <= 0.05 * np.linalg.norm(target_mean)
    assert np.linalg.norm(np.cov(x0.T) - target_cov) <= 0.05 * np.linalg.norm(target_cov)


FUSED_NOISES = {
    "isotropic": IsotropicNoise(1e-2),
    "diagonal": DiagonalNoise(np.array([1e-2, 5e-2, 2e-1])),
    "lowrank": LowRankNoise(np.array([[0.3], [-0.2], [0.1]]), 1e-2),
    "circulant": CirculantNoise(np.array([0.2, 1e-2, 1e-2])),
}


@pytest.mark.parametrize("kind, dense", [
    ("isotropic", True), ("diagonal", True), ("lowrank", True), ("circulant", True),
    ("isotropic", False),
], ids=["isotropic-dense", "diagonal-dense", "lowrank-dense", "circulant-dense", "isotropic-cg"])
def test_fused_step_equals_mean_plus_pw_cg_draw(kind, dense, monkeypatch):
    # One solve of P x = rhs + z, with the measurement term and B^T eps2 in
    # one product, gives the mean solve plus the PW-CG draw made from the
    # same generator state, on the exact path for every noise model and on
    # the CG path.  The mean is checked against the dense formulas first.
    rng = np.random.default_rng(50)
    d, m, t, n = 6, 3, 400, 5
    schedule = BENCH_SCHEDULE
    A = make_random_svd_operator(d, m, rng)
    mat = A.dense
    if not dense:
        A = dataclasses.replace(A, dense=None)
    noise = FUSED_NOISES[kind]
    score_fn = score_fn_for(make_grid_gmm(d), schedule)
    monkeypatch.setattr(cdps.sampler, "cg_solve", functools.partial(cg_solve, tol=1e-10))
    x_t = rng.standard_normal((n, d))
    levels = np.zeros((schedule.num_steps + 1, m))
    levels[t - 1] = rng.standard_normal(m)
    chain = MeasurementChain(y_levels=levels, schedule=schedule)

    fused = cdps_step(x_t, chain, t, score_fn, A, noise, np.random.default_rng(51))
    params = make_step_params(x_t, t, score_fn, A, noise, schedule)
    assert (params.preconditioner is None) == dense
    mu = posterior_mean(params, x_t, chain.y_at(t - 1))

    beta = schedule.betas[t - 1]
    abar, abar_prev = schedule.alpha_bars[t], schedule.alpha_bars[t - 1]
    sigma_inv = np.linalg.inv(mix_conditional_cov(noise, abar_prev).dense(m))
    s_hat = score_fn(x_t, t)
    b = (1.0 - abar_prev) * s_hat @ mat.T
    rhs = (np.sqrt(1.0 - beta) / beta * x_t + (chain.y_at(t - 1) - b) @ sigma_inv @ mat
           + (x_t + (1.0 - abar) * s_hat) / (np.sqrt(1.0 - beta) * (1.0 - abar_prev)))
    lam = ((1.0 - beta) / beta + 1.0 / (1.0 - abar_prev)) * np.eye(d) + mat.T @ sigma_inv @ mat
    expected_mu = np.linalg.solve(lam, rhs.T).T
    assert np.linalg.norm(mu - expected_mu) <= 1e-8 * np.linalg.norm(expected_mu)

    v, rep = pw_cg_draw(params.precision, np.random.default_rng(51), tol=1e-10,
                        preconditioner=params.preconditioner, n=n)
    assert rep.row_converged.all()
    expected = mu + v
    assert np.linalg.norm(fused - expected) <= 1e-7 * np.linalg.norm(expected)


def test_cdps_sample_blur_cg_path_matches_dense():
    # The same blur operator with its dense form stripped runs CG every step
    # and must reach the exact path's samples on the benchmark schedule.
    d = 8
    A = blur_operator([0.25, 0.5, 0.25], d)
    prior = make_grid_gmm(d)
    schedule = BENCH_SCHEDULE
    score_fn = score_fn_for(prior, schedule)
    rng = np.random.default_rng(60)
    y = A.apply(sample_mixture(prior, 1, rng)[0]) + 1e-2 * rng.standard_normal(d)
    kwargs = dict(n_chains=10, config=SolverConfig(strict=False))
    x_dense, tr_dense = cdps_sample(y, A, IsotropicNoise(1e-4), schedule, score_fn,
                                    np.random.default_rng(61), **kwargs)
    x_cg, tr_cg = cdps_sample(y, dataclasses.replace(A, dense=None), IsotropicNoise(1e-4),
                              schedule, score_fn, np.random.default_rng(61), **kwargs)
    assert np.all(tr_dense.cg_iters == 0)
    assert np.all(tr_cg.cg_iters[1:] > 0)
    assert tr_cg.failed_rows.size == 0
    assert np.linalg.norm(x_cg - x_dense) <= 1e-6 * np.linalg.norm(x_dense)


# ---------------------------------------------------------------------------
# Baselines


def test_dps_zeta_zero_is_pure_ancestral():
    rng = np.random.default_rng(15)
    d, m = 4, 2
    prior = make_grid_gmm(d)
    A = make_random_svd_operator(d, m, rng)
    y = rng.standard_normal(m)
    schedule = make_linear_schedule(30, 0.1, 50.0)
    score_fn = score_fn_for(prior, schedule)
    jvp_fn = denoiser_jvp_fn_for(prior, schedule)

    x_dps, _ = dps_sample(y, A, schedule, score_fn, jvp_fn,
                          np.random.default_rng(16), n_chains=3, zeta=0.0)

    g = np.random.default_rng(16)
    x = g.standard_normal((3, d))
    for t in range(30, 0, -1):
        s = score_fn(x, t)
        z = g.standard_normal((3, d))
        x, _ = _ancestral_step(x, t, s, schedule, z)
    np.testing.assert_array_equal(x_dps, x)


def test_dps_zero_residual_means_zero_guidance():
    # with a one-step schedule, choose y = A x0_hat(x_T): the guided run
    # must coincide with a guidance-free run on the same stream
    rng = np.random.default_rng(17)
    d, m = 3, 2
    prior = GaussianMixture(means=np.zeros((1, d)), weights=np.ones(1), variance=1.0)
    schedule = make_linear_schedule(1, 0.2, 0.2)
    score_fn = score_fn_for(prior, schedule)
    jvp_fn = denoiser_jvp_fn_for(prior, schedule)
    A = from_dense(rng.standard_normal((m, d)))

    clone = np.random.default_rng(18)
    x_T = clone.standard_normal((1, d))
    abar = schedule.alpha_bars[1]
    x0_hat = (x_T + (1 - abar) * score_fn(x_T, 1)) / np.sqrt(abar)
    y = A.apply(x0_hat[0])

    x_guided, _ = dps_sample(y, A, schedule, score_fn, jvp_fn,
                             np.random.default_rng(18), n_chains=1, zeta=1.0)
    x_free, _ = dps_sample(y, A, schedule, score_fn, jvp_fn,
                           np.random.default_rng(18), n_chains=1, zeta=0.0)
    np.testing.assert_array_equal(x_guided, x_free)


def _guided_reference(y, A, schedule, score_fn, jvp_fn, rng, n, zeta):
    """DPS from x_T down to x_0, one guided step at a time.

    Each step is ``_ancestral_step`` plus zeta / ||y - A x0_hat|| times the
    denoiser's Jacobian at x applied to A^T (y - A x0_hat), a zero or NaN
    norm giving no guidance; ``rng`` draws x_T, then each step's (n, d)
    normals.  Returns the state and each step's misfit norms.
    """
    x = rng.standard_normal((n, A.d))
    norms = {}
    for t in range(schedule.num_steps, 0, -1):
        x_unc, x0_hat = _ancestral_step(x, t, score_fn(x, t), schedule,
                                        rng.standard_normal(x.shape))
        resid = y - A.apply(x0_hat)
        norm = np.sqrt(np.einsum("...i,...i->...", resid, resid))
        jw = jvp_fn(x, t, A.adjoint(resid))
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = np.where(norm > 0, zeta / np.where(norm == 0, 1.0, norm), 0.0)
        x = x_unc + gain[..., None] * jw
        norms[t] = norm
    return x, norms


@pytest.mark.parametrize("operator", ["dense", "blur"])
def test_dps_guided_run_matches_reference_loop_bitwise(operator):
    # A zeta = 1 run must equal the guided step written out above, bit for
    # bit: DPS amplifies rounding (a few ulps of the score move its
    # benchmark SW by up to 48%), so a re-associated sum would show.  Chain
    # 2's misfit at the first step is exactly zero, so its gain there is 0.
    d, m, n, T = 8, 4, 5, 12
    rng = np.random.default_rng(26)
    prior = make_grid_gmm(d)
    A = (from_dense(rng.standard_normal((m, d))) if operator == "dense"
         else blur_operator([0.25, 0.5, 0.25], d))
    schedule = make_linear_schedule(T, 0.1, 5.0)
    score_fn = score_fn_for(prior, schedule)
    jvp_fn = denoiser_jvp_fn_for(prior, schedule)
    x_T = np.random.default_rng(27).standard_normal((n, d))
    abar = schedule.alpha_bars[T]
    y = A.apply((x_T + (1.0 - abar) * score_fn(x_T, T)) / np.sqrt(abar))[2]

    observer = IterateTrace(score_fn, y, A)
    x, _ = dps_sample(y, A, schedule, observer, jvp_fn, np.random.default_rng(27),
                      n_chains=n, zeta=1.0)
    x_ref, norms = _guided_reference(y, A, schedule, score_fn, jvp_fn,
                                     np.random.default_rng(27), n, 1.0)
    assert norms[T][2] == 0.0 and np.all(np.delete(norms[T], 2) > 0)
    np.testing.assert_array_equal(x, x_ref)
    np.testing.assert_array_equal(observer.close(x)[0][0], measurement_residual(x_ref, y, A))


def test_dps_shared_pass_leaves_output_unchanged():
    # The stock closures share one responsibilities pass per step; a JVP
    # built on a distinct mixture never does, and must give the same run.
    rng = np.random.default_rng(24)
    d, m = 8, 2
    prior = make_grid_gmm(d)
    A = make_random_svd_operator(d, m, rng)
    y = A.apply(sample_mixture(prior, 1, rng)[0]) + 1e-2 * rng.standard_normal(m)
    schedule = make_linear_schedule(200, 0.1, 50.0)
    score_fn = score_fn_for(prior, schedule)
    shared, _ = dps_sample(y, A, schedule, score_fn, denoiser_jvp_fn_for(prior, schedule),
                           np.random.default_rng(25), n_chains=50)
    apart, _ = dps_sample(y, A, schedule, score_fn,
                          denoiser_jvp_fn_for(dataclasses.replace(prior), schedule),
                          np.random.default_rng(25), n_chains=50)
    np.testing.assert_array_equal(shared, apart)


def test_dps_table_window_single_matrix():
    # one-matrix check against the published DPS value 4.7 +- 3 * 1.5
    d, m, sigma = 8, 1, 1e-2
    rng = np.random.default_rng(20)
    prior = make_grid_gmm(d)
    A = make_random_svd_operator(d, m, rng)
    x_star = sample_mixture(prior, 1, rng)[0]
    y = A.apply(x_star) + sigma * rng.standard_normal(m)
    post = exact_posterior(prior, A, y, sigma)
    ref = sample_mixture(post, 1000, np.random.default_rng(21))
    schedule = BENCH_SCHEDULE
    score_fn = score_fn_for(prior, schedule)
    jvp_fn = denoiser_jvp_fn_for(prior, schedule)
    x0, _ = dps_sample(y, A, schedule, score_fn, jvp_fn,
                       np.random.default_rng(22), n_chains=1000, zeta=1.0)
    sw = sliced_wasserstein(x0, ref, 10_000, np.random.default_rng(23))
    assert 4.7 - 3 * 1.5 <= sw <= 4.7 + 3 * 1.5


@pytest.mark.parametrize("kind", ["score_sde", "ilvr"])
def test_noisy_target_sample_one_step_exact(kind):
    # T = 1: one ancestral step, then a step of size scale against the misfit
    # gradient toward the noisy target sqrt(abar_1) y + sqrt(1 - abar_1) eps,
    # through A^T (score_sde) or the pseudo-inverse (ilvr).  The draws come
    # in the order x_T (n, d), z (n, d), eps (n, m).
    rng = np.random.default_rng(24)
    d, m, n, scale = 4, 2, 3, 0.7
    A = from_dense(rng.standard_normal((m, d)))
    y = rng.standard_normal(m)
    schedule = make_linear_schedule(1, 0.3, 0.3)
    score_fn = score_fn_for(make_grid_gmm(d), schedule)
    sample = score_sde_sample if kind == "score_sde" else ilvr_sample
    observer = IterateTrace(score_fn, y, A)
    x0, _ = sample(y, A, schedule, observer, np.random.default_rng(25), n_chains=n, scale=scale)
    residual_sq = observer.close(x0)[0]

    clone = np.random.default_rng(25)
    x_T = clone.standard_normal((n, d))
    z = clone.standard_normal((n, d))
    eps = clone.standard_normal((n, m))
    x_unc, _ = _ancestral_step(x_T, 1, score_fn(x_T, 1), schedule, z)
    abar = schedule.alpha_bars[1]
    resid = np.sqrt(abar) * y + np.sqrt(1.0 - abar) * eps - x_T @ A.dense.T
    back = A.dense.T if kind == "score_sde" else np.linalg.pinv(A.dense)
    expected = x_unc + scale * resid @ back.T
    np.testing.assert_allclose(x0, expected, rtol=1e-12, atol=1e-12)
    for t, x in ((1, x_T), (0, x0)):
        r = y - x @ A.dense.T
        np.testing.assert_allclose(residual_sq[t], np.sum(r * r, axis=-1), rtol=1e-12)


def test_ilvr_refuses_an_operator_without_dense_form():
    # The pseudo-inverse needs A.dense; without it ilvr_sample says so before
    # drawing anything, with a ValueError a benchmark task records as its own.
    d, m = 4, 2
    A = dataclasses.replace(make_random_svd_operator(d, m, np.random.default_rng(28)), dense=None)
    schedule = make_linear_schedule(5, 0.1, 1.25)
    rng = np.random.default_rng(29)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="dense form"):
        ilvr_sample(np.ones(m), A, schedule, score_fn_for(make_grid_gmm(d), schedule), rng,
                    n_chains=3)
    assert rng.bit_generator.state == state


def test_ilvr_guidance_orthonormal_rows_reduces_to_adjoint():
    # With orthonormal rows the pseudo-inverse is the transpose, so the ILVR
    # gradient -A^+ (y_t - A x) is the adjoint one.
    rng = np.random.default_rng(26)
    q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    A = from_dense(q.T)  # orthonormal rows
    x = rng.standard_normal(4)
    y_t = rng.standard_normal(2)
    g = -((y_t - A.apply(x)) @ _pinv(A.dense).T)
    np.testing.assert_allclose(g, -A.adjoint(y_t - A.apply(x)), rtol=1e-10, atol=1e-12)


def test_ilvr_guidance_matches_svd_pseudoinverse():
    rng = np.random.default_rng(27)
    A = from_dense(rng.standard_normal((2, 4)))
    x = rng.standard_normal(4)
    y_t = rng.standard_normal(2)
    g = -((y_t - A.apply(x)) @ _pinv(A.dense).T)
    expected = -np.linalg.pinv(A.dense) @ (y_t - A.apply(x))
    np.testing.assert_allclose(g, expected, rtol=1e-10)


@pytest.mark.parametrize("scale", [1e-11, 1.0, 1e11])
def test_ilvr_pseudoinverse_cutoff_is_relative_to_the_largest_singular_value(scale):
    # Singular values (1, 0.5, 1e-12) times scale: the cutoff, 1e-10 times the
    # largest, keeps the first two at every scale and drops the third.  An
    # absolute cutoff of 1e-10 dropped all three at scale 1e-11, so ILVR got
    # no guidance on such an operator, and kept the third at scale 1e11.
    rng = np.random.default_rng(28)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    mat = (u * np.array([1.0, 0.5, 1e-12])) @ v.T
    expected = (v[:, :2] / np.array([1.0, 0.5])) @ u[:, :2].T
    np.testing.assert_allclose(_pinv(scale * mat) * scale, expected, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# Locally linearized nonlinear steps


def affine_map(M):
    return NonlinearMap(
        m=M.shape[0], d=M.shape[1],
        apply=lambda x: x @ M.T,
        jvp=lambda x, u: u @ M.T,
        vjp=lambda x, v: v @ M,
    )


def square_map(d):
    return NonlinearMap(
        m=d, d=d,
        apply=lambda x: x * x,
        jvp=lambda x, u: 2.0 * x * u,
        vjp=lambda x, v: 2.0 * x * v,
    )


def test_nonlinear_affine_reduces_to_linear_step():
    rng = np.random.default_rng(28)
    d, m, t = 4, 2, 300
    schedule = BENCH_SCHEDULE
    M = rng.standard_normal((m, d))
    noise = IsotropicNoise(0.2)
    gmm = make_grid_gmm(d)
    score_fn = score_fn_for(gmm, schedule)
    levels = np.zeros((schedule.num_steps + 1, m))
    levels[t - 1] = rng.standard_normal(m)
    chain = MeasurementChain(y_levels=levels, schedule=schedule)
    x_t = rng.standard_normal(d)

    out_lin = cdps_step(x_t, chain, t, score_fn, from_dense(M), noise, np.random.default_rng(29))
    out_nl = cdps_step_nonlinear(x_t, chain, t, score_fn, affine_map(M), noise,
                                 np.random.default_rng(29))
    np.testing.assert_array_equal(out_lin, out_nl)


def test_nonlinear_jacobian_probe_and_adjoint():
    g = square_map(3)
    x = np.array([0.5, -1.0, 2.0])
    J = linearize(g, x)
    np.testing.assert_allclose(J.dense, np.diag(2.0 * x), rtol=1e-12)
    rng = np.random.default_rng(30)
    u, v = rng.standard_normal(3), rng.standard_normal(3)
    lhs = g.jvp(x, u) @ v
    rhs = u @ g.vjp(x, v)
    assert abs(lhs - rhs) / abs(lhs) < 1e-10


def test_linearize_jvp_route_matches_vjp_route():
    # Without a vjp the Jacobian J = M diag(2 x) is probed through jvp, one
    # column per unit vector, and transposed into the vjp route's (m, d) rows.
    M = np.random.default_rng(32).standard_normal((2, 3))
    g = NonlinearMap(m=2, d=3, apply=lambda x: (x * x) @ M.T,
                     jvp=lambda x, u: (2.0 * x * u) @ M.T, vjp=lambda x, v: 2.0 * x * (v @ M))
    x = np.array([0.5, -1.0, 2.0])
    J = linearize(dataclasses.replace(g, vjp=None), x).dense
    assert J.shape == (2, 3)
    np.testing.assert_allclose(J, linearize(g, x).dense, rtol=1e-14, atol=0)
    np.testing.assert_allclose(J, M * (2.0 * x), rtol=1e-14, atol=0)


def test_nonlinear_fd_fallback_close_to_exact():
    g_exact = square_map(3)
    g_fd = NonlinearMap(m=3, d=3, apply=g_exact.apply)
    x = np.array([0.5, -1.0, 2.0])
    J_fd = linearize(g_fd, x)
    np.testing.assert_allclose(J_fd.dense, np.diag(2.0 * x), rtol=1e-6, atol=1e-8)


def test_nonlinear_quadratic_matches_gauss_newton_oracle():
    rng = np.random.default_rng(31)
    d, t = 4, 500
    schedule = BENCH_SCHEDULE
    g = square_map(d)
    noise = IsotropicNoise(0.5)
    gmm = make_grid_gmm(d)
    score_fn = score_fn_for(gmm, schedule)
    cfg = SolverConfig(prior_mode="none")

    x_t = rng.standard_normal(d)
    y_prev = rng.standard_normal(d)
    s_hat = score_fn(x_t, t)
    beta = schedule.betas[t - 1]
    abar_prev = schedule.alpha_bars[t - 1]
    gamma = abar_prev * 0.5 + (1.0 - abar_prev)
    J = np.diag(2.0 * x_t)
    c_vec = g.apply(x_t) - J @ x_t + (1.0 - abar_prev) * J @ s_hat
    lam = (1.0 - beta) / beta * np.eye(d) + J.T @ J / gamma
    rhs = np.sqrt(1.0 - beta) / beta * x_t + J.T @ (y_prev - c_vec) / gamma
    expected_mu = np.linalg.solve(lam, rhs)

    # reproduce the step's mean: the linear step on the Jacobian, with the
    # linearization's offset taken off the observation
    A_lin = linearize(g, x_t)
    offset = g.apply(x_t) - A_lin.apply(x_t)
    params = make_step_params(x_t, t, score_fn, A_lin, noise, schedule, cfg)
    mu = posterior_mean(params, x_t, y_prev - offset)
    assert np.linalg.norm(mu - expected_mu) / np.linalg.norm(expected_mu) < 1e-8


def test_nonlinear_requires_single_chain():
    g = square_map(2)
    schedule = make_linear_schedule(5, 0.1, 0.2)
    levels = np.zeros((6, 2))
    chain = MeasurementChain(y_levels=levels, schedule=schedule)
    with pytest.raises(ValueError):
        cdps_step_nonlinear(np.zeros((3, 2)), chain, 2, lambda x, t: -x, g,
                            IsotropicNoise(1.0), np.random.default_rng(32))
