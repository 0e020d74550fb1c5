"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from cdps.bench import BenchConfig, derive_rng, run_config
from cdps.gmm import (
    GaussianMixture,
    exact_posterior,
    log_marginal_density,
    make_grid_gmm,
    mixture_log_density,
    sample_mixture,
    score,
    score_fn_for,
    denoiser_jvp_fn_for,
)
from cdps.linalg import PrecisionOperator, cg_solve, diag_preconditioner, pw_cg_draw
from cdps.metrics import IterateTrace, measurement_residual
from cdps.operators import (
    CirculantNoise,
    DiagonalNoise,
    IsotropicNoise,
    LowRankNoise,
    from_dense,
    make_random_svd_operator,
    make_whitener,
    mix_conditional_cov,
)
from cdps.sampler import (
    MeasurementChain,
    NonlinearMap,
    SolverConfig,
    cdps_sample,
    cdps_step,
    cdps_step_nonlinear,
    dps_sample,
    generate_measurement_chain,
)
from cdps.schedules import make_linear_schedule

BENCH_SCHEDULE = make_linear_schedule(1000, 0.1, 500.0)


def report(criterion, passed, detail, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:>2} [{status}] {detail} ({elapsed:.1f}s of {budget:g}s budget)",
          flush=True)


def test_criterion_1_whitener_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for m in (4, 16, 32):
        spectrum = np.abs(np.fft.fft(rng.standard_normal(m))) ** 2 + 0.5
        models = [
            IsotropicNoise(3.0),
            DiagonalNoise(rng.uniform(0.4, 2.5, m)),
            LowRankNoise(rng.standard_normal((m, 2)), 0.8),
            CirculantNoise(spectrum),
        ]
        for noise in models:
            for abar in (1.0, 0.5, 1e-3):
                cov = mix_conditional_cov(noise, abar)
                wh = make_whitener(cov)
                dense_inv = np.linalg.inv(cov.dense(m))
                gram = wh(wh(np.eye(m))).T
                err = np.linalg.norm(gram - dense_inv) / np.linalg.norm(dense_inv)
                worst = max(worst, err)
    elapsed = time.perf_counter() - start
    passed = worst < 1e-8 and elapsed < 5.0
    report(1, passed, f"whitener Gram vs dense inverse, max rel err {worst:.2e} < 1e-8",
           elapsed, 5)
    assert worst < 1e-8
    assert elapsed < 5.0


def test_criterion_2_cg_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 65))
        m = int(rng.integers(1, d + 1))
        A = from_dense(rng.standard_normal((m, d)))
        abar = float(rng.uniform(0.01, 1.0))
        wh = make_whitener(mix_conditional_cov(IsotropicNoise(float(rng.uniform(0.1, 2.0))), abar))
        op = PrecisionOperator(float(rng.uniform(0.2, 8.0)), A, wh)
        rhs = rng.standard_normal(d)
        x, rep = cg_solve(op, rhs, diag_preconditioner(op), tol=1e-8)
        assert rep.row_converged.all()
        expected = np.linalg.solve(op.dense(), rhs)
        worst = max(worst, np.linalg.norm(x - expected) / np.linalg.norm(expected))
    elapsed = time.perf_counter() - start
    passed = worst < 1e-7 and elapsed < 10.0
    report(2, passed, f"50 CG solves vs dense oracle, max rel err {worst:.2e} < 1e-7",
           elapsed, 10)
    assert worst < 1e-7
    assert elapsed < 10.0


def test_criterion_3_pw_cg_covariance():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    A = from_dense(rng.standard_normal((4, 8)))
    wh = make_whitener(mix_conditional_cov(IsotropicNoise(0.5), 0.4))
    op = PrecisionOperator(2.0, A, wh)
    V, rep = pw_cg_draw(op, np.random.default_rng(104),
                        preconditioner=diag_preconditioner(op), n=50_000)
    assert rep.row_converged.all()
    emp = V.T @ V / V.shape[0]
    target = np.linalg.inv(op.dense())
    err = np.linalg.norm(emp - target) / np.linalg.norm(target)
    elapsed = time.perf_counter() - start
    passed = err < 0.05 and elapsed < 30.0
    report(3, passed, f"PW-CG empirical covariance, Frobenius rel err {err:.3f} < 0.05",
           elapsed, 30)
    assert err < 0.05
    assert elapsed < 30.0


def test_criterion_4_score_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    h = 1e-5
    worst = 0.0
    for d in (2, 8):
        gmm = make_grid_gmm(d)
        for abar in (1.0, 0.5, 0.1):
            for _ in range(100):
                x = rng.uniform(-20.0, 20.0, d)
                s = score(gmm, x, abar)
                fd = np.zeros(d)
                for i in range(d):
                    e = np.zeros(d)
                    e[i] = h
                    fd[i] = (log_marginal_density(gmm, x + e, abar)
                             - log_marginal_density(gmm, x - e, abar)) / (2 * h)
                worst = max(worst, np.linalg.norm(fd - s) / np.linalg.norm(s))
    elapsed = time.perf_counter() - start
    passed = worst < 1e-5 and elapsed < 5.0
    report(4, passed, f"score vs central differences, max rel err {worst:.2e} < 1e-5",
           elapsed, 5)
    assert worst < 1e-5
    assert elapsed < 5.0


def test_criterion_5_exact_posterior_oracle():
    start = time.perf_counter()
    # (a) conjugate case, exact to 1e-10
    d = 6
    prior = GaussianMixture(means=np.zeros((1, d)), weights=np.ones(1), variances=np.ones(1))
    y = np.linspace(-2.0, 2.0, d)
    post = exact_posterior(prior, from_dense(np.eye(d)), y, 1.0)
    err_a = max(
        float(np.max(np.abs(post.means[0] - y / 2.0))),
        float(np.max(np.abs(post.cov - np.eye(d) / 2.0))),
        abs(float(post.weights[0]) - 1.0),
    )

    # (b) d=2, m=1 posterior vs grid quadrature, total variation < 1e-3
    rng = np.random.default_rng(106)
    prior2 = make_grid_gmm(2)
    A = make_random_svd_operator(2, 1, rng)
    sigma = 0.5
    x_star = sample_mixture(prior2, 1, rng)[0]
    y2 = A.apply(x_star) + sigma * rng.standard_normal(1)
    post2 = exact_posterior(prior2, A, y2, sigma)

    axis = np.linspace(-24.0, 24.0, 400)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    log_prior = mixture_log_density(prior2, pts)
    resid = y2[0] - pts @ A.dense[0]
    log_like = -0.5 * (resid / sigma) ** 2
    brute = np.exp(log_prior + log_like - (log_prior + log_like).max())
    brute /= brute.sum()
    exact = np.exp(mixture_log_density(post2, pts))
    exact /= exact.sum()
    tv = 0.5 * float(np.abs(brute - exact).sum())

    elapsed = time.perf_counter() - start
    passed = err_a < 1e-10 and tv < 1e-3 and elapsed < 30.0
    report(5, passed, f"conjugate err {err_a:.2e} < 1e-10; quadrature TV {tv:.2e} < 1e-3",
           elapsed, 30)
    assert err_a < 1e-10
    assert tv < 1e-3
    assert elapsed < 30.0


def test_criterion_6_measurement_chain_statistics():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    d, m, sigma = 8, 4, 0.5
    schedule = BENCH_SCHEDULE
    prior = make_grid_gmm(d)
    A = make_random_svd_operator(d, m, rng)
    x0 = sample_mixture(prior, 1, rng)[0]

    total = 10_000
    chunk = 2_000
    snapshots = {250: [], 500: [], 1000: []}
    for start_idx in range(0, total, chunk):
        g = derive_rng(107, "prop1", start_idx)
        y0 = A.apply(x0) + sigma * g.standard_normal((chunk, m))
        z = g.standard_normal((chunk, schedule.num_steps, m))
        y = y0
        for t in range(1, schedule.num_steps + 1):
            y = np.sqrt(schedule.alphas[t - 1]) * y + np.sqrt(schedule.betas[t - 1]) * z[:, t - 1]
            if t in snapshots:
                snapshots[t].append(y.copy())

    ok = True
    detail = []
    for t, parts in snapshots.items():
        ys = np.concatenate(parts, axis=0)
        abar = schedule.alpha_bars[t]
        mean_true = np.sqrt(abar) * A.apply(x0)
        var_true = abar * sigma ** 2 + (1.0 - abar)
        se_mean = ys.std(axis=0, ddof=1) / np.sqrt(total)
        mean_ok = np.all(np.abs(ys.mean(axis=0) - mean_true) <= 3 * se_mean)
        se_var = var_true * np.sqrt(2.0 / (total - 1))
        var_ok = np.all(np.abs(ys.var(axis=0, ddof=1) - var_true) <= 3 * se_var)
        ok = ok and mean_ok and var_ok
        detail.append(f"t={t} mean {'ok' if mean_ok else 'BAD'} var {'ok' if var_ok else 'BAD'}")
    elapsed = time.perf_counter() - start
    passed = ok and elapsed < 60.0
    report(6, passed, "chain mean/variance within 3 SE: " + ", ".join(detail), elapsed, 60)
    assert ok
    assert elapsed < 60.0


@pytest.mark.slow
def test_criterion_7_benchmark_table_reproduction():
    start = time.perf_counter()
    # published targets at d=8, sigma=1e-2, windows widened to +-2 CI
    paper = {1: (1.9, 0.5), 2: (0.8, 0.4), 4: (0.4, 0.2)}

    cdps_cfg = BenchConfig(
        dims=(8,), measurements=(1, 2, 4), sigmas=(1e-2,), matrices_per_config=20,
        samples_per_run=1000, sw_slices=10_000, methods=("cdps",), master_seed=0,
    )
    dps_cfg = BenchConfig(
        dims=(8,), measurements=(1,), sigmas=(1e-2,), matrices_per_config=20,
        samples_per_run=1000, sw_slices=10_000, methods=("dps",), master_seed=0,
    )

    means = {}
    for m in (1, 2, 4):
        sws = []
        for k in range(cdps_cfg.matrices_per_config):
            rows, _ = run_config(cdps_cfg, 8, m, 1e-2, k)
            sws.append(rows[0]["sw"])
        means[("cdps", m)] = float(np.mean(sws))
    sws = []
    for k in range(dps_cfg.matrices_per_config):
        rows, _ = run_config(dps_cfg, 8, 1, 1e-2, k)
        sws.append(rows[0]["sw"])
    means[("dps", 1)] = float(np.mean(sws))

    window_ok = {}
    for m, (mu, ci) in paper.items():
        lo, hi = mu - 2 * ci, mu + 2 * ci
        window_ok[m] = lo <= means[("cdps", m)] <= hi
    ordering_ok = means[("dps", 1)] > means[("cdps", 1)]

    elapsed = time.perf_counter() - start
    passed = all(window_ok.values()) and ordering_ok and elapsed < 7200.0
    detail = (
        f"C-DPS mean SW m=1 {means[('cdps',1)]:.2f} (window [0.9,2.9]), "
        f"m=2 {means[('cdps',2)]:.2f} ([0.0,1.6]), "
        f"m=4 {means[('cdps',4)]:.2f} ([0.0,0.8]); "
        f"DPS m=1 {means[('dps',1)]:.2f} > C-DPS: {ordering_ok}"
    )
    report(7, passed, detail, elapsed, 7200)
    assert elapsed < 7200.0, detail
    for m, (mu, ci) in paper.items():
        assert mu - 2 * ci <= means[("cdps", m)] <= mu + 2 * ci, (
            f"C-DPS mean SW at m={m} is {means[('cdps', m)]:.2f}, outside "
            f"[{mu - 2 * ci:.1f}, {mu + 2 * ci:.1f}]; {detail}"
        )
    assert ordering_ok, detail


def test_criterion_8_measurement_fidelity_trajectory():
    start = time.perf_counter()
    d, m, sigma = 8, 4, 1e-6
    rng = np.random.default_rng(108)
    prior = make_grid_gmm(d)
    A = make_random_svd_operator(d, m, rng)
    x_star = sample_mixture(prior, 1, rng)[0]
    y = A.apply(x_star)  # noiseless observation
    schedule = BENCH_SCHEDULE
    score_fn = score_fn_for(prior, schedule)
    jvp_fn = denoiser_jvp_fn_for(prior, schedule)

    observer = IterateTrace(score_fn, y, A)
    x0, _ = cdps_sample(y, A, IsotropicNoise(sigma ** 2), schedule, observer,
                        np.random.default_rng(109), n_chains=100,
                        config=SolverConfig(strict=False))
    residual_sq = observer.close(x0)[0]
    cdps_start = float(residual_sq[-1].mean())
    cdps_end = float(residual_sq[0].mean())

    observer = IterateTrace(score_fn, y, A)
    x0, _ = dps_sample(y, A, schedule, observer, jvp_fn, np.random.default_rng(110),
                       n_chains=100)
    dps_end = float(observer.close(x0)[0][0].mean())

    elapsed = time.perf_counter() - start
    ratio_ok = cdps_end < 0.01 * cdps_start
    order_ok = cdps_end < dps_end
    passed = ratio_ok and order_ok and elapsed < 900.0
    report(8, passed,
           f"C-DPS residual {cdps_start:.3g} -> {cdps_end:.3g} "
           f"(<1%: {ratio_ok}); DPS end {dps_end:.3g} (C-DPS lower: {order_ok})",
           elapsed, 900)
    assert ratio_ok
    assert order_ok
    assert elapsed < 900.0


def test_criterion_9_nonlinear_affine_reduction():
    start = time.perf_counter()
    rng = np.random.default_rng(111)
    schedule = BENCH_SCHEDULE
    matches = 0
    for trial in range(100):
        d = int(rng.integers(2, 7))
        m = int(rng.integers(1, d + 1))
        t = int(rng.integers(1, schedule.num_steps + 1))
        M = rng.standard_normal((m, d))
        noise = IsotropicNoise(float(rng.uniform(0.05, 2.0)))
        score_fn = lambda x, tt: -x  # standard-normal-prior score, any valid one works
        levels = np.zeros((schedule.num_steps + 1, m))
        levels[t - 1] = rng.standard_normal(m)
        chain = MeasurementChain(y_levels=levels, schedule=schedule)
        x_t = rng.standard_normal(d)
        g = NonlinearMap(m=m, d=d, apply=lambda x, _M=M: x @ _M.T,
                         jvp=lambda x, u, _M=M: u @ _M.T,
                         vjp=lambda x, v, _M=M: v @ _M)
        seed = int(rng.integers(0, 2**31))
        out_lin = cdps_step(x_t, chain, t, score_fn, from_dense(M), noise,
                            np.random.default_rng(seed))
        out_nl = cdps_step_nonlinear(x_t, chain, t, score_fn, g, noise,
                                     np.random.default_rng(seed))
        if np.array_equal(out_lin, out_nl):
            matches += 1
    elapsed = time.perf_counter() - start
    passed = matches == 100 and elapsed < 5.0
    report(9, passed, f"affine linearized step bit-identical in {matches}/100 trials",
           elapsed, 5)
    assert matches == 100
    assert elapsed < 5.0


def test_criterion_10_out_of_scope_statement():
    detail = (
        "image-domain results (FID/LPIPS/SSIM/PSNR tables, pretrained-score "
        "cosine curves, medical-imaging supplement, score-network timings) "
        "need pretrained networks and datasets; replaced by criteria 1-9"
    )
    report(10, True, detail, 0.0, 1)
    assert True
