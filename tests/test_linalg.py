import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdps.linalg
from cdps.linalg import (
    PrecisionOperator,
    cg_solve,
    diag_preconditioner,
    pw_cg_draw,
    spectral_factor,
    spectral_solve,
)
from cdps.operators import (
    CirculantNoise,
    DiagonalNoise,
    IsotropicNoise,
    LowRankNoise,
    from_dense,
    make_whitener,
    mix_conditional_cov,
    zero_operator,
)


def make_precision(rng, d, m, c=None, abar=0.3, sigma2=0.5):
    A = from_dense(rng.standard_normal((m, d)))
    wh = make_whitener(mix_conditional_cov(IsotropicNoise(sigma2), abar))
    c = float(rng.uniform(0.5, 5.0)) if c is None else c
    return PrecisionOperator(c, A, wh)


def measurement_free(c, d):
    """The measurement-free precision c * I, built over the zero operator."""
    return PrecisionOperator(c, zero_operator(1, d), make_whitener(IsotropicNoise(1.0)))


def test_scalar_system():
    op = measurement_free(2.0, 2)
    x, rep = cg_solve(op, np.array([4.0, 6.0]))
    np.testing.assert_allclose(x, [2.0, 3.0], rtol=1e-12)
    assert rep.row_converged.all()


def test_zero_rhs_returns_zero_in_zero_iterations():
    op = measurement_free(3.0, 4)
    x, rep = cg_solve(op, np.zeros(4))
    assert rep.iterations == 0 and rep.row_converged.all()
    np.testing.assert_array_equal(x, np.zeros(4))


def test_cg_matches_dense_solve():
    rng = np.random.default_rng(0)
    op = make_precision(rng, d=16, m=5)
    rhs = rng.standard_normal(16)
    x, rep = cg_solve(op, rhs, diag_preconditioner(op), tol=1e-10)
    expected = np.linalg.solve(op.dense(), rhs)
    assert rep.row_converged.all()
    assert np.linalg.norm(x - expected) / np.linalg.norm(expected) < 1e-8


def test_batched_cg_matches_rowwise():
    rng = np.random.default_rng(1)
    op = make_precision(rng, d=12, m=3)
    R = rng.standard_normal((6, 12))
    X, rep = cg_solve(op, R, diag_preconditioner(op))
    dense = np.linalg.solve(op.dense(), R.T).T
    np.testing.assert_allclose(X, dense, rtol=1e-6, atol=1e-9)
    assert rep.row_converged.shape == (6,) and rep.row_converged.all()


def test_symmetry_and_positive_definiteness():
    rng = np.random.default_rng(2)
    op = make_precision(rng, d=10, m=4)
    u, v = rng.standard_normal(10), rng.standard_normal(10)
    lhs = op.matvec(u) @ v
    rhs = u @ op.matvec(v)
    assert abs(lhs - rhs) / abs(lhs) < 1e-10
    assert u @ op.matvec(u) >= op.c * (u @ u) * (1.0 - 1e-12)


def test_diag_preconditioner_values():
    rng = np.random.default_rng(3)
    # A = 0 -> all entries c
    op0 = measurement_free(2.5, 5)
    np.testing.assert_allclose(diag_preconditioner(op0), np.full(5, 2.5))
    # B = W A = I -> entries c + 1
    wh = make_whitener(mix_conditional_cov(IsotropicNoise(1.0), 0.5))  # sigma2 = 1
    opI = PrecisionOperator(1.5, from_dense(np.eye(4)), wh)
    np.testing.assert_allclose(diag_preconditioner(opI), np.full(4, 2.5))
    # random dense instance matches the dense diagonal
    op = make_precision(rng, d=8, m=3)
    np.testing.assert_allclose(
        diag_preconditioner(op), np.diag(op.dense()), rtol=1e-12
    )


def test_diag_preconditioner_above_probe_limit_leaves_cg_unpreconditioned(monkeypatch):
    # Above the probe limit no diagonal is probed; CG then runs with the
    # identity preconditioner and reaches the preconditioned solve.
    rng = np.random.default_rng(12)
    op = make_precision(rng, d=6, m=3)
    rhs = rng.standard_normal((4, 6))
    x_pre, rep_pre = cg_solve(op, rhs, diag_preconditioner(op), tol=1e-12)
    monkeypatch.setattr(cdps.linalg, "PRECOND_PROBE_LIMIT", 5)
    assert diag_preconditioner(op) is None
    x, rep = cg_solve(op, rhs, diag_preconditioner(op), tol=1e-12)
    assert rep_pre.row_converged.all() and rep.row_converged.all()
    np.testing.assert_allclose(x, x_pre, rtol=1e-10)


def test_pw_cg_draw_measurement_free_closed_form():
    op = measurement_free(4.0, 6)
    v, rep = pw_cg_draw(op, np.random.default_rng(4))
    eps1 = np.random.default_rng(4).standard_normal(6)  # eps2 is drawn after it, then annihilated
    np.testing.assert_allclose(v, eps1 / 2.0, rtol=1e-12)
    assert rep.row_converged.all()


def test_pw_cg_draw_deterministic():
    rng = np.random.default_rng(5)
    op = make_precision(rng, d=8, m=4)
    v1, _ = pw_cg_draw(op, np.random.default_rng(6), preconditioner=diag_preconditioner(op))
    v2, _ = pw_cg_draw(op, np.random.default_rng(6), preconditioner=diag_preconditioner(op))
    np.testing.assert_array_equal(v1, v2)


def test_synthetic_rhs_covariance_matches_precision():
    # cov(z) with z = sqrt(c) eps1 + (WA)^T eps2 equals the precision operator
    rng = np.random.default_rng(7)
    op = make_precision(rng, d=8, m=4, c=2.0)
    draws = 50_000
    g = np.random.default_rng(8)
    eps1 = g.standard_normal((draws, 8))
    eps2 = g.standard_normal((draws, 4))
    z = np.sqrt(op.c) * eps1 + op.bt(eps2)
    emp = z.T @ z / draws
    dense = op.dense()
    assert np.linalg.norm(emp - dense) / np.linalg.norm(dense) < 0.05


def test_pw_cg_draw_covariance():
    rng = np.random.default_rng(9)
    op = make_precision(rng, d=8, m=4, c=2.0)
    V, rep = pw_cg_draw(op, np.random.default_rng(10),
                        preconditioner=diag_preconditioner(op), n=50_000)
    assert rep.row_converged.all()
    emp = V.T @ V / V.shape[0]
    target = np.linalg.inv(op.dense())
    assert np.linalg.norm(emp - target) / np.linalg.norm(target) < 0.05


def test_cg_error_monotone_in_operator_norm():
    rng = np.random.default_rng(11)
    op = make_precision(rng, d=12, m=4)
    rhs = rng.standard_normal(12)
    dense = op.dense()
    exact = np.linalg.solve(dense, rhs)
    iterates = []
    cg_solve(op, rhs, diag_preconditioner(op), tol=1e-12,
             callback=lambda x: iterates.append(x))
    errs = [float((x - exact) @ dense @ (x - exact)) for x in iterates]
    for a, b in zip(errs, errs[1:]):
        assert b <= a * (1.0 + 1e-10)


def test_cg_iteration_bound():
    rng = np.random.default_rng(12)
    for d in (8, 16, 32):
        op = make_precision(rng, d=d, m=4)
        rhs = rng.standard_normal(d)
        _, rep = cg_solve(op, rhs, diag_preconditioner(op))
        assert rep.row_converged.all()
        assert rep.iterations <= d + 2


@pytest.mark.parametrize("batched", [True, False], ids=["batch", "single"])
def test_cg_non_convergence_returns_best_iterate(batched):
    # CG's residual norm is not monotone: on eigenvalues spread over three
    # decades, four iterations leave these rows at their smallest relative
    # residual at the zero start, a middle iterate or the last one.  Each
    # unconverged row must come back as its own best iterate, bit for bit.
    rng = np.random.default_rng(1)
    d = 12
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    A = from_dense(np.sqrt(np.logspace(0, 3, d))[:, None] * q.T)
    op = PrecisionOperator(1.0, A, make_whitener(IsotropicNoise(1.0)))
    rhs = rng.standard_normal((6, d))
    if not batched:
        rhs = rhs[2]  # its best is the second of four iterates
    iterates = [np.zeros_like(rhs)]
    x, rep = cg_solve(op, rhs, tol=1e-14, max_iter=4, callback=iterates.append)
    assert rep.iterations == 4 and not np.any(rep.row_converged)
    rel = [np.linalg.norm(op.matvec(it) - rhs, axis=-1) / np.linalg.norm(rhs, axis=-1)
           for it in iterates]
    best = np.atleast_1d(np.argmin(rel, axis=0))
    assert np.any((best > 0) & (best < 4))  # neither the start nor the last iterate
    rows = np.atleast_2d(x)
    for row, k in enumerate(best):
        np.testing.assert_array_equal(rows[row], np.atleast_2d(iterates[k])[row])


def test_cg_rejects_bad_inputs():
    op = measurement_free(1.0, 3)
    with pytest.raises(ValueError):
        cg_solve(op, np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ValueError):
        cg_solve(op, np.ones(3), tol=-1.0)
    with pytest.raises(ValueError):
        PrecisionOperator(-1.0, op.op, op.whitener)


@pytest.mark.parametrize("kwargs", [
    {"tol": float("nan")}, {"tol": float("inf")}, {"tol": 0.0}, {"tol": -1e-8},
    {"max_iter": 0}, {"max_iter": -1},
], ids=["tol-nan", "tol-inf", "tol-zero", "tol-negative", "max_iter-zero", "max_iter-negative"])
def test_cg_rejects_bad_settings(kwargs):
    # A NaN tolerance would fail every row silently (nan <= tol is false) and
    # an infinite one would return zeros flagged as converged, so cg_solve
    # refuses both, and every other unusable setting, before it iterates.
    op = measurement_free(1.0, 3)
    with pytest.raises(ValueError, match="tol must be positive and finite|max_iter"):
        cg_solve(op, np.ones(3), **kwargs)
    cg_solve(op, np.ones(3), tol=1e-300, max_iter=1)


@pytest.mark.parametrize("kwargs", [
    {"tol": float("inf")}, {"tol": 0.0}, {"tol": float("nan")}, {"max_iter": 0},
], ids=["tol-inf", "tol-zero", "tol-nan", "max_iter-zero"])
def test_pw_cg_draw_refuses_bad_settings_before_drawing(kwargs):
    op = make_precision(np.random.default_rng(0), 4, 2)
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="tol must be positive and finite|max_iter"):
        pw_cg_draw(op, rng, n=3, **kwargs)
    assert rng.bit_generator.state == before


def test_cg_solve_refuses_rhs_of_wrong_length():
    with pytest.raises(ValueError, match="rhs last axis must be 3"):
        cg_solve(measurement_free(1.0, 3), np.ones((2, 4)))


def make_noise(kind, rng, m):
    """A noise model of the given kind whose covariance eigenvalues are >= 0.1."""
    if kind == "isotropic":
        return IsotropicNoise(float(rng.uniform(0.1, 2.0)))
    if kind == "diagonal":
        return DiagonalNoise(rng.uniform(0.1, 2.0, m))
    if kind == "lowrank":
        return LowRankNoise(rng.standard_normal((m, min(2, m))), float(rng.uniform(0.1, 2.0)))
    return CirculantNoise(np.abs(np.fft.fft(rng.standard_normal(m))) ** 2 + 0.1)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["isotropic", "diagonal", "lowrank", "circulant"]),
    shape=st.sampled_from(["m<d", "m=d", "m>d"]),
    d=st.integers(2, 12),
    abar=st.floats(0.0, 1.0, exclude_min=True),
    log_c=st.floats(-2.0, 4.0),
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_solve_of_whitened_operator_matches_dense_solve(kind, shape, d, abar, log_c, n,
                                                                  seed):
    # The exact step solve, from the thin SVD of B = W A (with its null-space
    # part when m < d), against LU on the probed dense precision; the norm of
    # B is at most ~sqrt(500), so the condition number stays below ~5e4 and
    # 1e-9 has ample margin.  Isotropic noise also goes through the spectral
    # solve from A's thin SVD.
    rng = np.random.default_rng(seed)
    m = {"m<d": int(rng.integers(1, d)), "m=d": d, "m>d": d + int(rng.integers(1, 4))}[shape]
    cov = mix_conditional_cov(make_noise(kind, rng, m), abar)
    op = PrecisionOperator(10.0 ** log_c, from_dense(rng.standard_normal((m, d))),
                           make_whitener(cov))
    rhs = rng.standard_normal((n, d))
    expected = np.linalg.solve(op.dense(), rhs.T).T
    pairs = [(rhs, expected), (rhs[0], expected[0])]
    factor = spectral_factor(op.whitener(op.op.dense.T).T)
    solves = [(spectral_solve(factor, op.c, 1.0, r), e) for r, e in pairs]
    if kind == "isotropic":
        factor = spectral_factor(op.op.dense)
        solves += [(spectral_solve(factor, op.c, 1.0 / cov.sigma2, r), e) for r, e in pairs]
    for got, want in solves:
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("m, d", [(4, 8), (32, 32), (7, 4)])
def test_spectral_solve_on_a_block_equals_each_step_call(m, d):
    # The fused step builds a block of inverses in one call, with c and w2 as
    # (block, 1, 1) columns and rhs = I; each slice is that step's own call.
    rng = np.random.default_rng(15)
    factor = spectral_factor(rng.standard_normal((m, d)))
    c, w2 = 10.0 ** rng.uniform(-1.0, 3.0, 5), 10.0 ** rng.uniform(-2.0, 2.0, 5)
    eye = np.eye(d)
    block = spectral_solve(factor, c[:, None, None], w2[:, None, None], eye)
    assert block.shape == (5, d, d)
    for j in range(5):
        np.testing.assert_array_equal(block[j], spectral_solve(factor, c[j], w2[j], eye))


def test_cg_solve_matches_spectral_solve_without_dense_form():
    # The step's two solves agree: preconditioned CG on the operator without
    # its dense form, and the exact solve from the thin SVD of B = W A.
    rng = np.random.default_rng(14)
    op = make_precision(rng, d=10, m=4)
    free = dataclasses.replace(op, op=dataclasses.replace(op.op, dense=None))
    rhs = rng.standard_normal((3, 10))
    x_cg, rep = cg_solve(free, rhs, diag_preconditioner(free), tol=1e-12)
    x_direct = spectral_solve(spectral_factor(op.whitener(op.op.dense.T).T), op.c, 1.0, rhs)
    assert rep.iterations > 0 and rep.row_converged.all()
    np.testing.assert_allclose(x_cg, x_direct, rtol=1e-9, atol=1e-12)
