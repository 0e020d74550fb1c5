import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdps.gmm import make_grid_gmm
from cdps.operators import (
    DENSE_LIMIT,
    CirculantNoise,
    DiagonalNoise,
    IsotropicNoise,
    LinearOperator,
    LowRankNoise,
    blur_operator,
    from_dense,
    make_random_svd_operator,
    make_whitener,
    mask_operator,
    mix_conditional_cov,
    zero_operator,
)


def adjoint_error(op, rng, trials=5):
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(op.d)
        y = rng.standard_normal(op.m)
        lhs = op.apply(x) @ y
        rhs = x @ op.adjoint(y)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    return worst


def all_noise_models(rng, m):
    spectrum = np.abs(np.fft.fft(rng.standard_normal(m))) ** 2 + 0.5
    return {
        "isotropic": IsotropicNoise(4.0),
        "diagonal": DiagonalNoise(rng.uniform(0.5, 3.0, m)),
        "lowrank": LowRankNoise(rng.standard_normal((m, 2)), 0.7),
        "circulant": CirculantNoise(spectrum),
    }


# ---------------------------------------------------------------------------
# LinearOperator


def test_dense_operator_adjoint_and_linearity():
    rng = np.random.default_rng(0)
    op = from_dense(rng.standard_normal((3, 7)))
    assert adjoint_error(op, rng) < 1e-10
    x, z = rng.standard_normal(7), rng.standard_normal(7)
    np.testing.assert_allclose(
        op.apply(2.0 * x - 3.0 * z), 2.0 * op.apply(x) - 3.0 * op.apply(z), rtol=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["dense", "mask", "blur"]),
    d=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_adjoint_identity(kind, d, seed):
    # <A x, y> = <x, A^T y> for single vectors and for batches, bounded by
    # Cauchy-Schwarz so that a near-zero inner product needs no special case.
    rng = np.random.default_rng(seed)
    if kind == "dense":
        op = from_dense(rng.standard_normal((int(rng.integers(1, 12)), d)))
    elif kind == "mask":
        op = mask_operator(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False), d)
    else:
        width = 2 * int(rng.integers(0, (d - 1) // 2 + 1)) + 1
        op = blur_operator(rng.standard_normal(width), d)
    for batch in ((), (3,)):
        x = rng.standard_normal(batch + (op.d,))
        y = rng.standard_normal(batch + (op.m,))
        ax, aty = op.apply(x), op.adjoint(y)
        assert ax.shape == y.shape and aty.shape == x.shape
        lhs = np.einsum("...i,...i->...", ax, y)
        rhs = np.einsum("...i,...i->...", x, aty)
        scale = np.linalg.norm(ax, axis=-1) * np.linalg.norm(y, axis=-1)
        assert np.all(np.abs(lhs - rhs) <= 1e-10 * scale)


def test_batched_apply_matches_rowwise():
    rng = np.random.default_rng(1)
    op = from_dense(rng.standard_normal((3, 5)))
    X = rng.standard_normal((4, 5))
    batched = op.apply(X)
    for i in range(4):
        np.testing.assert_allclose(batched[i], op.apply(X[i]), rtol=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_operators_are_refused(bad):
    # One NaN in A used to make C-DPS fail mid-run in its SVD and DPS return
    # NaN samples without an error; every constructor now refuses it, also
    # for a matrix too large to keep a dense form.
    mat = np.eye(3, 5)
    mat[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        LinearOperator(3, 5, lambda x: x @ mat.T, lambda y: y @ mat, dense=mat)
    with pytest.raises(ValueError, match="finite"):
        from_dense(mat)
    big = np.ones((1, DENSE_LIMIT + 1))
    big[0, -1] = bad
    with pytest.raises(ValueError, match="finite"):
        from_dense(big)
    with pytest.raises(ValueError, match="finite"):
        blur_operator([bad, 1.0, 0.0], 8)


def test_random_svd_operator_contract():
    rng = np.random.default_rng(2)
    op = make_random_svd_operator(12, 4, rng)
    svals = np.linalg.svd(op.dense, compute_uv=False)
    assert np.all(svals >= 0.0) and np.all(svals <= 1.0)
    again = make_random_svd_operator(12, 4, np.random.default_rng(2))
    np.testing.assert_array_equal(op.dense, again.dense)
    assert adjoint_error(op, rng) < 1e-10
    with pytest.raises(ValueError):
        make_random_svd_operator(4, 12, rng)


def test_mask_operator():
    op = mask_operator([0], d=2)
    np.testing.assert_array_equal(op.apply(np.array([3.0, 5.0])), [3.0])
    np.testing.assert_array_equal(op.adjoint(np.array([2.0])), [2.0, 0.0])
    assert adjoint_error(op, np.random.default_rng(3)) < 1e-12
    for bad in ([], [0, 0], [2], [-1]):
        with pytest.raises(ValueError):
            mask_operator(bad, d=2)


def test_blur_operator_identity_kernel():
    op = blur_operator([1.0], d=5)
    x = np.arange(5.0)
    np.testing.assert_allclose(op.apply(x), x)


def test_blur_operator_hand_convolution():
    # circular kernel (0.25, 0.5, 0.25) against a unit impulse
    op = blur_operator([0.25, 0.5, 0.25], d=4)
    y = op.apply(np.array([1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(y, [0.5, 0.25, 0.0, 0.25])
    assert adjoint_error(op, np.random.default_rng(4)) < 1e-12


def roll_blur(h, x, sign):
    """The blur as one np.roll per tap, taps in kernel order (sign -1: adjoint)."""
    r = len(h) // 2
    out = np.zeros(x.shape)
    for w, j in zip(h, range(-r, r + 1)):
        out += w * np.roll(x, sign * j, axis=-1)
    return out


@pytest.mark.parametrize("size,d", [(1, 3), (3, 3), (3, 8), (5, 5), (5, 17), (7, 7), (7, 32)])
def test_blur_operator_matches_roll_formula_bitwise(size, d):
    rng = np.random.default_rng(size * 100 + d)
    h = rng.standard_normal(size)
    op = blur_operator(h, d=d)
    for x in (rng.standard_normal(d), rng.standard_normal((6, d)), rng.standard_normal((2, 3, d))):
        np.testing.assert_array_equal(op.apply(x), roll_blur(h, x, 1))
        np.testing.assert_array_equal(op.adjoint(x), roll_blur(h, x, -1))


def test_blur_operator_rejects_bad_kernels():
    with pytest.raises(ValueError):
        blur_operator([0.5, 0.5], d=4)  # even length
    with pytest.raises(ValueError):
        blur_operator([0.2, 0.2, 0.2, 0.2, 0.2], d=3)  # longer than signal


# ---------------------------------------------------------------------------
# Conditional covariance


def test_mix_isotropic_examples():
    assert mix_conditional_cov(IsotropicNoise(1.0), 0.5).sigma2 == pytest.approx(1.0)
    assert mix_conditional_cov(IsotropicNoise(4.0), 0.25).sigma2 == pytest.approx(1.75)


def test_mix_circulant_example():
    cov = mix_conditional_cov(CirculantNoise(np.array([2.0, 2.0])), 0.5)
    np.testing.assert_allclose(cov.spectrum, [1.5, 1.5])


def test_mix_preserves_structure_and_limits():
    rng = np.random.default_rng(6)
    m = 6
    for name, noise in all_noise_models(rng, m).items():
        same = mix_conditional_cov(noise, 1.0)
        np.testing.assert_allclose(same.dense(m), noise.dense(m), rtol=1e-12)
        near_id = mix_conditional_cov(noise, 1e-9)
        np.testing.assert_allclose(near_id.dense(m), np.eye(m), atol=1e-6)
        assert type(same) is type(noise) and type(near_id) is type(noise)


def test_mix_rejects_bad_abar():
    for abar in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            mix_conditional_cov(IsotropicNoise(1.0), abar)


# ---------------------------------------------------------------------------
# Whiteners


def test_isotropic_whitener_examples():
    rng = np.random.default_rng(7)
    v = rng.standard_normal(5)
    w4 = make_whitener(mix_conditional_cov(IsotropicNoise(7.0), 0.5))
    # sigma2 = 0.5*7 + 0.5 = 4
    np.testing.assert_allclose(w4(v), v / 2.0)
    np.testing.assert_allclose(w4(w4(v)), v / 4.0)
    w1 = make_whitener(mix_conditional_cov(IsotropicNoise(1.0), 0.3))
    np.testing.assert_allclose(w1(v), v)


def test_lowrank_whitener_hand_case():
    # U = e1 (m=3, r=1), sigma^2 = 1, abar = 0.5 -> delta = 1
    U = np.zeros((3, 1))
    U[0, 0] = 1.0
    cov = mix_conditional_cov(LowRankNoise(U, 1.0), 0.5)
    wh = make_whitener(cov)
    e1 = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(wh(wh(e1)), (2.0 / 3.0) * e1, rtol=1e-12)
    dense = cov.dense(3)
    np.testing.assert_allclose(np.linalg.inv(dense)[:, 0], (2.0 / 3.0) * e1, rtol=1e-12)


@pytest.mark.parametrize("abar", [1.0, 0.5, 1e-3])
def test_whitener_gram_matches_dense_inverse(abar):
    rng = np.random.default_rng(8)
    m = 8
    for name, noise in all_noise_models(rng, m).items():
        cov = mix_conditional_cov(noise, abar)
        wh = make_whitener(cov)
        dense_inv = np.linalg.inv(cov.dense(m))
        w = wh(np.eye(m)).T
        tol = 1e-8 if name == "lowrank" else 1e-10
        np.testing.assert_allclose(w, w.T, rtol=0, atol=tol * np.linalg.norm(w))
        gram = wh(wh(np.eye(m))).T
        err = np.linalg.norm(gram - dense_inv) / np.linalg.norm(dense_inv)
        assert err < tol, (name, abar, err)
        # W W really inverts the covariance
        v = rng.standard_normal(m)
        np.testing.assert_allclose(wh(wh(cov.dense(m) @ v)), v, rtol=1e-8, atol=1e-10)


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(["isotropic", "diagonal", "lowrank", "circulant"]),
    m=st.integers(2, 12),
    abar=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_whitener_gram_property(name, m, abar, seed):
    # W is symmetric and W(W(v)) = Sigma^{-1} v for every noise model's
    # conditional covariance abar Sigma_n + (1 - abar) I.
    rng = np.random.default_rng(seed)
    cov = mix_conditional_cov(all_noise_models(rng, m)[name], abar)
    wh = make_whitener(cov)
    dense_inv = np.linalg.inv(cov.dense(m))
    w = wh(np.eye(m)).T
    tol = 1e-8 if name == "lowrank" else 1e-10
    np.testing.assert_allclose(w, w.T, rtol=0, atol=tol * np.linalg.norm(w))
    gram = wh(wh(np.eye(m))).T
    err = np.linalg.norm(gram - dense_inv) / np.linalg.norm(dense_inv)
    assert err < tol, (name, abar, err)
    # W W really inverts the covariance
    v = rng.standard_normal(m)
    np.testing.assert_allclose(wh(wh(cov.dense(m) @ v)), v, rtol=1e-8, atol=1e-10)


def test_whitener_rejects_non_spd():
    with pytest.raises(ValueError):
        CirculantNoise(np.array([1.0, -0.5, 1.0, -0.5]))
    with pytest.raises(ValueError):
        DiagonalNoise(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        IsotropicNoise(-1.0)


def test_circulant_requires_symmetric_spectrum():
    with pytest.raises(ValueError):
        CirculantNoise(np.array([1.0, 2.0, 3.0, 4.0]))


def test_circulant_whitener_length_mismatch():
    wh = make_whitener(mix_conditional_cov(CirculantNoise(np.full(4, 2.0)), 0.5))
    with pytest.raises(ValueError):
        wh(np.zeros(5))


def test_array_dataclasses_compare_and_hash_by_identity():
    # A generated __eq__ over array fields raises on two equal-length arrays,
    # and a generated __hash__ over them raises "unhashable"; a mixture, an
    # operator and every array-holding noise model compare, and hash, by
    # identity instead.  Isotropic noise holds a scalar and keeps its values'.
    A = from_dense(np.eye(3))
    pairs = [(make_grid_gmm(4), make_grid_gmm(4)), (A, dataclasses.replace(A, dense=None))]
    pairs += [(model, dataclasses.replace(model))
              for name, model in all_noise_models(np.random.default_rng(0), 4).items()
              if name != "isotropic"]
    for a, b in pairs:
        assert a == a and a != b and len({a, b}) == 2
    assert IsotropicNoise(2.0) == IsotropicNoise(2.0)
    assert len({IsotropicNoise(2.0), IsotropicNoise(2.0)}) == 1


def test_zero_operator():
    op = zero_operator(2, 3)
    np.testing.assert_array_equal(op.apply(np.ones(3)), [0.0, 0.0])


@pytest.mark.parametrize("case, match", [
    (lambda: LinearOperator(0, 3, np.negative, np.negative), "dimensions must be positive"),
    (lambda: LinearOperator(2, 0, np.negative, np.negative), "dimensions must be positive"),
    (lambda: LinearOperator(2, 3, np.negative, np.negative, dense=np.zeros((3, 2))),
     "dense matrix shape mismatch"),
    (lambda: from_dense(np.ones(3)), "expected a 2-D matrix"),
    (lambda: DiagonalNoise(np.zeros(0)), "variances must be a nonempty vector"),
    (lambda: CirculantNoise(np.zeros(0)), "spectrum must be a nonempty vector"),
    (lambda: LowRankNoise(np.ones((2, 3)), 1.0), r"U must be a tall \(m, r\) matrix"),
    (lambda: LowRankNoise(np.ones(3), 1.0), r"U must be a tall \(m, r\) matrix"),
    (lambda: LowRankNoise(np.array([[1.0], [np.inf]]), 1.0), "U must be finite"),
    (lambda: LowRankNoise(np.ones((2, 1)), 0.0), "sigma2 must be positive and finite"),
    (lambda: LowRankNoise(np.ones((2, 1)), np.nan), "sigma2 must be positive and finite"),
    (lambda: blur_operator(np.zeros(0), 5), "kernel must be a nonempty vector"),
    (lambda: mix_conditional_cov(np.eye(2), 0.5), "unsupported noise model ndarray"),
    (lambda: make_whitener(np.eye(2)), "unsupported noise model ndarray"),
], ids=["m-zero", "d-zero", "dense-shape", "from_dense-1d", "diagonal-empty", "circulant-empty",
        "lowrank-wide", "lowrank-1d", "lowrank-nonfinite", "lowrank-sigma2-zero",
        "lowrank-sigma2-nan", "blur-empty", "mix-unsupported", "whitener-unsupported"])
def test_operator_and_noise_input_refusals(case, match):
    with pytest.raises((ValueError, TypeError), match=match):
        case()
