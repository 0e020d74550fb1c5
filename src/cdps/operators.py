"""Matrix-free measurement operators, structured noise models and their whiteners.

All operator callables act on the last axis, so a batch of vectors can be
pushed through as an ``(n, d)`` array in one call.  A step's conditional
covariance ``abar Sigma_n + (1 - abar) I`` is again a noise model of the
same class, and its whitener is one symmetric callable ``W`` with
``W(W(v)) = Sigma^{-1} v``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

DENSE_LIMIT = 1 << 20  # max m*d for dense materialization (exact steps, ILVR, oracles)


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """Linear map R^d -> R^m given by apply/adjoint closures.

    ``apply`` maps ``(..., d) -> (..., m)`` and ``adjoint`` maps
    ``(..., m) -> (..., d)``; both must satisfy the inner-product adjoint
    identity.  ``dense`` is an optional (m, d) materialization, only present
    for small instances; the sampler's exact steps, ILVR and the oracles use it.
    == is identity.
    """

    m: int
    d: int
    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    dense: np.ndarray | None = None

    def __post_init__(self):
        if self.m < 1 or self.d < 1:
            raise ValueError("operator dimensions must be positive")
        if self.dense is not None and self.dense.shape != (self.m, self.d):
            raise ValueError("dense matrix shape mismatch")
        if self.dense is not None and not np.all(np.isfinite(self.dense)):
            raise ValueError("dense matrix must be finite")


def checked_y(y, A: LinearOperator) -> np.ndarray:
    """y as a float vector of A's m measurements, refused unless that shape and finite."""
    y = np.asarray(y, dtype=float)
    if y.shape != (A.m,):
        raise ValueError(f"y must have shape ({A.m},), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    return y


def from_dense(mat: np.ndarray) -> LinearOperator:
    """Wrap a dense (m, d) matrix as a batched LinearOperator."""
    mat = np.ascontiguousarray(np.asarray(mat, dtype=float))
    if mat.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix must be finite")
    m, d = mat.shape
    dense = mat if m * d <= DENSE_LIMIT else None
    return LinearOperator(
        m=m,
        d=d,
        apply=lambda x, _M=mat: x @ _M.T,
        adjoint=lambda y, _M=mat: y @ _M,
        dense=dense,
    )


def zero_operator(m: int, d: int) -> LinearOperator:
    """The all-zero map, used for measurement-free sampling."""
    return from_dense(np.zeros((m, d)))


# ---------------------------------------------------------------------------
# Noise covariance models.  Those that hold arrays compare, and hash, by
# identity: a generated == over array fields raises.


@dataclass(frozen=True)
class IsotropicNoise:
    """Sigma_n = sigma2 * I (dimension-free)."""

    sigma2: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError("sigma2 must be positive and finite")

    def dense(self, m: int) -> np.ndarray:
        return self.sigma2 * np.eye(m)


@dataclass(frozen=True, eq=False)
class DiagonalNoise:
    """Sigma_n = diag(variances)."""

    variances: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.variances, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("variances must be a nonempty vector")
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise ValueError("variances must be positive and finite")
        object.__setattr__(self, "variances", v)

    def dense(self, m: int | None = None) -> np.ndarray:
        return np.diag(self.variances)


@dataclass(frozen=True, eq=False)
class LowRankNoise:
    """Sigma_n = U U^T + sigma2 * I with a tall factor U (m x r, r << m)."""

    U: np.ndarray
    sigma2: float

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        if U.ndim != 2 or U.shape[0] < U.shape[1]:
            raise ValueError("U must be a tall (m, r) matrix")
        if not np.all(np.isfinite(U)):
            raise ValueError("U must be finite")
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError("sigma2 must be positive and finite")
        object.__setattr__(self, "U", U)

    def dense(self, m: int | None = None) -> np.ndarray:
        return self.U @ self.U.T + self.sigma2 * np.eye(self.U.shape[0])


@dataclass(frozen=True, eq=False)
class CirculantNoise:
    """Circulant Sigma_n diagonalized by the DFT, stored by its eigenvalues.

    The spectrum must be real, strictly positive and Hermitian-symmetric
    (spectrum[k] == spectrum[m-k]) so the covariance is a real symmetric
    circulant matrix.
    """

    spectrum: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.spectrum, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("spectrum must be a nonempty vector")
        if not np.all(np.isfinite(s)) or np.any(s <= 0):
            raise ValueError("spectrum must be positive and finite")
        mirrored = s[(-np.arange(s.size)) % s.size]
        if np.any(np.abs(s - mirrored) > 1e-10 * mirrored):
            raise ValueError("spectrum must be Hermitian-symmetric")
        object.__setattr__(self, "spectrum", s)

    def dense(self, m: int | None = None) -> np.ndarray:
        n = self.spectrum.size
        first_col = np.fft.irfft(self.spectrum[: n // 2 + 1], n=n)
        idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        return first_col[idx]


NoiseModel = IsotropicNoise | DiagonalNoise | LowRankNoise | CirculantNoise


# ---------------------------------------------------------------------------
# Conditional covariance  abar * Sigma_n + (1 - abar) * I and its whitener


def mix_variance(variance, abar_prev: float):
    """abar * variance + (1 - abar): one variance (or an array of them) blended with 1."""
    return abar_prev * variance + (1.0 - abar_prev)


def mix_conditional_cov(noise: NoiseModel, abar_prev: float) -> NoiseModel:
    """Blend the measurement noise with identity: abar * Sigma_n + (1 - abar) * I.

    Returns a noise model of the input's class, so the whitener stays cheap.
    """
    a = float(abar_prev)
    if not (0.0 < a <= 1.0):
        raise ValueError("abar_prev must lie in (0, 1]")
    if isinstance(noise, IsotropicNoise):
        return IsotropicNoise(mix_variance(noise.sigma2, a))
    if isinstance(noise, DiagonalNoise):
        return DiagonalNoise(mix_variance(noise.variances, a))
    if isinstance(noise, LowRankNoise):
        return LowRankNoise(np.sqrt(a) * noise.U, mix_variance(noise.sigma2, a))
    if isinstance(noise, CirculantNoise):
        return CirculantNoise(mix_variance(noise.spectrum, a))
    raise TypeError(f"unsupported noise model {type(noise).__name__}")


def make_whitener(noise: NoiseModel) -> Callable[[np.ndarray], np.ndarray]:
    """The symmetric inverse square root W of a noise covariance, W(W(v)) = Sigma^{-1} v.

    Isotropic/diagonal covariances whiten by elementwise scaling; the
    low-rank-plus-identity case goes through a dense eigendecomposition of
    the r x r Gram matrix (Woodbury capacitance), costing O(mr + r^3); the
    circulant case scales in the real-FFT domain, keeping outputs real.
    """
    if isinstance(noise, IsotropicNoise):
        scale = noise.sigma2 ** -0.5
        return lambda v: v * scale

    if isinstance(noise, DiagonalNoise):
        scale = noise.variances ** -0.5
        return lambda v: v * scale

    if isinstance(noise, LowRankNoise):
        U, delta = noise.U, noise.sigma2
        lam, Q = np.linalg.eigh(U.T @ U)
        keep = lam > lam[-1] * 1e-14 if lam[-1] > 0 else np.zeros_like(lam, bool)
        lam = lam[keep]
        # Orthonormal basis of the factor's column space.
        P = U @ (Q[:, keep] / np.sqrt(lam))
        base = delta ** -0.5
        coef = (delta + lam) ** -0.5 - base
        return lambda v: base * v + (v @ P) * coef @ P.T

    if isinstance(noise, CirculantNoise):
        n = noise.spectrum.size
        scale = noise.spectrum[: n // 2 + 1] ** -0.5

        def fft_scale(v):
            if v.shape[-1] != n:
                raise ValueError(f"expected last axis of length {n}, got {v.shape[-1]}")
            return np.fft.irfft(np.fft.rfft(v, axis=-1) * scale, n=n, axis=-1)

        return fft_scale

    raise TypeError(f"unsupported noise model {type(noise).__name__}")


# ---------------------------------------------------------------------------
# Concrete measurement operators


def make_random_svd_operator(d: int, m: int, rng: np.random.Generator) -> LinearOperator:
    """Random operator with singular values drawn uniformly from [0, 1].

    A Gaussian (m, d) matrix supplies the singular bases; its singular values
    are replaced by min(m, d) independent Uniform[0, 1] draws.  Deterministic
    for a given generator state.
    """
    if not 1 <= m <= d:
        raise ValueError("need 1 <= m <= d")
    gauss = rng.standard_normal((m, d))
    u, _, vt = np.linalg.svd(gauss, full_matrices=False)
    s = rng.uniform(0.0, 1.0, size=min(m, d))
    return from_dense((u * s) @ vt)


def mask_operator(keep_indices, d: int) -> LinearOperator:
    """Coordinate-selection operator: apply(x) = x[keep_indices]."""
    keep = np.asarray(keep_indices, dtype=np.intp)
    if keep.ndim != 1 or keep.size == 0:
        raise ValueError("keep_indices must be a nonempty 1-D index set")
    if np.unique(keep).size != keep.size:
        raise ValueError("keep_indices must be unique")
    if np.any(keep < 0) or np.any(keep >= d):
        raise ValueError("keep_indices out of range")
    m = keep.size

    def apply(x):
        return np.ascontiguousarray(x[..., keep])

    def adjoint(y):
        out = np.zeros(y.shape[:-1] + (d,))
        out[..., keep] = y
        return out

    dense = None
    if m * d <= DENSE_LIMIT:
        dense = np.zeros((m, d))
        dense[np.arange(m), keep] = 1.0
    return LinearOperator(m=m, d=d, apply=apply, adjoint=adjoint, dense=dense)


def blur_operator(kernel, d: int) -> LinearOperator:
    """Circular convolution with an odd-length kernel; adjoint is correlation.

    Both run one tap loop over a circularly padded copy of the input: tap
    ``h[r + j]`` reads the input shifted by ``j`` for the convolution and by
    ``-j`` for the correlation.  The taps are summed in kernel order, each
    product made in one scratch buffer.
    """
    h = np.asarray(kernel, dtype=float)
    if h.ndim != 1 or h.size == 0:
        raise ValueError("kernel must be a nonempty vector")
    if not np.all(np.isfinite(h)):
        raise ValueError("kernel must be finite")
    if h.size % 2 == 0:
        raise ValueError("kernel length must be odd")
    if h.size > d:
        raise ValueError("kernel longer than the signal")
    r = h.size // 2

    def tap_sum(sign):
        # Circular padding by r on each side: xp[..., r + i] == x[..., i % d],
        # so roll(x, j)[..., i] == xp[..., r - j + i] for |j| <= r.
        taps = [(w, r - sign * j) for w, j in zip(h.tolist(), range(-r, r + 1))]

        def fn(x):
            xp = np.concatenate((x[..., d - r:], x, x[..., :r]), axis=-1)
            out = np.zeros(x.shape[:-1] + (d,))
            tmp = np.empty_like(out)
            for w, lo in taps:
                out += np.multiply(xp[..., lo:lo + d], w, out=tmp)
            return out

        return fn

    apply, adjoint = tap_sum(1), tap_sum(-1)
    dense = apply(np.eye(d)).T if d * d <= DENSE_LIMIT else None
    return LinearOperator(m=d, d=d, apply=apply, adjoint=adjoint, dense=dense)
