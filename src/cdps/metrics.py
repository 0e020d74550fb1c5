"""Sample-set comparison metrics and per-step diagnostics."""

from __future__ import annotations

import math

import numpy as np

from .operators import LinearOperator
from .schedules import check_count, check_finite

# The most slices drawn, projected and sorted at a time: the working set is
# about (2 n + d) * 8 * _SLICE_BLOCK bytes, whatever n_slices is.
_SLICE_BLOCK = 256
# The most multiply-adds one projection product (block, d) @ (d, n) takes.
# OpenBLAS runs a product this small on the calling thread at any thread count
# (its bound is 65,536 * GEMM_MULTITHREAD_THRESHOLD 4).  A larger one wakes its
# worker thread, which then busy-waits into whatever runs next: on a 2-core x86
# box at 2 threads (OpenBLAS 0.3.31) a product of 521,600 multiply-adds stayed
# on the caller, one of 524,800 woke the worker, and 256 slices at n = 100,
# d = 32 (819,200) left it burning 13-14 clock ticks of the next 0.3 s.
_PRODUCT_MADDS = 2**18


def _check_samples(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1:
        raise ValueError(f"{name} must be a nonempty (n, d) array")
    check_finite(a, name)
    return a


def sliced_wasserstein(
    a: np.ndarray,
    b: np.ndarray,
    n_slices: int,
    rng: np.random.Generator,
    order: int = 2,
) -> float:
    """Sliced Wasserstein distance between two equal-size sample sets.

    Projects both sets onto ``n_slices`` uniform random directions, computes
    the 1-D order-p Wasserstein distance per direction via sorted quantile
    matching, and aggregates as (mean_slices W_p^p)^(1/p).  The directions
    are drawn from ``rng`` a block at a time, one ``standard_normal`` call per
    block, so they and the generator's final state are those of one up-front
    (n_slices, d) draw, whatever the block.  A block is ``_SLICE_BLOCK``
    slices, or fewer where n and d are large enough that its projection
    products would exceed ``_PRODUCT_MADDS`` multiply-adds.
    """
    a = _check_samples(a, "a")
    b = _check_samples(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ValueError("sample sets must share the dimension")
    if a.shape[0] != b.shape[0]:
        raise ValueError("sample sets must have equal size")
    check_count(n_slices, "n_slices")
    check_count(order, "order")  # True would score order 1
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")

    n, d = a.shape
    block = min(_SLICE_BLOCK, max(1, _PRODUCT_MADDS // (n * d)))
    total = 0.0
    for lo in range(0, n_slices, block):
        dirs = rng.standard_normal((min(block, n_slices - lo), d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        # One projection per row, so each sort runs along contiguous memory,
        # in place like the differences below.
        diff = dirs @ a.T
        diff.sort(axis=-1)
        pb = dirs @ b.T
        pb.sort(axis=-1)
        diff -= pb
        if order == 2:
            diff *= diff
        else:
            np.abs(diff, out=diff)
        total += float(np.add.reduce(diff, axis=None))
    mean = total / (n_slices * n)
    return math.sqrt(mean) if order == 2 else mean


def measurement_residual(x: np.ndarray, y: np.ndarray, A: LinearOperator) -> float | np.ndarray:
    """Squared Euclidean misfit ||y - A x||^2 (per row for a batch of x)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != A.d or y.shape[-1] != A.m:
        raise ValueError("dimension mismatch")
    r = y - A.apply(x)
    out = np.einsum("...i,...i->...", r, r)
    return float(out) if out.ndim == 0 else out


def batch_cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity along the last axis; NaN where either vector is zero."""
    dot = np.einsum("...i,...i->...", a, b)
    denom = np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0, dot / np.where(denom == 0, 1.0, denom), np.nan)


class IterateTrace:
    """A score callable that records the iterates a sampler scores.

    Pass it as a sampler's ``score_fn``: the reverse-time loop calls it once
    per step, at (x_t, t) for t = T..1, and it records x_t's misfit
    ``measurement_residual(x_t, y, A)`` and the score ``score_fn`` returns.
    ``close(x0)`` scores x_0 at t = 0 and returns (residual_sq, score_cos,
    score_mse), each (T+1, ...) and indexed by the level t: residual_sq[t]
    is x_t's misfit, and entry t of the other two pairs level t-1's score
    with level t's, their cosine and mean squared difference; entry 0 is NaN.
    """

    def __init__(self, score_fn, y: np.ndarray, A: LinearOperator):
        self._score_fn, self._y, self._A = score_fn, y, A
        self._residuals, self._cos, self._mse = [], [], []
        self._last = None  # the score of the level scored last

    def __call__(self, x: np.ndarray, t: int) -> np.ndarray:
        s = np.asarray(self._score_fn(x, t), dtype=float)
        self._residuals.append(measurement_residual(x, self._y, self._A))
        if self._last is not None:
            diff = s - self._last
            self._mse.append(np.einsum("...i,...i->...", diff, diff) / diff.shape[-1])
            self._cos.append(batch_cosine(s, self._last))
        self._last = s
        return s

    def close(self, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        self(x0, 0)
        nan = np.full(np.shape(self._cos[0]), np.nan)
        return (np.array(self._residuals[::-1]), np.array([nan] + self._cos[::-1]),
                np.array([nan] + self._mse[::-1]))
