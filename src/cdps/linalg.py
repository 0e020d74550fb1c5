"""SPD solves against the step precision and the perturbation-optimisation draw.

Every reverse sampling step draws from a Gaussian with precision
``P = c * I + B^T B``, ``B = W A``, in one solve: with a synthetic
right-hand side ``z = sqrt(c) eps1 + B^T eps2`` whose covariance is ``P``
itself, ``P^{-1} (rhs + z)`` is a draw around the mean ``P^{-1} rhs``.  The
sampler makes that solve in one of two ways.  When ``A`` has a dense form it
is exact: ``spectral_factor`` of ``B`` and ``spectral_solve``.  Otherwise
``cg_solve`` runs matrix-free CG on ``PrecisionOperator(c, A, W)``, with the
precision's diagonal, ``diag_preconditioner``, as preconditioner.  The
whitener ``W`` is the symmetric callable of ``operators.make_whitener``, so
``B^T = A^T W``.  A measurement-free precision ``c * I`` is built over
``operators.zero_operator``.  Right-hand sides may be batched with the
vector axis last, in which case all rows are solved together.

The thin SVD ``B = U diag(s) V^T``, ``spectral_factor``, diagonalises the
precision as ``c + s^2`` in the basis ``V`` and as ``c`` on ``B``'s null
space, so ``spectral_solve`` solves in ``O(n d min(m, d))``.  With ``W = w I``
the precision is ``c I + w^2 A^T A``: one thin SVD of a dense ``A`` serves
every ``c`` and ``w`` of a run, and ``gmm.exact_posterior`` and ILVR's
pseudo-inverse read the same factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .operators import LinearOperator
from .schedules import check_count, check_finite, check_real

PRECOND_PROBE_LIMIT = 4096  # beyond this, fall back to the identity preconditioner


@dataclass(frozen=True)
class PrecisionOperator:
    """SPD action u -> c * u + B^T B u with c > 0, where B = W A."""

    c: float
    op: LinearOperator
    whitener: Callable[[np.ndarray], np.ndarray]  # symmetric, so W^T = W

    def __post_init__(self):
        check_real(self.c, "c", positive=True)

    @property
    def m(self) -> int:
        return self.op.m

    @property
    def d(self) -> int:
        return self.op.d

    def bt(self, v: np.ndarray) -> np.ndarray:
        """B^T v = A^T W v."""
        return self.op.adjoint(self.whitener(v))

    def matvec(self, u: np.ndarray) -> np.ndarray:
        return self.c * u + self.bt(self.whitener(self.op.apply(u)))

    def dense(self) -> np.ndarray:
        """Materialize by probing with the identity (tests and oracles only)."""
        return self.matvec(np.eye(self.d)).T


@dataclass
class CgReport:
    """Outcome of one (possibly batched) CG solve: the iterations run and each row's convergence.

    A solve whose rows all start converged, as zero right-hand sides do, runs none.
    """

    iterations: int
    row_converged: np.ndarray


def diag_preconditioner(op: PrecisionOperator) -> np.ndarray | None:
    """Diagonal of the precision operator, i.e. c + ||W A e_i||^2 per column.

    Column norms come from a batched identity probe; above the probe limit
    returns None, which cg_solve treats as the identity preconditioner.
    """
    if op.d > PRECOND_PROBE_LIMIT:
        return None
    cols = op.whitener(op.op.apply(np.eye(op.d)))  # row i = W A e_i
    return op.c + np.einsum("ij,ij->i", cols, cols)


def _checked_settings(op: PrecisionOperator, tol: float, max_iter: int | None) -> int:
    """``max_iter`` (``10 d`` if None), refused with ``tol`` unless both are valid."""
    check_real(tol, "tol", positive=True)
    max_iter = 10 * op.d if max_iter is None else max_iter
    check_count(max_iter, "max_iter")
    return max_iter


def _row_norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...i,...i->...", v, v))


def cg_solve(
    op: PrecisionOperator,
    rhs: np.ndarray,
    preconditioner: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int | None = None,
    callback: Callable[[np.ndarray], None] | None = None,
) -> tuple[np.ndarray, CgReport]:
    """Preconditioned conjugate gradients on ``op.matvec(x) = rhs``.

    Stops when every row satisfies ||op(x) - rhs|| <= tol * ||rhs||; rows
    with a zero right-hand side converge immediately to zero.  On
    non-convergence, the best iterate seen (smallest relative residual per
    row) is returned, its unconverged rows flagged in ``row_converged``, and
    the caller decides.
    """
    max_iter = _checked_settings(op, tol, max_iter)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[-1] != op.d:
        raise ValueError(f"rhs last axis must be {op.d}")
    check_finite(rhs, "rhs")

    x = np.zeros_like(rhs)
    r = rhs.copy()
    rhs_norm = _row_norms(rhs)
    zero_rhs = rhs_norm == 0.0
    safe_norm = np.where(zero_rhs, 1.0, rhs_norm)

    rel = _row_norms(r) / safe_norm
    row_conv = rel <= tol
    best_rel = rel.copy()
    best_x = x.copy()
    if np.all(row_conv):
        return x, CgReport(0, row_conv)

    z = r / preconditioner if preconditioner is not None else r.copy()
    p = z.copy()
    rz = np.einsum("...i,...i->...", r, z)

    for k in range(1, max_iter + 1):
        ap = op.matvec(p)
        pap = np.einsum("...i,...i->...", p, ap)
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = np.where(pap > 0, rz / np.where(pap == 0, 1.0, pap), 0.0)
        x = x + alpha[..., None] * p
        r = r - alpha[..., None] * ap
        if callback is not None:
            callback(x.copy())

        rel = _row_norms(r) / safe_norm
        improved = rel < best_rel
        best_rel = np.where(improved, rel, best_rel)
        np.copyto(best_x, x, where=improved[..., None])
        row_conv = row_conv | (rel <= tol)
        if np.all(row_conv):
            break

        z = r / preconditioner if preconditioner is not None else r
        rz_new = np.einsum("...i,...i->...", r, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            beta = np.where(rz > 0, rz_new / np.where(rz == 0, 1.0, rz), 0.0)
        p = z + beta[..., None] * p
        rz = rz_new

    if not np.all(row_conv):
        x = best_x
    return x, CgReport(k, row_conv)


def spectral_factor(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The thin SVD ``A = U diag(s) V^T``: U (m, k), s (k,) descending, V (d, k), k = min(m, d)."""
    u, s, vt = np.linalg.svd(dense, full_matrices=False)
    return u, s, vt.T


def spectral_solve(factor, c: float | np.ndarray, w2: float | np.ndarray,
                   rhs: np.ndarray) -> np.ndarray:
    """Solve ``(c I + w2 A^T A) x = rhs`` for every row from ``factor = spectral_factor(A)``.

    In the basis ``V`` the precision is ``diag(c + w2 s^2)``.  When k < d the
    rest of R^d is A's null space, where it is ``c I``; for k = d the diagonal
    form is exact and needs no subtraction, which would lose digits where
    ``w2 s^2 >> c``.  ``c`` and ``w2`` may be arrays that broadcast over leading
    axes, such as (block, 1, 1) columns: each slice equals the call with that
    slice's scalars, and with ``rhs = I`` it is that precision's inverse.
    """
    _, s, v = factor
    proj = rhs @ v
    x = (proj / (c + w2 * (s * s))) @ v.T
    if v.shape[1] < v.shape[0]:
        x += (rhs - proj @ v.T) / c
    return x


def pw_cg_draw(
    op: PrecisionOperator,
    rng: np.random.Generator,
    tol: float = 1e-8,
    max_iter: int | None = None,
    preconditioner: np.ndarray | None = None,
    n: int | None = None,
) -> tuple[np.ndarray, CgReport]:
    """Draw from N(0, op^{-1}) without any dense factorization.

    Returns the CG solve of ``op.matvec(v) = z`` for the synthetic right-hand
    side ``z = sqrt(c) * eps1 + B^T eps2`` with cov(z) = op (Papandreou
    & Yuille 2010; Orieux et al. 2012).  eps1, shape (d,) or (n, d), is drawn
    before eps2, shape (m,) or (n, m), the order the coupled step uses.  Pass
    ``n`` to draw a batch of independent vectors; a refused CG setting or ``n`` draws none.
    """
    max_iter = _checked_settings(op, tol, max_iter)
    if n is not None:
        check_count(n, "n")
    batch = () if n is None else (n,)
    z = np.sqrt(op.c) * rng.standard_normal(batch + (op.d,))
    z = z + op.bt(rng.standard_normal(batch + (op.m,)))
    return cg_solve(op, z, preconditioner=preconditioner, tol=tol, max_iter=max_iter)
