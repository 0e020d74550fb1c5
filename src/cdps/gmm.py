"""Gaussian-mixture prior with analytic time-marginal score and exact posterior.

A prior's components share one isotropic variance.  The benchmark prior is
a 25-component grid mixture whose unit component variance makes every
forward-time marginal again a unit-variance mixture, so the score is
available in closed form at all noise levels.  For a linear Gaussian
measurement the posterior is itself a mixture of Gaussians and is computed
exactly, providing the ground truth the samplers are scored against.

The score and the denoiser's Jacobian product at the same ``(x, abar)``
-- DPS makes both every step -- share one responsibilities pass: each
mixture keeps its last pass, keyed on ``abar`` and an exact copy of ``x``.
A mixture and its arrays are therefore not to be changed in place once
built.

The pass is trimmed without moving a bit, because DPS amplifies the score's
rounding: summing the score's last product in another order moved DPS's
sliced Wasserstein distance past the benchmark reference's rtol of 1e-4 on
41 of its 81 pool tasks, by up to 48%, and C-DPS's by at most 5e-15.  So a
mixture takes the log of its weights once, when it is built; the
time-marginal variance is one scalar, as the prior's is; and the logits'
factors -2 and -1/2, both powers of two, are folded into the expression
instead of applied in passes of their own.  The denoiser's Jacobian product
likewise computes its products in place, each with the operands and in the
order of the expression written out with fresh arrays.

The score closure (``score_fn_for``) reads the constants of each level
t = 0..T from a table it builds once: sqrt(abar_t), the marginal variance,
0.5 ||sqrt(abar_t) mu_k||^2 and -d/2 log of the variance.  The table is
built by the same elementwise operations and the same per-component einsum
as one level at a time, so a pass reads the same bits it would compute; its
scalar columns are kept as lists of Python floats, which hold the same
values and index without building a numpy scalar.  The Jacobian closure
(``denoiser_jvp_fn_for``) builds no table: a guided run calls it at the
score's (x, t), so it reads the score's pass, and on a miss its pass builds
the one level it needs.

The exact posterior works in A's singular basis (``linalg.spectral_factor``), so
its means fit y to within about sigma sqrt(m) down to sigma = 1e-7; its weights
are normalised by their largest log weight, then by their sum.  The oracle log
densities sum over the components by numpy's ``logaddexp.reduce``, a few ulp
from ``scipy.special.logsumexp``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import spectral_factor
from .operators import LinearOperator, checked_y
from .schedules import NoiseSchedule, check_count, check_finite, check_level, check_real

_WSUM_TOL = 1e-12
# Largest temporary, in bytes, of the (levels, K, d) marginal means a level
# table is built from.
_LEVEL_BLOCK_BYTES = 1 << 18


def _logsumexp(a: np.ndarray, axis=None) -> np.ndarray:
    """log(sum(exp(a))) over ``axis``, within a few ulp of ``scipy.special.logsumexp``."""
    with np.errstate(invalid="ignore"):
        return np.logaddexp.reduce(a, axis=axis)


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Mixture whose components share either one isotropic variance or one
    full covariance (the form the exact posterior takes); == is identity."""

    means: np.ndarray  # (K, d)
    weights: np.ndarray  # (K,)
    variance: float | None = None  # the components' isotropic variance
    cov: np.ndarray | None = None  # (d, d) shared SPD covariance

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if means.ndim != 2:
            raise ValueError("means must be (K, d)")
        K, d = means.shape
        if weights.shape != (K,):
            raise ValueError("weights must be (K,)")
        check_finite(means, "means")
        check_finite(weights, "weights")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > _WSUM_TOL:
            raise ValueError("weights must be nonnegative and sum to 1")
        if (self.variance is None) == (self.cov is None):
            raise ValueError("exactly one of variance/cov must be given")
        chol = None
        if self.variance is not None:
            check_real(self.variance, "variance", positive=True)
            object.__setattr__(self, "variance", float(self.variance))
        else:
            cov = np.asarray(self.cov, dtype=float)
            if cov.shape != (d, d):
                raise ValueError("cov must be (d, d)")
            check_finite(cov, "cov")
            chol = np.linalg.cholesky(cov)  # raises LinAlgError if not SPD
            object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_chol", chol)  # lower Cholesky factor of cov
        # Posterior weights can underflow to exactly 0, whose log is -inf.
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "_log_weights", np.log(weights))
        object.__setattr__(self, "_last_pass", None)  # see _pass

    @property
    def K(self) -> int:
        return self.means.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]


def make_grid_gmm(d: int) -> GaussianMixture:
    """25 equally weighted unit-variance components on the (8i, 8j) grid.

    Means repeat the pair (8i, 8j) across the d coordinates for
    (i, j) in {-2..2}^2, so d must be even.
    """
    check_count(d, "d", 2)
    if d % 2 != 0:
        raise ValueError("d must be even")
    grid = np.arange(-2, 3, dtype=float)
    pairs = [(8.0 * i, 8.0 * j) for i in grid for j in grid]
    means = np.array([pair * (d // 2) for pair in pairs])
    K = len(pairs)
    return GaussianMixture(
        means=means,
        weights=np.full(K, 1.0 / K),
        variance=1.0,
    )


class _Levels(NamedTuple):
    """Constants of the forward-time marginal mixture: a table with one row
    per level, or one level's.  A pass takes one level's as any sequence in
    this order."""

    abar: np.ndarray
    root: np.ndarray  # sqrt(abar): the marginal means are root * means
    var: np.ndarray  # the components' marginal variance
    log_norm: np.ndarray  # -d/2 log(var)
    half_m2: np.ndarray  # (K,) 0.5 ||root * mu_k||^2


def _level_table(gmm: GaussianMixture, abars: np.ndarray) -> _Levels:
    """Marginal constants at each of ``abars``, equal bit for bit to one level's at a time.

    Every entry comes from the elementwise operations a single level makes,
    and the squared mean norms from the same einsum over the component axis,
    taken in blocks of levels to bound the (levels, K, d) temporary.
    """
    if not np.all((abars > 0.0) & (abars <= 1.0)):
        raise ValueError("abar must lie in (0, 1]")
    if gmm.variance is None:
        raise ValueError("time-marginal score requires isotropic components")
    root = np.sqrt(abars)
    var = abars * gmm.variance + (1.0 - abars)
    half_m2 = np.empty((abars.size, gmm.K))
    block = max(1, _LEVEL_BLOCK_BYTES // gmm.means.nbytes)
    for lo in range(0, abars.size, block):
        means_t = root[lo:lo + block, None, None] * gmm.means
        np.einsum("tki,tki->tk", means_t, means_t, out=half_m2[lo:lo + block])
    half_m2 *= 0.5
    return _Levels(abars, root, var, (-0.5 * gmm.d) * np.log(var), half_m2)


def _level(gmm: GaussianMixture, abar: float) -> _Levels:
    """One level's constants, by the table's arithmetic."""
    return _Levels(*(column[0] for column in _level_table(gmm, np.array([abar], dtype=float))))


def _responsibilities(gmm: GaussianMixture, x: np.ndarray, means_t, var, log_norm, half_m2):
    """Posterior component probabilities at x, computed in log space.

    Squared distances are expanded as ||x||^2 - 2 x.m + ||m||^2 to avoid a
    (n, K, d) intermediate; grid means are far apart, so the log-domain
    max-subtraction in softmax is what keeps the exponentials alive.

    The logits log w - 0.5 * ((x2 - 2 cross + m2) / v + d log v) are built
    in one buffer as ((cross - x2/2 - m2/2) / v - d/2 log v) + log w.  Each
    partial result is the original one times -1/2, and scaling by a power of
    two is exact, so every logit rounds as that expression does.
    """
    half_x2 = 0.5 * np.einsum("...i,...i->...", x, x)[..., None]
    logits = x @ means_t.T
    logits -= half_x2
    logits -= half_m2
    logits /= var
    logits += log_norm
    logits += gmm._log_weights
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=-1, keepdims=True)
    return logits  # (..., K)


def _pass(gmm: GaussianMixture, x: np.ndarray, abar: float, level=None):
    """Responsibilities, marginal means and variance and sqrt(abar) at (x, abar).

    The last pass is reused.  Its key is exact: the same abar (compared
    first, so a new time step misses cheaply), then the same shape and
    values of x, checked against a copy so that changing x in place
    recomputes.  The cached r is read-only.  ``level`` holds abar's
    constants, in ``_Levels`` order, when the caller has them tabulated.
    """
    last = gmm._last_pass
    if (last is not None and last[0] == abar and last[1].shape == x.shape
            and (last[1] == x).all()):
        return last[2:]
    _, root, var, log_norm, half_m2 = _level(gmm, abar) if level is None else level
    means_t = root * gmm.means  # (K, d)
    r = _responsibilities(gmm, x, means_t, var, log_norm, half_m2)
    r.setflags(write=False)
    out = (r, means_t, var, root)
    object.__setattr__(gmm, "_last_pass", (abar, x.copy(), *out))
    return out


def score(gmm: GaussianMixture, x: np.ndarray, abar: float, level=None) -> np.ndarray:
    """Gradient of the log time-marginal density at x.

    Equals the responsibility-weighted sum of per-component Gaussian scores
    (sqrt(abar) * mu_k - x) / var.  Accepts a single vector or a batch
    with the coordinate axis last.  ``level`` is abar's row of a level
    table, when the caller has one.
    """
    x = np.asarray(x, dtype=float)
    r, means_t, var_t, _ = _pass(gmm, x, abar, level)
    rv = r / var_t
    out = rv @ means_t
    out -= x * np.add.reduce(rv, axis=-1)[..., None]
    return out


def log_marginal_density(gmm: GaussianMixture, x: np.ndarray, abar: float) -> np.ndarray:
    """Log density of the forward-time marginal mixture (for oracles), from abar's constants."""
    x = np.asarray(x, dtype=float)
    level = _level(gmm, abar)
    half_x2 = 0.5 * np.einsum("...i,...i->...", x, x)[..., None]
    logits = (x @ (level.root * gmm.means).T - half_x2 - level.half_m2) / level.var
    logits += level.log_norm + gmm._log_weights
    return _logsumexp(logits, axis=-1) - 0.5 * gmm.d * np.log(2.0 * np.pi)


def score_fn_for(gmm: GaussianMixture, schedule: NoiseSchedule):
    """Score callable (x, t) -> grad log p_t(x) for the sampler interfaces.

    Each call reads level t's constants, a tuple in ``_Levels`` order, from a
    table of the schedule's levels, built here and kept by the callable;
    columns with one value per level are read from lists of Python floats.
    A t that is no integer in 0..T is refused.
    """
    abar, root, var, log_norm, half_m2 = (
        column.tolist() if column.ndim == 1 else column
        for column in _level_table(gmm, schedule.alpha_bars))
    top = schedule.num_steps

    def fn(x, t):
        check_level(t, top)
        return score(gmm, x, abar[t], (abar[t], root[t], var[t], log_norm[t], half_m2[t]))

    return fn


def denoiser_jacobian_vp(gmm: GaussianMixture, x: np.ndarray, abar: float,
                         u: np.ndarray) -> np.ndarray:
    """Jacobian of the posterior-mean denoiser applied to u, computed stably.

    With the components' one variance the chain rule collapses to
    sqrt(abar) * (var/v * u + (1-abar)/v^2 * Cov_r(mu) u) with Cov_r the
    responsibility-weighted covariance of the component means.  This form
    avoids the catastrophic cancellation of (u + (1-abar) H u)/sqrt(abar)
    when abar underflows toward zero.  The products are made in place, each
    rounding as in that expression.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if gmm.variance is None:
        raise ValueError("denoiser Jacobian requires isotropic components")
    if u.shape != x.shape:  # the products below are in place, at the broadcast shape
        u = np.broadcast_to(u, np.broadcast_shapes(u.shape, x.shape))
    r, _, v, root = _pass(gmm, x, abar)

    t = u @ gmm.means.T  # (..., K) inner products <mu_k, u>
    t *= r
    cov_u = t @ gmm.means  # sum_k r_k mu_k <mu_k, u>
    cov_u -= (r @ gmm.means) * np.add.reduce(t, axis=-1)[..., None]
    cov_u *= (1.0 - abar) / (v * v)
    out = u * (gmm.variance / v)
    out += cov_u
    out *= root
    return out


def denoiser_jvp_fn_for(gmm: GaussianMixture, schedule: NoiseSchedule):
    """Denoiser-Jacobian product callable (x, t, u) for guidance baselines.

    A product at the score's (x, t), as a guided run makes, reuses the
    score's pass; any other builds level t's constants afresh, the same bits
    as a table row.  A t that is no integer in 0..T is refused.
    """
    abars = schedule.alpha_bars.tolist()
    top = schedule.num_steps

    def fn(x, t, u):
        check_level(t, top)
        return denoiser_jacobian_vp(gmm, x, abars[t], u)

    return fn


def exact_posterior(gmm: GaussianMixture, A: LinearOperator, y: np.ndarray,
                    sigma: float) -> GaussianMixture:
    """Closed-form posterior of a unit-variance mixture under y = A x + noise.

    With observation noise N(0, sigma^2 I) the posterior is again a mixture.
    From ``spectral_factor(A) = (U, s, V)`` its covariance (I + A^T A / sigma^2)^{-1}
    is I - V diag(s^2 / (sigma^2 + s^2)) V^T and its means are mu_k + V diag(s /
    (sigma^2 + s^2)) U^T (y - A mu_k), with no inverse formed, so they fit y to
    within about sigma sqrt(m) down to sigma = 1e-7.  The weights are reweighted
    by the evidence N(y; A mu_k, sigma^2 I + A A^T), whitened by its Cholesky factor.
    """
    if gmm.variance != 1.0:
        raise ValueError("exact posterior requires unit-variance components")
    if A.dense is None:
        raise ValueError("exact posterior requires a dense operator")
    check_real(sigma, "sigma", positive=True)
    y = checked_y(y, A)

    mat = A.dense
    sig2 = sigma * sigma
    u, s, v = spectral_factor(mat)
    s2 = s * s
    resid = y - gmm.means @ mat.T  # (K, m)
    means = gmm.means + (resid @ (u * (s / (sig2 + s2)))) @ v.T
    root = v * (s / np.sqrt(sig2 + s2))  # cov = I - root root^T, a product numpy keeps symmetric
    cov = np.eye(gmm.d) - root @ root.T

    # Evidence of each component: y ~ N(A mu_k, sigma^2 I + A A^T).
    L = np.linalg.cholesky(sig2 * np.eye(A.m) + mat @ mat.T)
    white = np.linalg.solve(L, resid.T).T
    logw = gmm._log_weights - 0.5 * np.einsum("ki,ki->k", white, white)
    weights = np.exp(logw - logw.max())  # the largest is 1, so the sum is at least 1
    return GaussianMixture(means=means, weights=weights / weights.sum(), cov=cov)


def sample_mixture(gmm: GaussianMixture, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n vectors: categorical component choice, then a Gaussian draw.

    Full-covariance mixtures share their covariance's Cholesky factor.
    """
    check_count(n, "n")
    ks = rng.choice(gmm.K, size=n, p=gmm.weights)
    eps = rng.standard_normal((n, gmm.d))
    if gmm.variance is not None:
        return gmm.means[ks] + eps * np.sqrt(gmm.variance)
    return gmm.means[ks] + eps @ gmm._chol.T


def mixture_log_density(gmm: GaussianMixture, x: np.ndarray) -> np.ndarray:
    """Log density of the mixture itself (quadrature oracles, scatter plots)."""
    x = np.asarray(x, dtype=float)
    d = gmm.d
    if gmm.variance is not None:
        return log_marginal_density(gmm, x, 1.0)
    L = gmm._chol
    logdet = 2.0 * np.log(np.diag(L)).sum()
    diff = x[..., None, :] - gmm.means  # (..., K, d)
    white = np.linalg.solve(L, diff[..., None]).squeeze(-1)
    sq = np.einsum("...ki,...ki->...k", white, white)
    logits = gmm._log_weights - 0.5 * (sq + logdet + d * np.log(2.0 * np.pi))
    return _logsumexp(logits, axis=-1)
