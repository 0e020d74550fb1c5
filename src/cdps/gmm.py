"""Gaussian-mixture prior with analytic time-marginal score and exact posterior.

The benchmark prior is a 25-component grid mixture whose unit component
variance makes every forward-time marginal again a unit-variance mixture,
so the score is available in closed form at all noise levels.  For a linear
Gaussian measurement the posterior is itself a mixture of Gaussians and is
computed exactly, providing the ground truth the samplers are scored
against.

A score and a Jacobian product at the same ``(x, abar)`` -- DPS makes both
every step -- share one responsibilities pass: each mixture keeps its last
pass, keyed on ``abar`` and an exact copy of ``x``.  A mixture and its arrays
are therefore not to be changed in place once built.

The pass is trimmed without moving a bit, because DPS amplifies the score's
rounding: a mixture takes the log of its weights once, when it is built, and
carries its variances and its log weights as one scalar each when they are
exactly equal (the grid prior's are), so the time-marginal variance is a
scalar too; and the logits' factors -2 and -1/2, both powers of two, are
folded into the expression instead of applied in passes of their own.

The sampler closures (``score_fn_for``, ``denoiser_jvp_fn_for``) read the
constants of each level t = 0..T from a table each builds once:
sqrt(abar_t), the marginal variance, 0.5 ||sqrt(abar_t) mu_k||^2 and -d/2
log of the variance.  The table is built by the same elementwise operations
and the same per-component einsum as one level at a time, so a pass reads
the same bits it would compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .operators import LinearOperator
from .schedules import NoiseSchedule

_WSUM_TOL = 1e-12
# Largest temporary, in bytes, of the (levels, K, d) marginal means a level
# table is built from.
_LEVEL_BLOCK_BYTES = 1 << 18


def _logsumexp(a: np.ndarray, axis=None) -> np.ndarray:
    """log(sum(exp(a))) over ``axis`` for real input, by the algorithm of
    ``scipy.special.logsumexp`` and bit for bit equal to it.

    The largest entry is factored out and its ties counted, so the sum of
    the rest enters through log1p:
    ``log1p(sum(exp(a_rest - a_max)) / m) + log(m) + a_max`` with ``m`` the
    number of ties.  Where that is not finite (all entries -inf, or an inf
    among them) the plain ``log(sum(exp(a)))`` is used.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        is_max = a == a_max
        m = np.sum(is_max, axis=axis, keepdims=True, dtype=float)
        rest = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=axis, keepdims=True)
        out = np.log1p(rest / m) + np.log(m) + a_max
        out = np.where(np.isfinite(out), out, np.log(np.sum(np.exp(a), axis=axis, keepdims=True)))
    return np.squeeze(out, axis=axis)[()]


def _scalar_if_equal(a: np.ndarray):
    """``a[0]`` when every entry of ``a`` equals it exactly, else ``a``.

    A scalar broadcasts to the same values as the array, so arithmetic with
    it rounds the same, and it spares the per-component work.
    """
    return a[0] if np.all(a == a[0]) else a


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture with either per-component isotropic variances or one shared
    full covariance (the form the exact posterior takes)."""

    means: np.ndarray  # (K, d)
    weights: np.ndarray  # (K,)
    variances: np.ndarray | None = None  # (K,) isotropic component variances
    cov: np.ndarray | None = None  # (d, d) shared SPD covariance

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if means.ndim != 2:
            raise ValueError("means must be (K, d)")
        K, d = means.shape
        if weights.shape != (K,):
            raise ValueError("weights must be (K,)")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > _WSUM_TOL:
            raise ValueError("weights must be nonnegative and sum to 1")
        if (self.variances is None) == (self.cov is None):
            raise ValueError("exactly one of variances/cov must be given")
        equal_var = False
        if self.variances is not None:
            var = np.asarray(self.variances, dtype=float)
            if var.shape != (K,):
                raise ValueError("variances must be (K,)")
            if np.any(var <= 0):
                raise ValueError("variances must be positive")
            object.__setattr__(self, "variances", var)
            equal_var = bool(np.allclose(var, var[0], rtol=1e-12, atol=0))
            object.__setattr__(self, "_var", _scalar_if_equal(var))
        else:
            cov = np.asarray(self.cov, dtype=float)
            if cov.shape != (d, d):
                raise ValueError("cov must be (d, d)")
            # Raises LinAlgError if not SPD.
            np.linalg.cholesky(cov)
            object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_equal_var", equal_var)
        # Posterior weights can underflow to exactly 0, whose log is -inf.
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "_log_weights", _scalar_if_equal(np.log(weights)))
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
    if d < 2 or d % 2 != 0:
        raise ValueError("d must be a positive even integer")
    grid = np.arange(-2, 3, dtype=float)
    pairs = [(8.0 * i, 8.0 * j) for i in grid for j in grid]
    means = np.array([pair * (d // 2) for pair in pairs])
    K = len(pairs)
    return GaussianMixture(
        means=means,
        weights=np.full(K, 1.0 / K),
        variances=np.ones(K),
    )


class _Levels(NamedTuple):
    """Constants of the forward-time marginal mixture: a table with one row
    per level, or, as ``at`` returns them, one level's."""

    abar: np.ndarray
    root: np.ndarray  # sqrt(abar): the marginal means are root * means
    var: np.ndarray  # the components' marginal variances, a scalar when they are equal
    log_norm: np.ndarray  # -d/2 log(var)
    half_m2: np.ndarray  # (K,) 0.5 ||root * mu_k||^2

    def at(self, t: int) -> _Levels:
        if not 0 <= t < self.abar.size:
            raise ValueError(f"t must be in [0, {self.abar.size - 1}], got {t}")
        return _Levels(self.abar[t], self.root[t], self.var[t], self.log_norm[t], self.half_m2[t])


def _level_table(gmm: GaussianMixture, abars: np.ndarray) -> _Levels:
    """Marginal constants at each of ``abars``, equal bit for bit to one level's at a time.

    Every entry comes from the elementwise operations a single level makes,
    and the squared mean norms from the same einsum over the component axis,
    taken in blocks of levels to bound the (levels, K, d) temporary.
    """
    if not np.all((abars > 0.0) & (abars <= 1.0)):
        raise ValueError("abar must lie in (0, 1]")
    if gmm.variances is None:
        raise ValueError("time-marginal score requires isotropic components")
    root = np.sqrt(abars)
    a = abars.reshape(abars.shape + (1,) * np.ndim(gmm._var))
    var = a * gmm._var + (1.0 - a)
    half_m2 = np.empty((abars.size, gmm.K))
    block = max(1, _LEVEL_BLOCK_BYTES // gmm.means.nbytes)
    for lo in range(0, abars.size, block):
        means_t = root[lo:lo + block, None, None] * gmm.means
        np.einsum("tki,tki->tk", means_t, means_t, out=half_m2[lo:lo + block])
    half_m2 *= 0.5
    return _Levels(abars, root, var, (-0.5 * gmm.d) * np.log(var), half_m2)


def _level(gmm: GaussianMixture, abar: float) -> _Levels:
    """One level's constants, by the table's arithmetic."""
    return _level_table(gmm, np.array([abar], dtype=float)).at(0)


def _responsibilities(gmm: GaussianMixture, x: np.ndarray, means_t, level: _Levels):
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
    logits -= level.half_m2
    logits /= level.var
    logits += level.log_norm
    logits += gmm._log_weights
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits  # (..., K)


def _pass(gmm: GaussianMixture, x: np.ndarray, abar: float, level: _Levels | None = None):
    """Responsibilities, marginal means and variances and sqrt(abar) at (x, abar).

    The last pass is reused.  Its key is exact: the same abar (compared
    first, so a new time step misses cheaply), then the same shape and
    values of x, checked against a copy so that changing x in place
    recomputes.  The cached r is read-only.  ``level`` holds abar's
    constants when the caller has them tabulated.  With equal variances the
    cache holds no view of a level table, so a mixture that outlives a table
    (the benchmark keeps each task's prior for a whole run) does not keep it
    alive.
    """
    last = gmm._last_pass
    if last is not None and last[0] == abar and np.array_equal(last[1], x):
        return last[2:]
    if level is None:
        level = _level(gmm, abar)
    means_t = level.root * gmm.means  # (K, d)
    r = _responsibilities(gmm, x, means_t, level)
    r.setflags(write=False)
    out = (r, means_t, level.var, level.root)
    object.__setattr__(gmm, "_last_pass", (abar, x.copy(), *out))
    return out


def score(gmm: GaussianMixture, x: np.ndarray, abar: float, level: _Levels | None = None
          ) -> np.ndarray:
    """Gradient of the log time-marginal density at x.

    Equals the responsibility-weighted sum of per-component Gaussian scores
    (sqrt(abar) * mu_k - x) / var_k.  Accepts a single vector or a batch
    with the coordinate axis last.  ``level`` is abar's row of a level
    table, when the caller has one.
    """
    x = np.asarray(x, dtype=float)
    r, means_t, var_t, _ = _pass(gmm, x, abar, level)
    rv = r / var_t
    return rv @ means_t - x * rv.sum(axis=-1)[..., None]


def log_marginal_density(gmm: GaussianMixture, x: np.ndarray, abar: float) -> np.ndarray:
    """Log density of the forward-time marginal mixture (for oracles)."""
    x = np.asarray(x, dtype=float)
    level = _level(gmm, abar)
    means_t, var_t = level.root * gmm.means, level.var
    d = gmm.d
    x2 = np.einsum("...i,...i->...", x, x)[..., None]
    cross = x @ means_t.T
    m2 = np.einsum("ki,ki->k", means_t, means_t)
    sq = x2 - 2.0 * cross + m2
    logits = gmm._log_weights - 0.5 * (sq / var_t + d * np.log(2.0 * np.pi * var_t))
    return _logsumexp(logits, axis=-1)


def score_jacobian_vp(gmm: GaussianMixture, x: np.ndarray, abar: float, u: np.ndarray) -> np.ndarray:
    """Product of the score Jacobian (log-density Hessian) with u.

    H u = -sum_k r_k / v_k * u + sum_k r_k g_k <g_k, u> - s <s, u>
    with g_k the per-component score; evaluated without (n, K, d) temporaries.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    r, means_t, var_t, _ = _pass(gmm, x, abar)
    rv = r / var_t

    s = rv @ means_t - x * rv.sum(axis=-1)[..., None]
    # <g_k, u> = (m_k . u - x . u) / v_k, shape (..., K)
    gu = (u @ means_t.T - np.einsum("...i,...i->...", x, u)[..., None]) / var_t
    t = r * gu
    term = t @ means_t - x * t.sum(axis=-1)[..., None]
    su = np.einsum("...i,...i->...", s, u)[..., None]
    return -rv.sum(axis=-1)[..., None] * u + term - s * su


def score_fn_for(gmm: GaussianMixture, schedule: NoiseSchedule):
    """Score callable (x, t) -> grad log p_t(x) for the sampler interfaces.

    Each call reads level t's constants from a table of the schedule's
    levels, built here and kept by the callable.
    """
    levels = _level_table(gmm, schedule.alpha_bars)

    def fn(x, t):
        level = levels.at(t)
        return score(gmm, x, level.abar, level)

    return fn


def denoiser_jacobian_vp(gmm: GaussianMixture, x: np.ndarray, abar: float, u: np.ndarray,
                         level: _Levels | None = None) -> np.ndarray:
    """Jacobian of the posterior-mean denoiser applied to u, computed stably.

    For equal component variances the chain rule collapses to
    sqrt(abar) * (var/v * u + (1-abar)/v^2 * Cov_r(mu) u) with Cov_r the
    responsibility-weighted covariance of the component means.  This form
    avoids the catastrophic cancellation of (u + (1-abar) H u)/sqrt(abar)
    when abar underflows toward zero.  ``level`` is as for ``score``.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if gmm.variances is None:
        raise ValueError("denoiser Jacobian requires isotropic components")
    if not gmm._equal_var:
        raise ValueError("denoiser Jacobian requires equal component variances")
    r, _, var_t, root = _pass(gmm, x, abar, level)
    v = float(np.ravel(var_t)[0])

    mu_u = u @ gmm.means.T  # (..., K) inner products <mu_k, u>
    t = r * mu_u
    first = t @ gmm.means  # sum_k r_k mu_k <mu_k, u>
    mean_mu = r @ gmm.means
    mean_dot = t.sum(axis=-1)[..., None]
    cov_u = first - mean_mu * mean_dot
    return root * ((gmm.variances[0] / v) * u + ((1.0 - abar) / (v * v)) * cov_u)


def denoiser_jvp_fn_for(gmm: GaussianMixture, schedule: NoiseSchedule):
    """Denoiser-Jacobian product callable (x, t, u) for guidance baselines.

    It reads a level table of its own, as ``score_fn_for``'s callable does;
    the two read the same constants, so a Jacobian product at the score's
    (x, t) reuses the score's pass.
    """
    levels = _level_table(gmm, schedule.alpha_bars)

    def fn(x, t, u):
        level = levels.at(t)
        return denoiser_jacobian_vp(gmm, x, level.abar, u, level)

    return fn


def exact_posterior(gmm: GaussianMixture, A: LinearOperator, y: np.ndarray,
                    sigma: float) -> GaussianMixture:
    """Closed-form posterior of a unit-variance mixture under y = A x + noise.

    With observation noise N(0, sigma^2 I) the posterior is again a mixture:
    shared covariance (I + A^T A / sigma^2)^{-1}, component means
    cov @ (A^T y / sigma^2 + mu_k), and weights reweighted by the marginal
    evidence N(y; A mu_k, sigma^2 I + A A^T).
    """
    if gmm.variances is None or not np.allclose(gmm.variances, 1.0, rtol=0, atol=1e-12):
        raise ValueError("exact posterior requires unit-variance components")
    if A.dense is None:
        raise ValueError("exact posterior requires a dense operator")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    y = np.asarray(y, dtype=float)
    if y.shape != (A.m,):
        raise ValueError(f"y must have shape ({A.m},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")

    mat = A.dense
    d = gmm.d
    sig2 = sigma * sigma
    cov = np.linalg.inv(np.eye(d) + mat.T @ mat / sig2)
    cov = 0.5 * (cov + cov.T)
    means = (gmm.means + (mat.T @ y) / sig2) @ cov.T

    # Evidence of each component: y ~ N(A mu_k, sigma^2 I + A A^T).
    ev_cov = sig2 * np.eye(A.m) + mat @ mat.T
    L = np.linalg.cholesky(ev_cov)
    resid = y - gmm.means @ mat.T  # (K, m)
    white = np.linalg.solve(L, resid.T).T
    logw = gmm._log_weights - 0.5 * np.einsum("ki,ki->k", white, white)
    logw -= _logsumexp(logw)
    return GaussianMixture(means=means, weights=np.exp(logw), cov=cov)


def sample_mixture(gmm: GaussianMixture, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n vectors: categorical component choice, then a Gaussian draw.

    Full-covariance mixtures share one Cholesky factor across components.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ks = rng.choice(gmm.K, size=n, p=gmm.weights)
    eps = rng.standard_normal((n, gmm.d))
    if gmm.variances is not None:
        return gmm.means[ks] + eps * np.sqrt(gmm.variances)[ks, None]
    L = np.linalg.cholesky(gmm.cov)
    return gmm.means[ks] + eps @ L.T


def mixture_log_density(gmm: GaussianMixture, x: np.ndarray) -> np.ndarray:
    """Log density of the mixture itself (quadrature oracles, scatter plots)."""
    x = np.asarray(x, dtype=float)
    d = gmm.d
    if gmm.variances is not None:
        return log_marginal_density(gmm, x, 1.0)
    L = np.linalg.cholesky(gmm.cov)
    logdet = 2.0 * np.log(np.diag(L)).sum()
    diff = x[..., None, :] - gmm.means  # (..., K, d)
    white = np.linalg.solve(L, diff[..., None]).squeeze(-1)
    sq = np.einsum("...ki,...ki->...k", white, white)
    logits = gmm._log_weights - 0.5 * (sq + logdet + d * np.log(2.0 * np.pi))
    return _logsumexp(logits, axis=-1)
