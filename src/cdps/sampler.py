"""Coupled data/measurement-space posterior sampling and guidance baselines.

The coupled sampler runs a forward noising chain on the observation and, at
each reverse step, draws the next iterate from a closed-form Gaussian whose
precision is ``c_t I + A^T Sigma^{-1} A``.  Everything here is batched: pass
``n_chains`` to run many independent chains as rows of one array, sharing
the per-step operator while each row keeps its own randomness.

Each step makes one solve against that precision: the posterior right-hand
side plus a synthetic perturbation whose covariance is the precision itself,
so the solution is the mean plus a posterior draw.  The measurement term and
the perturbation's measurement part share one product with ``B^T = (W A)^T``.
When A has a dense form, the offset is a product with ``A^T`` and the solve
goes through the thin SVD of ``B``, so the step makes no operator call.  A
whole run with isotropic noise and a dense A factors ``A`` once, by a thin
SVD: every step's precision ``c_t I + A^T A / gamma_t`` is diagonal in its
basis, so a step builds no noise model, whitener, precision or report and
factors nothing.  Up to ``FUSED_STEP_MAX_D`` dimensions such a step is fused:
the precision's d x d inverse and the d x d map of the frozen score into the
right-hand side are built from ``A^T A``, which is formed once per run, for a
block of steps at a time, and the step ends in one product with that inverse.
The measurement chain is stored time-major, so the level a step reads is
contiguous.  Random draws happen in a fixed documented order (chain noise,
chain by chain as one (n, T, m) block, initial state, then per step the
perturbation's eps1 then eps2; the right-hand side consumes no randomness),
so results are reproducible per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import (
    CgReport,
    PrecisionOperator,
    diag_preconditioner,
    precision_solve,
    spectral_factor,
    spectral_solve,
)
# Looked up here by callers that patch or import the solver layers by name.
from .linalg import cg_solve, pw_cg_draw  # noqa: F401
from .metrics import batch_cosine, measurement_residual
from .operators import (
    IsotropicNoise,
    LinearOperator,
    NoiseModel,
    from_dense,
    make_whitener,
    mix_conditional_cov,
    mix_variance,
)
from .schedules import NoiseSchedule


class ChainFailureError(RuntimeError):
    """A step's CG solve failed to converge."""

    def __init__(self, t: int, rows: np.ndarray, kind: str):
        self.t = t
        self.rows = rows
        super().__init__(f"{kind} CG solve failed at step t={t} for rows {rows.tolist()}")


@dataclass
class SolverConfig:
    """Knobs for the per-step linear solves and posterior variants.

    The CG knobs apply only to operators without a dense form, which are
    solved by diagonally preconditioned CG; the others are solved exactly.
    """

    cg_tol: float = 1e-8
    cg_max_iter: int | None = None  # defaults to 10 * d inside cg_solve
    # How to reintroduce the time-(t-1) prior on x_{t-1}:
    #   "score"    Gaussian with precision 1/(1-abar_{t-1}) centered at
    #              sqrt(abar_{t-1}) * x0_hat(x_t); combined with the forward
    #              kernel this is exactly the score-based reverse kernel, so
    #              directions A cannot see follow plain ancestral dynamics
    #              (default; without any prior those directions random-walk
    #              with a 1/sqrt(1-beta) expansion that compounds
    #              catastrophically over T steps)
    #   "identity" zero-mean unit Gaussian: adds only +I to the precision
    #   "none"     drop the prior entirely (the bare two-factor posterior)
    prior_mode: str = "score"
    strict: bool = True  # raise on CG non-convergence instead of recording

    def __post_init__(self):
        if self.prior_mode not in ("score", "identity", "none"):
            raise ValueError("prior_mode must be one of 'score', 'identity', 'none'")


@dataclass(frozen=True)
class MeasurementChain:
    """Forward-noised observation levels y_0..y_T, axis -2 indexing the step."""

    y_levels: np.ndarray  # (..., T+1, m)
    schedule: NoiseSchedule

    def __post_init__(self):
        if self.y_levels.shape[-2] != self.schedule.num_steps + 1:
            raise ValueError("chain length must be T + 1")

    def y_at(self, t: int) -> np.ndarray:
        if not 0 <= t <= self.schedule.num_steps:
            raise ValueError("t out of range")
        return self.y_levels[..., t, :]


# Largest buffer, in bytes, that the chain's noise is drawn into before it is
# copied into place.
CHAIN_DRAW_BYTES = 1 << 16


def generate_measurement_chain(
    y0: np.ndarray,
    schedule: NoiseSchedule,
    rng: np.random.Generator,
    n_chains: int | None = None,
) -> MeasurementChain:
    """Noise the observation forward: y_t = sqrt(1-beta_t) y_{t-1} + sqrt(beta_t) z_t.

    With ``n_chains`` the same y0 seeds that many independent chains, one per
    row.  The levels are stored time-major, (T+1, n, m), so each step of the
    recursion and each level a sampler reads is contiguous; ``y_levels`` is
    their (n, T+1, m) view.  The noise stream is still that of one (n, T, m)
    block: each row's noise is drawn in order, a piece at a time, into one
    reused buffer of at most ``CHAIN_DRAW_BYTES`` (or one level, if larger)
    and copied into place.
    The recursion then runs in place.
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 1:
        raise ValueError("y0 must be a 1-D measurement vector")
    if not np.all(np.isfinite(y0)):
        raise ValueError("y0 must be finite")
    T = schedule.num_steps
    m = y0.size
    levels = np.empty((T + 1, m) if n_chains is None else (T + 1, n_chains, m))
    if n_chains is None:
        rng.standard_normal(out=levels[1:])
    else:
        piece = max(1, min(T, CHAIN_DRAW_BYTES // (8 * m)))
        buf = np.empty((piece, m))
        for row in range(n_chains):
            for lo in range(1, T + 1, piece):
                part = buf[:min(piece, T + 1 - lo)]
                rng.standard_normal(out=part)
                levels[lo:lo + part.shape[0], row] = part

    levels[0] = y0
    root_keep = np.sqrt(schedule.alphas)
    root_add = np.sqrt(schedule.betas)
    tmp = np.empty(levels.shape[1:])
    for t in range(1, T + 1):
        level = levels[t]
        level *= root_add[t - 1]
        level += np.multiply(root_keep[t - 1], levels[t - 1], out=tmp)
    y_levels = levels if n_chains is None else levels.transpose(1, 0, 2)
    return MeasurementChain(y_levels=y_levels, schedule=schedule)


@dataclass(frozen=True)
class _StepScalars:
    """The schedule's per-step scalars for one prior mode; entry t - 1 is step t."""

    abar_prev: list[float]
    c: list[float]  # weight of the identity in the step precision
    keep: list[float]  # sqrt(1 - beta_t) / beta_t, the transition's weight on x_t
    pull: list[float]  # score prior's weight on x_t + (1 - abar_t) s_hat; 0 without it
    tweedie: list[float]  # 1 - abar_t


def _step_scalars(schedule: NoiseSchedule, prior_mode: str) -> _StepScalars:
    beta = schedule.betas
    abar_prev = schedule.alpha_bars[:-1]
    c = (1.0 - beta) / beta
    pull = np.zeros_like(beta)
    if prior_mode == "identity":
        c = c + 1.0
    elif prior_mode == "score":
        # Prior precision of x_{t-1} around its denoised mean; at t = 1 the
        # width 1 - abar_0 degenerates to zero, so the prior is dropped for
        # that single step.
        prior = 1.0 / (1.0 - abar_prev[1:])
        c[1:] += prior
        # Prior mean contribution sqrt(abar_{t-1}) x0_hat / (1 - abar_{t-1}),
        # written with sqrt(abar_{t-1}/abar_t) = 1/sqrt(1-beta) so the
        # denoised estimate never divides by a vanishing sqrt(abar_t).
        pull[1:] = prior / np.sqrt(1.0 - beta[1:])
    return _StepScalars(
        abar_prev=abar_prev.tolist(), c=c.tolist(), keep=(np.sqrt(1.0 - beta) / beta).tolist(),
        pull=pull.tolist(), tweedie=(1.0 - schedule.alpha_bars[1:]).tolist(),
    )


@dataclass(frozen=True)
class PosteriorStepParams:
    """Everything fixed once the score is frozen at (x_t, t)."""

    t: int
    keep: float  # sqrt(1 - beta_t) / beta_t
    pull: float  # score prior's weight on x_t + tweedie * score; 0 without it
    tweedie: float  # 1 - abar_t
    b_prev: np.ndarray  # affine offset of the measurement mean
    precision: PrecisionOperator  # carries the step's whitener
    preconditioner: np.ndarray | None
    score: np.ndarray


def _build_params(
    t: int,
    A: LinearOperator,
    noise: NoiseModel,
    scalars: _StepScalars,
    b_vec: np.ndarray,
    score: np.ndarray,
) -> PosteriorStepParams:
    i = t - 1
    whitener = make_whitener(mix_conditional_cov(noise, scalars.abar_prev[i]))
    precision = PrecisionOperator(scalars.c[i], A, whitener)
    return PosteriorStepParams(
        t=t, keep=scalars.keep[i], pull=scalars.pull[i], tweedie=scalars.tweedie[i],
        b_prev=b_vec, precision=precision,
        preconditioner=None if precision.dense_t is not None else diag_preconditioner(precision),
        score=score,
    )


def _score_offset(A: LinearOperator, s_hat: np.ndarray, abar_prev: float) -> np.ndarray:
    """The measurement mean's offset b = (1 - abar_{t-1}) A s_hat, through A's dense form if any."""
    A_s = A.apply(s_hat) if A.dense is None else s_hat @ A.dense.T
    return (1.0 - abar_prev) * A_s


def _linear_params(t, s_hat, A, noise, scalars) -> PosteriorStepParams:
    """Step t's parameters around the frozen score."""
    b_vec = _score_offset(A, s_hat, scalars.abar_prev[t - 1])
    return _build_params(t, A, noise, scalars, b_vec, s_hat)


def make_step_params(
    x_t: np.ndarray,
    t: int,
    score_fn: Callable,
    A: LinearOperator,
    noise: NoiseModel,
    schedule: NoiseSchedule,
    config: SolverConfig | None = None,
) -> PosteriorStepParams:
    """Freeze the score at (x_t, t) and assemble the step's Gaussian parameters."""
    config = config or SolverConfig()
    if not 1 <= t <= schedule.num_steps:
        raise ValueError("t must be in [1, T]")
    scalars = _step_scalars(schedule, config.prior_mode)
    return _linear_params(t, np.asarray(score_fn(x_t, t), dtype=float), A, noise, scalars)


def _posterior_rhs(x_t, s_hat, white, keep, pull, tweedie, c, bt, rng):
    """Right-hand side of a coupled step's solve, with its perturbation when ``rng`` is given.

    The posterior part is keep x_t, keep = sqrt(1-beta)/beta, the score
    prior's pull (x_t + tweedie s_hat) and the measurement term
    A^T Sigma^{-1} (y_{t-1} - b), given ``white`` = W (y_{t-1} - b) and
    ``bt``, the map v -> B^T v with B = W A.  With ``rng`` it adds the
    perturbation z = sqrt(c) eps1 + B^T eps2, whose covariance is the
    precision c I + B^T B, drawing eps1 (d) before eps2 (m).  Since
    W^T W = Sigma^{-1}, the measurement term and B^T eps2 are one product,
    B^T (W (y_{t-1} - b) + eps2).
    """
    rhs = keep * x_t
    if pull:
        rhs += pull * (x_t + tweedie * s_hat)
    if rng is not None:
        batch = x_t.shape[:-1]
        rhs += np.sqrt(c) * rng.standard_normal(batch + (x_t.shape[-1],))
        white = white + rng.standard_normal(batch + (white.shape[-1],))
    rhs = rhs + bt(white)  # broadcasts a single x_t against per-row chains
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs must be finite")
    return rhs


def _step(params: PosteriorStepParams, x_t, y_prev, rng, config: SolverConfig, kind: str):
    """The one solve of a coupled step: the posterior mean, or mean plus draw with ``rng``.

    The right-hand side is ``_posterior_rhs``'s; its merged product goes
    through the dense B^T when A has a dense form, one adjoint otherwise.
    Returns the solution, the solve's report and the rows whose CG solve
    did not converge, which raise under ``config.strict``.
    """
    precision = params.precision
    bt = precision.dense_t
    rhs = _posterior_rhs(
        x_t, params.score, precision.whitener(y_prev - params.b_prev),
        params.keep, params.pull, params.tweedie, precision.c,
        precision.bt if bt is None else (lambda u: u @ bt.T), rng,
    )
    x_next, report = precision_solve(
        precision, rhs, preconditioner=params.preconditioner,
        tol=config.cg_tol, max_iter=config.cg_max_iter,
    )
    rows = np.nonzero(~np.atleast_1d(report.row_converged))[0]
    if rows.size and config.strict:
        raise ChainFailureError(params.t, rows, kind)
    return x_next, report, rows


def posterior_mean(
    params: PosteriorStepParams,
    x_t: np.ndarray,
    y_prev: np.ndarray,
    config: SolverConfig | None = None,
) -> tuple[np.ndarray, CgReport]:
    """Solve the step precision against the posterior right-hand side.

    The transition kernel contributes sqrt(1-beta)/beta * x_t, the
    measurement contributes A^T Sigma^{-1} (y_{t-1} - b), and in "score"
    prior mode the marginal prior pulls toward its denoised mean.  This is
    the coupled step without its perturbation, so a CG solve that does not
    converge raises under ``config.strict``.
    """
    config = config or SolverConfig()
    return _step(params, x_t, y_prev, None, config, "mean")[:2]


def cdps_step(
    x_t: np.ndarray,
    chain: MeasurementChain,
    t: int,
    score_fn: Callable,
    A: LinearOperator,
    noise: NoiseModel,
    schedule: NoiseSchedule,
    rng: np.random.Generator,
    config: SolverConfig | None = None,
) -> np.ndarray:
    """One coupled reverse step: x_{t-1} = mu_post + v.

    The score is frozen at the current iterate, the conditional covariance
    and affine offset use the cumulative product at t-1, and the mean and
    the covariance draw come from one solve against the step precision.
    """
    config = config or SolverConfig()
    x_t = np.asarray(x_t, dtype=float)
    if not np.all(np.isfinite(x_t)):
        raise ValueError("x_t must be finite")
    params = make_step_params(x_t, t, score_fn, A, noise, schedule, config)
    return _step(params, x_t, chain.y_at(t - 1), rng, config, "step")[0]


@dataclass
class SamplerTrace:
    """Optional per-step records; arrays are indexed by the time level t."""

    failed_rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    residual_sq: np.ndarray | None = None  # (T+1, ...) misfit of x_t, t = 0..T
    cg_iters: np.ndarray | None = None  # (T+1,), entry t = step producing x_{t-1}; 0 if exact
    score_cos: np.ndarray | None = None  # (T+1, ...), entry t pairs levels t and t-1
    score_mse: np.ndarray | None = None


def _pair_scores(trace: SamplerTrace, t: int, s_prev: np.ndarray, s_cur: np.ndarray) -> None:
    """Entry t of the score diagnostics: level t - 1's frozen score against level t's."""
    diff = s_prev - s_cur
    trace.score_mse[t] = np.einsum("...i,...i->...", diff, diff) / diff.shape[-1]
    trace.score_cos[t] = batch_cosine(s_prev, s_cur)


def _rebuilt_steps(A, noise, scalars, rng, config):
    """Steps that build each precision afresh: any noise model, and CG without a dense A."""
    def step(x, t, s_hat, y_prev):
        params = _linear_params(t, s_hat, A, noise, scalars)
        x_next, report, rows = _step(params, x, y_prev, rng, config, "sample")
        return x_next, report.iterations, rows
    return step


# Largest d whose spectral steps are fused into one d x d product.  The fused
# step makes fewer, larger calls: its products cost O(n d^2) and its matrix
# O(d^2 min(m, d)), against the factored step's O(n d min(m, d)).  With 100
# chains and m = 4 it was 3% faster than the factored step at d = 64, 5%
# slower at d = 80 and 4.5 times slower at d = 800.
FUSED_STEP_MAX_D = 64
# Bytes of the per-step matrices (S_t, the score map and w_t A) that the fused
# step builds for a block of steps at once.
STEP_BLOCK_BYTES = 1 << 16


def _spectral_steps(A, noise: IsotropicNoise, scalars, rng):
    """Steps under isotropic noise from one thin SVD of the dense A.

    The conditional covariance gamma_t I, gamma_t = abar_{t-1} sigma^2 +
    1 - abar_{t-1}, whitens by the scalar w_t = gamma_t^{-1/2}, so each
    precision c_t I + w_t^2 A^T A is diagonal in the basis V: its inverse is
    S_t = V diag(1 / (c_t + w_t^2 s^2)) V^T, plus (I - V V^T) / c_t on A's
    null space when m < d.

    Up to ``FUSED_STEP_MAX_D`` the step is fused.  With the offset
    b = (1 - abar_{t-1}) A s_hat expanded, the general step's right-hand
    side is (keep + pull) x_t + s_hat (pull tweedie I - w_t^2 (1 - abar_{t-1}) A^T A)
    + sqrt(c_t) eps1 + (eps2 + w_t y_{t-1}) w_t A, and x_{t-1} = rhs S_t.
    A^T A, I - V V^T and I are built once per run; S_t, the score map and
    w_t A are built by batched products for a block of steps at once, within
    ``STEP_BLOCK_BYTES``, each entry rounding as it would one step at a time.
    Each step draws eps1 (n, d) and eps2 (n, m) as one call of n (d + m)
    normals, the same stream as two calls.  Above ``FUSED_STEP_MAX_D`` the
    right-hand side is ``_posterior_rhs``'s and ``spectral_solve`` applies
    S_t in factored form.
    """
    mat = A.dense
    v, s2 = spectral_factor(mat)
    scale = [mix_variance(noise.sigma2, a) ** -0.5 for a in scalars.abar_prev]
    no_rows = np.empty(0, dtype=int)

    if A.d > FUSED_STEP_MAX_D:
        def factored_step(x, t, s_hat, y_prev):
            i = t - 1
            w = scale[i]
            b = _score_offset(A, s_hat, scalars.abar_prev[i])
            bw = w * mat  # B = W A
            rhs = _posterior_rhs(x, s_hat, (y_prev - b) * w, scalars.keep[i], scalars.pull[i],
                                 scalars.tweedie[i], scalars.c[i], lambda u: u @ bw, rng)
            return spectral_solve(v, s2, scalars.c[i], w * w, rhs), 0, no_rows
        return factored_step

    d, m = A.d, A.m
    gram = mat.T @ mat
    eye = np.eye(d)
    null = eye - v @ v.T if v.shape[1] < d else None
    root_c = [math.sqrt(c) for c in scalars.c]
    keep_pull = [keep + pull for keep, pull in zip(scalars.keep, scalars.pull)]
    # Per-step factors as columns that broadcast against a block's matrices.
    w_col, c_col, pull, tweedie, abar_prev = (
        np.array(a)[:, None, None]
        for a in (scale, scalars.c, scalars.pull, scalars.tweedie, scalars.abar_prev))
    pull_tweedie = pull * tweedie
    measure = (w_col * w_col) * (1.0 - abar_prev)
    size = max(1, STEP_BLOCK_BYTES // (8 * d * (2 * d + m)))
    lo, solves, drifts, wmats = 0, (), (), ()  # the block of steps lo + 1..lo + len(solves)

    def build(hi):
        """S_t, the score map and w_t A of steps lo + 1..hi."""
        w, c = w_col[lo:hi], c_col[lo:hi]
        solve = (v / (c + (w * w) * s2)) @ v.T
        if null is not None:
            solve += null / c
        return solve, pull_tweedie[lo:hi] * eye - measure[lo:hi] * gram, w * mat

    def fused_step(x, t, s_hat, y_prev):
        nonlocal lo, solves, drifts, wmats
        i = t - 1
        if not lo <= i < lo + len(solves):
            solves = drifts = wmats = ()  # freed before the next block is built
            lo = max(0, t - size)
            solves, drifts, wmats = build(t)
        j = i - lo
        eps = rng.standard_normal(x.size // d * (d + m))
        eps1 = eps[:x.size].reshape(x.shape)
        eps2 = eps[x.size:].reshape(x.shape[:-1] + (m,))
        eps2 += scale[i] * y_prev
        rhs = eps2 @ wmats[j]
        rhs += s_hat @ drifts[j]
        rhs += keep_pull[i] * x
        eps1 *= root_c[i]
        rhs += eps1
        # A sum over finite entries is finite unless it overflows.
        if not np.isfinite(rhs.sum()) and not np.all(np.isfinite(rhs)):
            raise ValueError("rhs must be finite")
        return rhs @ solves[j], 0, no_rows
    return fused_step


def cdps_sample(
    y: np.ndarray,
    A: LinearOperator,
    noise: NoiseModel,
    schedule: NoiseSchedule,
    score_fn: Callable,
    rng: np.random.Generator,
    n_chains: int | None = None,
    config: SolverConfig | None = None,
    shared_chain: bool = False,
    record_residuals: bool = False,
    record_scores: bool = False,
) -> tuple[np.ndarray, SamplerTrace]:
    """Run the full coupled sampler from pure noise down to x_0.

    Generates the measurement chain once (per row unless ``shared_chain``),
    initializes x_T standard normal, and applies the coupled step T times.
    Rows whose CG solve fails are recorded in the trace (or raise when
    ``config.strict``); exact solves never fail a row.  Isotropic noise with
    a dense A takes the per-run spectral factor; every other input rebuilds
    the step's precision at each step.
    """
    config = config or SolverConfig()
    T = schedule.num_steps
    chain = generate_measurement_chain(
        y, schedule, rng, n_chains=None if shared_chain else n_chains
    )
    shape = (A.d,) if n_chains is None else (n_chains, A.d)
    x = rng.standard_normal(shape)

    trace = SamplerTrace()
    batch = () if n_chains is None else (n_chains,)
    if record_residuals:
        trace.residual_sq = np.zeros((T + 1,) + batch)
        trace.cg_iters = np.zeros(T + 1, dtype=int)
        trace.residual_sq[T] = measurement_residual(x, y, A)
    if record_scores:
        trace.score_cos = np.full((T + 1,) + batch, np.nan)
        trace.score_mse = np.full((T + 1,) + batch, np.nan)

    failed = np.zeros(batch if batch else (1,), dtype=bool)
    scalars = _step_scalars(schedule, config.prior_mode)
    if isinstance(noise, IsotropicNoise) and A.dense is not None:
        step = _spectral_steps(A, noise, scalars, rng)
    else:
        step = _rebuilt_steps(A, noise, scalars, rng, config)
    y_at = np.moveaxis(chain.y_levels, -2, 0)  # (T+1, ...) view of the levels
    s_cur = None  # the frozen score of level t + 1
    for t in range(T, 0, -1):
        s_hat = np.asarray(score_fn(x, t), dtype=float)
        if record_scores and t < T:
            _pair_scores(trace, t + 1, s_hat, s_cur)
        s_cur = s_hat
        x_new, iterations, rows = step(x, t, s_hat, y_at[t - 1])
        if rows.size:
            failed[rows] = True
        if record_residuals:
            trace.residual_sq[t - 1] = measurement_residual(x_new, y, A)
            trace.cg_iters[t] = iterations
        x = x_new

    if record_scores:
        _pair_scores(trace, 1, np.asarray(score_fn(x, 0), dtype=float), s_cur)

    trace.failed_rows = np.nonzero(failed)[0]
    return x, trace


# ---------------------------------------------------------------------------
# Ancestral baseline samplers


def _ancestral_step(x_t, t, s_hat, schedule, z):
    """Plain reverse diffusion step; returns the new state and the denoised estimate."""
    beta = schedule.betas[t - 1]
    alpha = schedule.alphas[t - 1]
    abar = schedule.alpha_bars[t]
    abar_prev = schedule.alpha_bars[t - 1]
    x0_hat = (x_t + (1.0 - abar) * s_hat) / np.sqrt(abar)
    mu = (np.sqrt(alpha) * (1.0 - abar_prev) * x_t + np.sqrt(abar_prev) * beta * x0_hat) / (1.0 - abar)
    sigma = np.sqrt(beta * (1.0 - abar_prev) / (1.0 - abar))
    return mu + sigma * z, x0_hat


def dps_sample(
    y: np.ndarray,
    A: LinearOperator,
    schedule: NoiseSchedule,
    score_fn: Callable,
    denoiser_jvp_fn: Callable,
    rng: np.random.Generator,
    n_chains: int | None = None,
    zeta: float = 1.0,
    record_residuals: bool = False,
) -> tuple[np.ndarray, SamplerTrace]:
    """Likelihood-guidance baseline on the denoised estimate.

    Each reverse step is unconditional ancestral sampling followed by a
    correction along the measurement-misfit gradient at the denoised
    estimate, with step size zeta / ||y - A x0_hat|| (zero misfit means zero
    guidance).  ``denoiser_jvp_fn(x, t, u)`` must return the Jacobian of the
    posterior-mean denoiser applied to u.  Each step calls it at the same
    ``(x, t)`` as ``score_fn``, and the ``gmm`` closures built on one mixture
    share one responsibilities pass there.
    """
    y = np.asarray(y, dtype=float)
    T = schedule.num_steps
    shape = (A.d,) if n_chains is None else (n_chains, A.d)
    x = rng.standard_normal(shape)

    trace = SamplerTrace()
    batch = () if n_chains is None else (n_chains,)
    if record_residuals:
        trace.residual_sq = np.zeros((T + 1,) + batch)
        trace.residual_sq[T] = measurement_residual(x, y, A)

    for t in range(T, 0, -1):
        s_hat = np.asarray(score_fn(x, t), dtype=float)
        z = rng.standard_normal(shape)
        x_unc, x0_hat = _ancestral_step(x, t, s_hat, schedule, z)

        resid = y - A.apply(x0_hat)
        norm = np.sqrt(np.einsum("...i,...i->...", resid, resid))
        jw = denoiser_jvp_fn(x, t, A.adjoint(resid))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(norm > 0, zeta / np.where(norm == 0, 1.0, norm), 0.0)
        x = x_unc + step[..., None] * jw

        if record_residuals:
            trace.residual_sq[t - 1] = measurement_residual(x, y, A)
    return x, trace


def _pinv(mat: np.ndarray, cutoff: float = 1e-10) -> np.ndarray:
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    inv = np.where(s > cutoff, 1.0 / np.where(s == 0, 1.0, s), 0.0)
    return (vt.T * inv) @ u.T


def _noisy_target_sample(kind, y, A, schedule, score_fn, rng, n_chains, scale, record_residuals):
    """Shared driver for the noisy-target guidance baselines."""
    if kind == "ilvr" and A.dense is None:
        raise ValueError("ilvr needs an operator with a dense form (A.dense)")
    y = np.asarray(y, dtype=float)
    T = schedule.num_steps
    shape = (A.d,) if n_chains is None else (n_chains, A.d)
    x = rng.standard_normal(shape)
    pinv = _pinv(A.dense) if kind == "ilvr" else None

    trace = SamplerTrace()
    batch = () if n_chains is None else (n_chains,)
    if record_residuals:
        trace.residual_sq = np.zeros((T + 1,) + batch)
        trace.residual_sq[T] = measurement_residual(x, y, A)

    for t in range(T, 0, -1):
        abar = schedule.alpha_bars[t]
        s_hat = np.asarray(score_fn(x, t), dtype=float)
        z = rng.standard_normal(shape)
        x_unc, _ = _ancestral_step(x, t, s_hat, schedule, z)

        # Noisy target matched to the forward marginal at level t.
        eps_shape = (A.m,) if n_chains is None else (n_chains, A.m)
        eps = rng.standard_normal(eps_shape)
        target = np.sqrt(abar) * y + np.sqrt(1.0 - abar) * eps
        resid = target - A.apply(x)
        grad = -(resid @ pinv.T) if kind == "ilvr" else -A.adjoint(resid)
        x = x_unc - scale * grad

        if record_residuals:
            trace.residual_sq[t - 1] = measurement_residual(x, y, A)
    return x, trace


def score_sde_sample(y, A, schedule, score_fn, rng, n_chains=None, scale=1.0,
                     record_residuals=False):
    """Adjoint-guidance baseline pushing toward a rescaled noisy observation."""
    return _noisy_target_sample("score_sde", y, A, schedule, score_fn, rng,
                                n_chains, scale, record_residuals)


def ilvr_sample(y, A, schedule, score_fn, rng, n_chains=None, scale=1.0,
                record_residuals=False):
    """Pseudo-inverse-guidance baseline pushing toward a rescaled noisy observation.

    The pseudo-inverse is taken of ``A.dense``, so ``A`` must have a dense form.
    """
    return _noisy_target_sample("ilvr", y, A, schedule, score_fn, rng,
                                n_chains, scale, record_residuals)


# ---------------------------------------------------------------------------
# Locally linearized steps for differentiable nonlinear measurements


@dataclass(frozen=True)
class NonlinearMap:
    """Differentiable forward map with optional exact derivative products.

    ``apply`` must accept batches on the last axis.  When neither ``jvp``
    (u -> J(x) u) nor ``vjp`` (v -> J(x)^T v) is given, the Jacobian is
    probed by central finite differences with ``fd_step`` (lower accuracy).
    """

    m: int
    d: int
    apply: Callable[[np.ndarray], np.ndarray]
    jvp: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    vjp: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    fd_step: float = 1e-6


def linearize(g: NonlinearMap, x: np.ndarray) -> LinearOperator:
    """Materialize the Jacobian of g at x as a dense operator."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("linearization point must be a single vector")
    if g.vjp is not None:
        jac = np.asarray(g.vjp(x, np.eye(g.m)), dtype=float)
    elif g.jvp is not None:
        jac = np.asarray(g.jvp(x, np.eye(g.d)), dtype=float).T
    else:
        h = g.fd_step
        probes = np.eye(g.d)
        jac = ((g.apply(x + h * probes) - g.apply(x - h * probes)) / (2.0 * h)).T
    if jac.shape != (g.m, g.d):
        raise ValueError("Jacobian probe produced a wrong shape")
    return from_dense(jac)


def cdps_step_nonlinear(
    x_t: np.ndarray,
    chain: MeasurementChain,
    t: int,
    score_fn: Callable,
    g: NonlinearMap,
    noise: NoiseModel,
    schedule: NoiseSchedule,
    rng: np.random.Generator,
    config: SolverConfig | None = None,
) -> np.ndarray:
    """Coupled step for y = g(x) + noise via local linearization at x_t.

    Runs the exact same Gaussian step as the linear case with the Jacobian
    in place of the operator and the affine offset
    g(x_t) - J x_t + (1 - abar_prev) J s_hat; for an affine map it
    reproduces the linear step exactly (same draws, same arithmetic).
    """
    config = config or SolverConfig()
    x_t = np.asarray(x_t, dtype=float)
    if x_t.ndim != 1:
        raise ValueError("nonlinear steps operate on a single chain")
    if not 1 <= t <= schedule.num_steps:
        raise ValueError("t must be in [1, T]")

    A_lin = linearize(g, x_t)
    scalars = _step_scalars(schedule, config.prior_mode)
    s_hat = np.asarray(score_fn(x_t, t), dtype=float)
    offset = np.asarray(g.apply(x_t), dtype=float) - A_lin.apply(x_t)
    b_vec = offset + (1.0 - scalars.abar_prev[t - 1]) * A_lin.apply(s_hat)
    params = _build_params(t, A_lin, noise, scalars, b_vec, score=s_hat)
    return _step(params, x_t, chain.y_at(t - 1), rng, config, "nonlinear step")[0]
