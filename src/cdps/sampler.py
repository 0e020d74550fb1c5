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
is exact, through the thin SVD of ``B``, so the step makes no operator call;
without one, it is diagonally preconditioned CG at ``cg_solve``'s settings.
A run records a row whose CG solve did not converge, or raises under
``SolverConfig.strict``; a single step keeps no trace, so it raises.  A
whole run with isotropic noise and a dense A factors ``A`` once, by a thin
SVD: every step's precision ``c_t I + A^T A / gamma_t`` is diagonal in its
basis, so a step builds no noise model, whitener, precision or report and
factors nothing.  When d and m are both at most ``FUSED_STEP_MAX_D`` such a
step is fused: ``spectral_solve``'s inverse, applied as a d x d matrix, and
the d x d map of the frozen score into the right-hand side, from ``A^T A``
formed once per run, are built for ``STEP_BLOCK`` steps at a time, and the
step ends in one product with that inverse.  The first block is the step
asked for alone, so a single step builds only its own matrices and a run
builds each step's once.  One function, ``_steps``, picks the step for
``cdps_sample``, ``cdps_step`` and ``cdps_step_nonlinear``, so a single step
is the run's step bit for bit.
The measurement chain is stored time-major, so the level a step reads is
contiguous.

Every sampler checks y and ``n_chains``, builds its step and makes one call
to the reverse-time loop, ``_reverse_run``, from x_T; C-DPS, DPS, Score-SDE
and ILVR differ only in the step it applies.  A step (x, t, s_hat, eps)
returns (x_{t-1}, iterations, failed rows); the loop keeps the last two in
its ``SamplerTrace`` and scores each x_t once, so a score callable such as
``metrics.IterateTrace`` observes every iterate.  The three baselines share
one ancestral update, ``_ancestral_update``, whose coefficients each run
builds once.

A non-finite number is refused where it enters, never inside a step body.
Each score, and DPS's Jacobian product, goes through ``_shaped_like``, which
refuses one not of x's shape or with a NaN or infinite entry, naming it and
t: the only per-step checks.  A run checks y once, a single step its x_t and
the chain level it reads, and ``posterior_mean`` its x_t and y_prev.  So an
overflow of finite operands inside a step shows only at the next step's
score, and not at all at t = 1.

Random draws happen in a fixed documented order, so results are reproducible
per seed: the chain noise, chain by chain as one (n, T, m) block, then the
initial state, then per step the perturbation's eps1 (n, d) and eps2 (n, m);
the right-hand side and the solve consume no randomness.  The chain noise and
the initial state are drawn on the calling thread.  The per-step normals,
exactly T n (d + m) of them, are drawn by a ``NormalStream``: the one worker
of a thread-pool executor fills two fixed buffers from the same generator,
a block at a time and in the same order, while the sampler evaluates the
score and the step's products, so the samples and the generator's final
state equal those of serial draws.  The loop hands each step its normals as
one flat view, ``eps``, and the step slices them in stream order.  A failed
draw is raised at the step that reaches its block.  The generator belongs to
the sampler until the sampler returns; its state after a run that raised is
unspecified.  The guidance baselines draw x_T, then per step the ancestral
noise (n, d) and, for Score-SDE and ILVR, the target's (n, m).
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import (
    PrecisionOperator,
    cg_solve,
    diag_preconditioner,
    spectral_factor,
    spectral_solve,
)
# Looked up here by callers that patch or import the draw by name.
from .linalg import pw_cg_draw  # noqa: F401
from .operators import (
    IsotropicNoise,
    LinearOperator,
    NoiseModel,
    check_noise,
    checked_y,
    from_dense,
    make_whitener,
    mix_conditional_cov,
    mix_variance,
)
from .schedules import NoiseSchedule, check_count, check_finite, check_level, check_real


class ChainFailureError(RuntimeError):
    """A step's CG solve failed to converge."""

    def __init__(self, t: int, rows: np.ndarray, kind: str):
        self.t = t
        self.rows = rows
        super().__init__(f"{kind} CG solve failed at step t={t} for rows {rows.tolist()}")


@dataclass
class SolverConfig:
    """Knobs for the posterior variants and for a run's failed rows.

    CG runs at ``cg_solve``'s own settings; a run records a row whose solve
    did not converge, or raises under ``strict``.  A single step or mean
    keeps no trace, so it raises.
    """

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
    strict: bool = True  # a run raises on CG non-convergence instead of recording

    def __post_init__(self):
        if self.prior_mode not in ("score", "identity", "none"):
            raise ValueError("prior_mode must be one of 'score', 'identity', 'none'")


@dataclass(frozen=True, eq=False)
class MeasurementChain:
    """Forward-noised observation levels y_0..y_T, axis -2 indexing the step; == is identity."""

    y_levels: np.ndarray  # (..., T+1, m)
    schedule: NoiseSchedule

    def __post_init__(self):
        y_levels = np.asarray(self.y_levels, dtype=float)  # a float array is kept as it is
        if y_levels.ndim < 2 or y_levels.shape[-2] != self.schedule.num_steps + 1:
            raise ValueError("chain length must be T + 1 on axis -2 of levels (..., T + 1, m), "
                             f"got shape {y_levels.shape}")
        object.__setattr__(self, "y_levels", y_levels)

    def y_at(self, t: int) -> np.ndarray:
        check_level(t, self.schedule.num_steps)
        return self.y_levels[..., t, :]


def _own_pages(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float array on an anonymous mapping of its own, unmapped when freed.

    The measurement chain is a run's largest array (24.4 MiB at 100 chains,
    T = 1000, m = 32).  Taken from malloc, a freed chain stays in the heap
    once the allocator's mmap threshold has grown past its size, and a small
    long-lived block that lands inside that hole makes the next chain take
    fresh pages: a process's peak memory then grows by a whole chain in some
    runs and not in others.  A mapping of its own returns its pages when the
    chain is freed, whatever became of the heap.
    """
    if not hasattr(mmap, "MAP_PRIVATE"):  # no POSIX mmap
        return np.empty(shape)
    nbytes = 8 * math.prod(shape)
    pages = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    if nbytes >= 1 << 22 and hasattr(mmap, "MADV_HUGEPAGE"):
        pages.madvise(mmap.MADV_HUGEPAGE)  # as numpy asks for its own arrays of 4 MiB or more
    return np.frombuffer(pages, dtype=float).reshape(shape)


def generate_measurement_chain(
    y0: np.ndarray,
    schedule: NoiseSchedule,
    rng: np.random.Generator,
    n_chains: int | None = None,
) -> MeasurementChain:
    """Noise the observation forward: y_t = sqrt(1-beta_t) y_{t-1} + sqrt(beta_t) z_t.

    With ``n_chains`` (None or at least 1) the same y0 seeds that many
    independent chains, one per row; without it, one chain, drawn as a
    single row.  The levels are stored time-major, (T+1, n, m), so each step
    of the recursion and each level a sampler reads is contiguous;
    ``y_levels`` is their (n, T+1, m) view, or (T+1, m) for one chain.  The
    noise stream is still that of one (n, T, m) block: each row's (T, m)
    noise is drawn in order, by one call, into one reused buffer and copied
    into place.  The noise is then scaled by sqrt(beta_t) in one pass, and
    the recursion adds sqrt(1-beta_t) y_{t-1} in place, level by level.  The
    levels live on pages of their own (``_own_pages``), given back when the
    chain is freed.
    """
    if n_chains is not None:
        check_count(n_chains, "n_chains")
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 1 or y0.size == 0:
        raise ValueError("y0 must be a nonempty 1-D measurement vector")
    check_finite(y0, "y0")
    T = schedule.num_steps
    m = y0.size
    levels = _own_pages((T + 1, n_chains or 1, m))
    buf = np.empty((T, m))
    for row in range(levels.shape[1]):
        levels[1:, row] = rng.standard_normal(out=buf)
    levels[0] = y0
    levels[1:] *= np.sqrt(schedule.betas)[:, None, None]
    tmp = np.empty(levels.shape[1:])
    for prev, level, keep in zip(levels[:-1], levels[1:], np.sqrt(schedule.alphas).tolist()):
        level += np.multiply(keep, prev, out=tmp)
    y_levels = levels[:, 0] if n_chains is None else levels.transpose(1, 0, 2)
    return MeasurementChain(y_levels=y_levels, schedule=schedule)


@dataclass(frozen=True)
class _StepScalars:
    """The schedule's per-step scalars for one prior mode, as (T,) arrays; entry t - 1 is step t."""

    abar_prev: np.ndarray
    c: np.ndarray  # weight of the identity in the step precision
    keep: np.ndarray  # sqrt(1 - beta_t) / beta_t, the transition's weight on x_t
    pull: np.ndarray  # score prior's weight on x_t + (1 - abar_t) s_hat; 0 without it
    tweedie: np.ndarray  # 1 - abar_t


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
    return _StepScalars(abar_prev=abar_prev, c=c, keep=np.sqrt(1.0 - beta) / beta, pull=pull,
                        tweedie=1.0 - schedule.alpha_bars[1:])


@dataclass(frozen=True)
class PosteriorStepParams:
    """Everything fixed once the score is frozen at (x_t, t)."""

    t: int
    scalars: _StepScalars  # the run's table; entry t - 1 is this step's
    precision: PrecisionOperator  # carries the step's whitener
    preconditioner: np.ndarray | None
    score: np.ndarray


def _shaped_like(value, x, t: int, name: str) -> np.ndarray:
    """``value`` as a float array, refused unless it has x's shape and finite entries.

    Every sampler and single step passes each per-step value from outside,
    the score and DPS's Jacobian product, through here, so none is broadcast
    and a non-finite one is refused at the step where it appears.
    """
    value = np.asarray(value, dtype=float)
    if value.shape != np.shape(x):
        raise ValueError(f"{name} at t={t} has shape {value.shape}, not x's {np.shape(x)}")
    # A sum over finite entries is finite unless it overflows.
    if not math.isfinite(np.add.reduce(value, axis=None)):
        check_finite(value, f"{name} at t={t}")
    return value


def _score_offset(A: LinearOperator, s_hat: np.ndarray, abar_prev: float) -> np.ndarray:
    """The measurement mean's offset b = (1 - abar_{t-1}) A s_hat, through A's dense form if any."""
    A_s = A.apply(s_hat) if A.dense is None else s_hat @ A.dense.T
    return (1.0 - abar_prev) * A_s


def _linear_params(t, s_hat, A, noise, scalars) -> PosteriorStepParams:
    """Step t's parameters around the frozen score."""
    whitener = make_whitener(mix_conditional_cov(noise, scalars.abar_prev[t - 1]))
    precision = PrecisionOperator(scalars.c[t - 1], A, whitener)
    preconditioner = None if A.dense is not None else diag_preconditioner(precision)
    return PosteriorStepParams(t=t, scalars=scalars, precision=precision,
                               preconditioner=preconditioner, score=s_hat)


def make_step_params(
    x_t: np.ndarray,
    t: int,
    score_fn: Callable,
    A: LinearOperator,
    noise: NoiseModel,
    schedule: NoiseSchedule,
    config: SolverConfig | None = None,
) -> PosteriorStepParams:
    """Freeze the score at (x_t, t) and assemble the step's Gaussian parameters.

    An x_t whose last axis is not d, or that is not finite, is refused
    before the score sees it.
    """
    config = config or SolverConfig()
    check_level(t, schedule.num_steps, first=1)
    x_t = _checked_vectors(x_t, A.d, "x_t")
    scalars = _step_scalars(schedule, config.prior_mode)
    return _linear_params(t, _shaped_like(score_fn(x_t, t), x_t, t, "score"), A, noise, scalars)


def _posterior_rhs(x_t, s_hat, white, scalars, i, bt, eps):
    """Right-hand side of a coupled step's solve, with its perturbation when ``eps`` is given.

    It checks nothing: its operands were refused where they entered.

    With entry i of the run's ``scalars``, step i + 1's, the posterior part is
    keep x_t, the score prior's pull (x_t + tweedie s_hat) and the measurement
    term A^T Sigma^{-1} (y_{t-1} - b), given ``white`` = W (y_{t-1} - b) and
    ``bt``, the map v -> B^T v with B = W A.  With ``eps``, the step's
    n (d + m) standard normals as one flat array, it adds the perturbation
    z = sqrt(c) eps1 + B^T eps2, whose covariance is the precision
    c I + B^T B, with eps1 = ``eps[:x_t.size]`` and eps2 the rest.  Since
    W^T W = Sigma^{-1}, the measurement term and B^T eps2 are one product,
    B^T (W (y_{t-1} - b) + eps2).
    """
    rhs = scalars.keep[i] * x_t
    if scalars.pull[i]:
        rhs += scalars.pull[i] * (x_t + scalars.tweedie[i] * s_hat)
    if eps is not None:
        rhs += np.sqrt(scalars.c[i]) * eps[:x_t.size].reshape(x_t.shape)
        white = white + eps[x_t.size:].reshape(x_t.shape[:-1] + (-1,))
    return rhs + bt(white)  # posterior_mean broadcasts one x_t against per-row levels


_NO_ROWS = np.empty(0, dtype=int)  # the failed rows of a step that makes no CG solve


def _step(params: PosteriorStepParams, x_t, y_prev, eps):
    """The one solve of a coupled step: the posterior mean, or mean plus draw with ``eps``.

    With a dense A the right-hand side's merged product is with B = W A, built
    once, and the solve is exact, through B's thin SVD; otherwise the product
    is one adjoint and the solve is ``cg_solve`` at its own settings.  Returns
    (x_{t-1}, iterations, failed rows), as a run's step does: the rows whose
    CG solve did not converge, left to the caller.
    """
    precision, scalars, i = params.precision, params.scalars, params.t - 1
    bw = None if precision.op.dense is None else precision.whitener(precision.op.dense.T).T
    b = _score_offset(precision.op, params.score, scalars.abar_prev[i])
    rhs = _posterior_rhs(x_t, params.score, precision.whitener(y_prev - b), scalars, i,
                         precision.bt if bw is None else (lambda u: u @ bw), eps)
    if bw is not None:
        return spectral_solve(spectral_factor(bw), precision.c, 1.0, rhs), 0, _NO_ROWS
    x_next, report = cg_solve(precision, rhs, preconditioner=params.preconditioner)
    return x_next, report.iterations, np.nonzero(~np.atleast_1d(report.row_converged))[0]


def posterior_mean(
    params: PosteriorStepParams,
    x_t: np.ndarray,
    y_prev: np.ndarray,
) -> np.ndarray:
    """Solve the step precision against the posterior right-hand side.

    The transition kernel contributes sqrt(1-beta)/beta * x_t, the
    measurement contributes A^T Sigma^{-1} (y_{t-1} - b), and in "score"
    prior mode the marginal prior pulls toward its denoised mean.  This is
    the coupled step without its perturbation.  It keeps no trace, so a CG
    solve that does not converge raises ``ChainFailureError``.  An x_t or
    y_prev whose last axis is not d or m, or that is not finite, is refused.
    """
    op = params.precision.op
    mean, _, rows = _step(params, _checked_vectors(x_t, op.d, "x_t"),
                          _checked_vectors(y_prev, op.m, "y_prev"), None)
    if rows.size:
        raise ChainFailureError(params.t, rows, "mean")
    return mean


@dataclass
class SamplerTrace:
    """What a run's steps returned; ``metrics.IterateTrace`` observes its iterates instead."""

    failed_rows: np.ndarray  # rows whose CG solve failed at some step, ascending
    cg_iters: np.ndarray  # (T+1,), entry t = step producing x_{t-1}; 0 if exact or at t = 0


def _rebuilt_steps(A, noise, scalars, strict: bool):
    """Steps that build each precision afresh: any noise model, and CG without a dense A.

    Under ``strict`` a row whose CG solve did not converge raises.
    """
    def step(x, t, s_hat, y_prev, eps):
        params = _linear_params(t, s_hat, A, noise, scalars)
        x_next, iterations, rows = _step(params, x, y_prev, eps)
        if rows.size and strict:
            raise ChainFailureError(t, rows, "sample")
        return x_next, iterations, rows
    return step


# Largest d and m whose spectral steps are fused into one d x d product.  The
# fused step makes fewer, larger calls: its products cost O(n d^2) and its
# matrix O(d^2 min(m, d)), against the factored step's O(n d min(m, d)).  With
# 100 chains and m = 4 it was 3% faster than the factored step at d = 64, 5%
# slower at d = 80 and 4.5 times slower at d = 800.  Bounding m as well bounds
# a step's matrices, 8 d (2d + m) bytes, by 96 KiB.
FUSED_STEP_MAX_D = 64
STEP_BLOCK = 32  # steps whose matrices the fused step builds at once: at most 3 MiB
# Bytes of one block of a run's per-step normals (or of one step's, if more).
# ``NormalStream`` keeps two: the sampler reads one while the producer fills
# the other.  Much smaller blocks hand over too often to keep the producer
# ahead; more or fresh buffers cost resident memory.
NORMAL_BLOCK_BYTES = 1 << 19


class NormalStream:
    """A run's per-step standard normals, drawn ahead on a one-worker executor.

    ``NormalStream(rng, per_step, steps)`` draws exactly ``per_step * steps``
    normals from ``rng``, in stream order; iterated, it yields them as
    ``steps`` flat views of ``per_step`` each, whose values, and the
    generator's state once all are yielded, equal those of serial
    ``rng.standard_normal`` calls of the same sizes.  numpy fills an array of
    normals with the interpreter lock released, so the drawing runs on another
    core while the caller computes.

    The normals come in blocks of whole steps, about ``NORMAL_BLOCK_BYTES``
    each, in two buffers allocated here, with one fill in flight: when the
    caller asks for the first view of block i, block i + 1 is drawn into
    block i - 1's buffer.  So a view may be read and written until the
    caller asks for the next block.

    Use it as a context manager and iterate it once: leaving it cancels a
    fill not yet begun and joins the worker.  A draw that raised is raised
    when the caller asks for the first view of its block, and nothing is
    drawn after it.  The generator belongs to the stream until the block is
    left; its state is unspecified if the block is left before every view
    was yielded.
    """

    def __init__(self, rng: np.random.Generator, per_step: int, steps: int):
        self._rng = rng
        self._per_step = per_step
        total = per_step * steps
        block = per_step * max(1, NORMAL_BLOCK_BYTES // (8 * per_step))
        self._sizes = [min(block, total - lo) for lo in range(0, total, block)]
        self._buffers = [np.empty(size) for size in self._sizes[:2]]

    def __enter__(self) -> "NormalStream":
        from concurrent.futures import ThreadPoolExecutor  # not loaded by importing cdps
        self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="cdps-normals")
        return self

    def __exit__(self, *exc_info) -> None:
        self._pool.shutdown(cancel_futures=True)

    def __iter__(self):
        fill = self._pool.submit(self._fill, 0)
        for i in range(len(self._sizes)):
            block = fill.result()
            if i + 1 < len(self._sizes):
                fill = self._pool.submit(self._fill, i + 1)
            for lo in range(0, block.size, self._per_step):
                yield block[lo:lo + self._per_step]

    def _fill(self, i: int) -> np.ndarray:
        return self._rng.standard_normal(out=self._buffers[i % 2][:self._sizes[i]])


def _spectral_steps(A, noise: IsotropicNoise, scalars):
    """Steps under isotropic noise from one thin SVD of the dense A.

    The conditional covariance gamma_t I, gamma_t = abar_{t-1} sigma^2 +
    1 - abar_{t-1}, whitens by the scalar w_t = gamma_t^{-1/2}, so each
    precision c_t I + w_t^2 A^T A is diagonal in the basis V: its inverse is
    S_t = V diag(1 / (c_t + w_t^2 s^2)) V^T, plus (I - V V^T) / c_t on A's
    null space when m < d.

    When d and m are both at most ``FUSED_STEP_MAX_D`` the step is fused.
    With the offset b = (1 - abar_{t-1}) A s_hat expanded, the general step's
    right-hand side is (keep + pull) x_t + s_hat (pull tweedie I - w_t^2 (1 - abar_{t-1}) A^T A)
    + sqrt(c_t) eps1 + (eps2 + w_t y_{t-1}) w_t A, and x_{t-1} = rhs S_t.
    A^T A and I are built once per run.  Each step's record, (S_t, the score
    map, w_t A, w_t, sqrt(c_t), keep + pull), is built for a block of steps at
    once, sliced from ``scalars``, the matrices by batched products, each entry
    rounding as it would one step at a time; S_t is ``spectral_solve``'s
    inverse as a matrix, its solve against I with c_t and w_t^2 as columns.
    The first block is the step asked for alone; each later one ends at the
    step asked for and holds ``STEP_BLOCK`` steps.  Each step slices eps1
    (n, d), then eps2 (n, m), from its flat ``eps`` of n (d + m) normals.
    Otherwise the right-hand side is ``_posterior_rhs``'s and ``spectral_solve``
    applies S_t in factored form, with w_t computed for the step alone.
    Neither step checks its right-hand side: the score was refused unless
    finite when the loop froze it, and every other operand when it entered.
    """
    mat = A.dense
    factor = spectral_factor(mat)

    if max(A.d, A.m) > FUSED_STEP_MAX_D:
        def factored_step(x, t, s_hat, y_prev, eps):
            i = t - 1
            w = mix_variance(noise.sigma2, scalars.abar_prev[i]) ** -0.5
            b = _score_offset(A, s_hat, scalars.abar_prev[i])
            bw = w * mat  # B = W A
            rhs = _posterior_rhs(x, s_hat, (y_prev - b) * w, scalars, i, lambda u: u @ bw, eps)
            return spectral_solve(factor, scalars.c[i], w * w, rhs), 0, _NO_ROWS
        return factored_step

    d, m = A.d, A.m
    gram = mat.T @ mat
    eye = np.eye(d)
    lo, block = 0, []  # the records of steps lo + 1..lo + len(block)

    def build(hi):
        """The records of steps lo + 1..hi."""
        cut = slice(lo, hi)
        abar_prev, c, pull = scalars.abar_prev[cut], scalars.c[cut], scalars.pull[cut]
        # One power per step: a power over the array may round differently.
        w = [mix_variance(noise.sigma2, a) ** -0.5 for a in abar_prev.tolist()]
        # Per-step factors as columns that broadcast against the block's matrices.
        w_col, c_col, pull_tweedie, measure = np.array((
            w, c, pull * scalars.tweedie[cut], np.square(w) * (1.0 - abar_prev)))[..., None, None]
        solve = spectral_solve(factor, c_col, w_col * w_col, eye)
        # The step's own scalars as Python floats, which unpack faster than an array's row.
        return list(zip(solve, pull_tweedie * eye - measure * gram, w_col * mat, w,
                        np.sqrt(c).tolist(), (scalars.keep[cut] + pull).tolist()))

    def fused_step(x, t, s_hat, y_prev, eps):
        nonlocal lo, block
        if not lo < t <= lo + len(block):
            lo = max(0, t - (STEP_BLOCK if block else 1))  # the first block is step t alone
            block = []  # freed before the next block is built
            block = build(t)
        solve, drift, wmat, w, root_c, keep_pull = block[t - 1 - lo]
        eps1 = eps[:x.size].reshape(x.shape)
        eps2 = eps[x.size:].reshape(x.shape[:-1] + (m,))
        eps2 += w * y_prev
        rhs = eps2 @ wmat
        rhs += s_hat @ drift
        rhs += keep_pull * x
        eps1 *= root_c
        rhs += eps1
        return rhs @ solve, 0, _NO_ROWS
    return fused_step


def _steps(A, noise, scalars, strict: bool):
    """The coupled step for these inputs: (x, t, s_hat, y_{t-1}, eps) -> (x_{t-1}, iters, rows).

    Isotropic noise with a dense A takes the per-run spectral factor; every
    other input rebuilds the step's precision at each step.
    """
    if isinstance(noise, IsotropicNoise) and A.dense is not None:
        return _spectral_steps(A, noise, scalars)
    return _rebuilt_steps(A, noise, scalars, strict)


def _reverse_run(A, schedule, score_fn, rng, n_chains, per_row, step):
    """The reverse-time loop of every sampler; it keeps only what its steps return.

    x_T ~ N(0, I).  For t = T..1 the loop takes step t's flat view ``eps`` of
    the run's one ``NormalStream``, ``per_row`` normals per row, then calls
    the score once, at (x_t, t), refusing one not of x_t's shape;
    ``step(x, t, s_hat, eps)`` may overwrite ``eps`` and returns (x_{t-1},
    iterations, failed rows).  Returns x_0 and the run's ``SamplerTrace``.
    """
    T = schedule.num_steps
    x = rng.standard_normal((A.d,) if n_chains is None else (n_chains, A.d))
    failed = np.zeros(x.shape[:-1] or (1,), dtype=bool)
    cg_iters = np.zeros(T + 1, dtype=int)
    with NormalStream(rng, x.size // A.d * per_row, T) as normals:
        for t, eps in zip(range(T, 0, -1), normals):
            x, cg_iters[t], rows = step(x, t, _shaped_like(score_fn(x, t), x, t, "score"), eps)
            if rows.size:
                failed[rows] = True
    return x, SamplerTrace(np.nonzero(failed)[0], cg_iters)


def _checked_inputs(y, A, n_chains):
    """``checked_y(y, A)``, once ``n_chains`` is None or a count."""
    if n_chains is not None:
        check_count(n_chains, "n_chains")
    return checked_y(y, A)


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
) -> tuple[np.ndarray, SamplerTrace]:
    """Run the full coupled sampler from pure noise down to x_0.

    Generates the measurement chain once (per row unless ``shared_chain``),
    then runs ``_reverse_run`` with the coupled step, ``_steps``'s for these
    inputs.  An exact solve never fails a row.  CG runs at ``cg_solve``'s
    settings (tol 1e-8, at most 10 d iterations); a row it leaves unconverged
    is recorded in ``failed_rows``, or raises when ``config.strict``.  A
    noise model that is not of A's m measurements is refused before any draw.
    """
    config = config or SolverConfig()
    y = _checked_inputs(y, A, n_chains)
    check_noise(noise, A.m)
    chain = generate_measurement_chain(y, schedule, rng, None if shared_chain else n_chains)
    y_at = np.moveaxis(chain.y_levels, -2, 0)  # (T+1, ...) view of the levels
    coupled = _steps(A, noise, _step_scalars(schedule, config.prior_mode), config.strict)
    return _reverse_run(A, schedule, score_fn, rng, n_chains, A.d + A.m,
                        lambda x, t, s_hat, eps: coupled(x, t, s_hat, y_at[t - 1], eps))


def _checked_vectors(a, n: int, name: str) -> np.ndarray:
    """``a`` as a float array, refused unless its last axis is n and its entries finite."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1:] != (n,):
        raise ValueError(f"{name} must have last axis {n}, got shape {a.shape}")
    check_finite(a, name)
    return a


def _single_step(x_t, t, chain, score_fn, A, noise, rng, config, offset=0.0):
    """Step t of a run on the chain's schedule, at the chain's level y_{t-1} less ``offset``.

    Every input, the level itself and x_t (``_checked_vectors``) among them,
    is refused before the score or a draw sees it.
    """
    config = config or SolverConfig()
    x_t = _checked_vectors(x_t, A.d, "x_t")
    check_level(t, chain.schedule.num_steps, first=1)
    if chain.y_levels.shape[-1] != A.m:
        raise ValueError(f"the chain's levels must have length {A.m}")
    if chain.y_levels.shape[:-2] not in ((), x_t.shape[:-1]):
        raise ValueError(f"chain levels {chain.y_levels.shape} do not match x_t {x_t.shape}")
    check_noise(noise, A.m)
    level = chain.y_at(t - 1) - offset
    check_finite(level, f"the chain's level y_{t - 1}")
    step = _steps(A, noise, _step_scalars(chain.schedule, config.prior_mode), strict=True)
    s_hat = _shaped_like(score_fn(x_t, t), x_t, t, "score")
    eps = rng.standard_normal(x_t.size // A.d * (A.d + A.m))  # eps1 then eps2, as a run draws
    return step(x_t, t, s_hat, level, eps)[0]


def cdps_step(
    x_t: np.ndarray,
    chain: MeasurementChain,
    t: int,
    score_fn: Callable,
    A: LinearOperator,
    noise: NoiseModel,
    rng: np.random.Generator,
    config: SolverConfig | None = None,
) -> np.ndarray:
    """One coupled reverse step: x_{t-1} = mu_post + v.

    The score is frozen at the current iterate, and the mean and the
    covariance draw come from one solve against the step precision, on the
    schedule ``chain`` was drawn on (a t beyond its T is refused).  It is the
    step ``cdps_sample`` takes on the same inputs: from the run's x_t and the
    generator's state before the step's draws, it returns the run's x_{t-1}
    bit for bit.  It keeps no trace, so a row whose CG solve does not
    converge raises ``ChainFailureError`` whatever ``config.strict`` says.
    Inputs are refused before any draw, a noise model not of A's m
    measurements among them.
    """
    return _single_step(x_t, t, chain, score_fn, A, noise, rng, config)


# ---------------------------------------------------------------------------
# Ancestral baseline samplers


def _ancestral_step(x_t, t, s_hat, schedule, z):
    """Plain reverse diffusion step; returns the new state and the denoised estimate.

    The samplers take this step through ``_ancestral_update``; tests compare
    against this form.
    """
    beta = schedule.betas[t - 1]
    alpha = schedule.alphas[t - 1]
    abar = schedule.alpha_bars[t]
    abar_prev = schedule.alpha_bars[t - 1]
    x0_hat = (x_t + (1.0 - abar) * s_hat) / np.sqrt(abar)
    mu = (np.sqrt(alpha) * (1.0 - abar_prev) * x_t + np.sqrt(abar_prev) * beta * x0_hat) / (1.0 - abar)
    sigma = np.sqrt(beta * (1.0 - abar_prev) / (1.0 - abar))
    return mu + sigma * z, x0_hat


def _ancestral_update(schedule: NoiseSchedule, shape):
    """A run's ancestral step on states of ``shape``: (x, t, s_hat, z) -> (x_{t-1}, x0_hat).

    It is ``_ancestral_step`` bit for bit.  Each step's coefficients,
    1 - abar_t, sqrt(abar_t), sqrt(alpha_t) (1 - abar_{t-1}),
    sqrt(abar_{t-1}) beta_t and sigma_t, are built once per run as Python
    floats, elementwise by the operations that step makes, and the step
    applies them in place: x0_hat is a buffer of the run, valid until the
    next step, and the normals z are scaled where they lie.
    """
    beta, abar, abar_prev = schedule.betas, schedule.alpha_bars[1:], schedule.alpha_bars[:-1]
    tweedies = 1.0 - abar
    table = list(zip(tweedies.tolist(), np.sqrt(abar).tolist(),
                     (np.sqrt(schedule.alphas) * (1.0 - abar_prev)).tolist(),
                     (np.sqrt(abar_prev) * beta).tolist(),
                     np.sqrt(beta * (1.0 - abar_prev) / tweedies).tolist()))
    x0_hat, tmp = np.empty(shape), np.empty(shape)

    def update(x, t, s_hat, z):
        tweedie, root, keep, pull, sigma = table[t - 1]
        np.multiply(s_hat, tweedie, out=x0_hat)
        np.add(x0_hat, x, out=x0_hat)
        np.divide(x0_hat, root, out=x0_hat)
        x_prev = np.multiply(x, keep)
        x_prev += np.multiply(x0_hat, pull, out=tmp)
        x_prev /= tweedie
        z *= sigma
        x_prev += z
        return x_prev, x0_hat

    return update


def dps_sample(
    y: np.ndarray,
    A: LinearOperator,
    schedule: NoiseSchedule,
    score_fn: Callable,
    denoiser_jvp_fn: Callable,
    rng: np.random.Generator,
    n_chains: int | None = None,
    zeta: float = 1.0,
) -> tuple[np.ndarray, SamplerTrace]:
    """Likelihood-guidance baseline on the denoised estimate.

    Each reverse step is unconditional ancestral sampling followed by a
    correction along the measurement-misfit gradient at the denoised
    estimate, with step size zeta / ||y - A x0_hat|| (a zero or NaN misfit
    norm means zero guidance).  ``denoiser_jvp_fn(x, t, u)`` must return
    the Jacobian of the posterior-mean denoiser applied to u.  Each step
    calls it at the same ``(x, t)`` as ``score_fn``, and the ``gmm`` closures
    built on one mixture share one responsibilities pass there.  The step
    is ``_ancestral_update``'s, then the misfit, its norm, the gain and the
    correction, computed in buffers the run allocates once, by the same
    arithmetic as the step written out with fresh arrays.  A step's
    ancestral noise is its ``eps`` from ``_reverse_run``, reshaped to x's
    shape; the run's ``NormalStream`` holds ``rng`` until the run returns.
    """
    y = _checked_inputs(y, A, n_chains)
    check_real(zeta, "zeta")
    batch = () if n_chains is None else (n_chains,)
    ancestral = _ancestral_update(schedule, batch + (A.d,))
    resid, tmp = np.empty(batch + (A.m,)), np.empty(batch + (A.d,))
    norm, gain = np.empty(batch), np.empty(batch)

    def guided(x, t, s_hat, eps):
        x_prev, x0_hat = ancestral(x, t, s_hat, eps.reshape(x.shape))
        np.subtract(y, A.apply(x0_hat), out=resid)
        np.einsum("...i,...i->...", resid, resid, out=norm)
        np.sqrt(norm, out=norm)
        jw = _shaped_like(denoiser_jvp_fn(x, t, A.adjoint(resid)), x, t, "denoiser_jvp_fn")
        gain.fill(0.0)
        np.divide(zeta, norm, out=gain, where=norm > 0)
        x_prev += np.multiply(jw, gain[..., None], out=tmp)
        return x_prev, 0, _NO_ROWS

    return _reverse_run(A, schedule, score_fn, rng, n_chains, A.d, guided)


def _pinv(mat: np.ndarray) -> np.ndarray:
    """Pseudo-inverse, dropping singular values below 1e-10 times the largest."""
    u, s, v = spectral_factor(mat)
    inv = np.where(s > 1e-10 * s[0], 1.0 / np.where(s == 0, 1.0, s), 0.0)
    return (v * inv) @ u.T


def _noisy_target_sample(back, y, A, schedule, score_fn, rng, n_chains, scale):
    """Noisy-target guidance: an ancestral step plus ``scale`` times ``back`` of the misfit.

    ``back`` maps the misfit to the noisy target into R^d.  A step's flat
    ``eps`` holds its ancestral noise (n, d), then the target's noise (n, m).
    """
    y = _checked_inputs(y, A, n_chains)
    check_real(scale, "scale")
    ancestral = _ancestral_update(schedule, (A.d,) if n_chains is None else (n_chains, A.d))

    def guided(x, t, s_hat, eps):
        x_unc, _ = ancestral(x, t, s_hat, eps[:x.size].reshape(x.shape))
        # Noisy target matched to the forward marginal at level t.
        abar = schedule.alpha_bars[t]
        noise = eps[x.size:].reshape(x.shape[:-1] + (A.m,))
        target = np.sqrt(abar) * y + np.sqrt(1.0 - abar) * noise
        return x_unc + scale * back(target - A.apply(x)), 0, _NO_ROWS

    return _reverse_run(A, schedule, score_fn, rng, n_chains, A.d + A.m, guided)


def score_sde_sample(y, A, schedule, score_fn, rng, n_chains=None, scale=1.0):
    """Adjoint-guidance baseline pushing toward a rescaled noisy observation."""
    return _noisy_target_sample(A.adjoint, y, A, schedule, score_fn, rng, n_chains, scale)


def ilvr_sample(y, A, schedule, score_fn, rng, n_chains=None, scale=1.0):
    """Pseudo-inverse-guidance baseline pushing toward a rescaled noisy observation.

    The pseudo-inverse is taken of ``A.dense``, so ``A`` must have a dense form.
    """
    if A.dense is None:
        raise ValueError("ilvr needs an operator with a dense form (A.dense)")
    pinv = _pinv(A.dense)
    return _noisy_target_sample(lambda r: r @ pinv.T, y, A, schedule, score_fn, rng,
                                n_chains, scale)


# ---------------------------------------------------------------------------
# Locally linearized steps for differentiable nonlinear measurements

FD_STEP = 1e-6  # central-difference step of ``linearize``'s Jacobian probe


@dataclass(frozen=True)
class NonlinearMap:
    """Differentiable forward map with optional exact derivative products.

    ``apply`` must accept batches on the last axis.  When neither ``jvp``
    (u -> J(x) u) nor ``vjp`` (v -> J(x)^T v) is given, the Jacobian is
    probed by central finite differences with step ``FD_STEP`` (lower accuracy).
    """

    m: int
    d: int
    apply: Callable[[np.ndarray], np.ndarray]
    jvp: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    vjp: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


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
        probes = FD_STEP * np.eye(g.d)
        jac = ((g.apply(x + probes) - g.apply(x - probes)) / (2.0 * FD_STEP)).T
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
    rng: np.random.Generator,
    config: SolverConfig | None = None,
) -> np.ndarray:
    """Coupled step for y = g(x) + noise via local linearization at x_t, on the chain's schedule.

    The linear step of ``cdps_step`` with the Jacobian J in place of the
    operator and the observation level shifted by the linearization's
    offset, y_{t-1} - (g(x_t) - J x_t).  For a linear g computed as
    ``x @ J.T``, like a dense operator, that offset is exactly zero and the
    step is the linear step bit for bit (same draws, same arithmetic).
    """
    x_t = _checked_vectors(x_t, g.d, "x_t")
    A_lin = linearize(g, x_t)  # raises unless x_t is a single chain
    offset = np.asarray(g.apply(x_t), dtype=float) - A_lin.apply(x_t)
    return _single_step(x_t, t, chain, score_fn, A_lin, noise, rng, config, offset)
