"""Discrete variance-preserving noise schedules, and the package's rules for its inputs.

One schedule, given by its betas alone, is shared by the data-space chain
and the measurement-space chain, so both inject the same noise fraction at
every step.

The package refuses a bad level, count, real parameter or array by one rule
each, defined here: ``check_level``, ``check_count``, ``check_real`` and
``check_finite``.  Each raises ``ValueError``; a bool is neither a count nor
a real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Guard band keeping every beta strictly inside the open interval (0, 1).
_BETA_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Per-step noise rates beta_t, which fix T, alpha_t = 1 - beta_t and their running products.

    ``betas[i]`` holds beta_{i+1} for steps t = 1..T.  ``alpha_bars`` has
    length T+1 with ``alpha_bars[0] = 1`` so that step-boundary quantities at
    t-1 = 0 reduce to their noise-free values.  All three arrays are
    read-only, so the derived two cannot go stale; == is identity.
    """

    betas: np.ndarray
    num_steps: int = field(init=False)
    alphas: np.ndarray = field(init=False)
    alpha_bars: np.ndarray = field(init=False)

    def __post_init__(self):
        betas = np.array(self.betas, dtype=float)  # a copy, frozen below with what it fixes
        if betas.ndim != 1 or betas.size < 1:
            raise ValueError("betas must be a nonempty 1-D array")
        check_finite(betas, "betas")
        if np.any(betas <= 0.0) or np.any(betas >= 1.0):
            raise ValueError("betas must lie strictly inside (0, 1)")
        if np.any(np.diff(betas) < 0.0):
            raise ValueError("betas must be nondecreasing")
        alphas = 1.0 - betas
        alpha_bars = np.empty(betas.size + 1)
        alpha_bars[0] = 1.0
        np.cumprod(alphas, out=alpha_bars[1:])
        # A cumulative product that underflows can stick among the subnormals
        # (at 5e-324 once every later beta is below 0.5) instead of reaching 0.
        # One that keeps decreasing there is still a schedule.
        last = alpha_bars[-1]
        if last <= 0.0 or (last < np.finfo(float).tiny and np.any(np.diff(alpha_bars) >= 0.0)):
            raise ValueError(
                "cumulative signal level underflowed to zero; "
                "num_steps is too small for this beta range"
            )
        object.__setattr__(self, "num_steps", betas.size)
        for name, value in (("betas", betas), ("alphas", alphas), ("alpha_bars", alpha_bars)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)


def make_linear_schedule(num_steps: int, beta_min: float, beta_max: float) -> NoiseSchedule:
    """Linearly interpolated variance-preserving schedule.

    The continuous rate beta(s) = beta_min + s * (beta_max - beta_min) is
    sampled at s = (t-1)/(T-1) and divided by T, giving
    beta_t = beta(s_t) / T, then clamped into (0, 1) with a 1e-12 margin.
    """
    check_count(num_steps, "num_steps")
    check_real(beta_min, "beta_min", positive=True)
    check_real(beta_max, "beta_max")
    beta_min = float(beta_min)
    beta_max = float(beta_max)
    if beta_max < beta_min:
        raise ValueError("beta_max must be >= beta_min")

    T = int(num_steps)
    frac = np.arange(T, dtype=float) / max(T - 1, 1)
    betas = (beta_min + frac * (beta_max - beta_min)) / T
    return NoiseSchedule(np.clip(betas, _BETA_EPS, 1.0 - _BETA_EPS))


def check_level(t, num_steps: int, first: int = 0) -> None:
    """Refuse a level t that is not an integer in [first, num_steps]; a bool is no level."""
    if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or not first <= t <= num_steps:
        raise ValueError(f"t must be an integer in [{first}, T] with T = {num_steps}, got {t!r}")


def check_count(value, name: str, low: int | None = 1) -> None:
    """Refuse a count that is not an integer (a numpy integer too, a bool not) of at least
    ``low``; with ``low`` None, any integer is a count."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (low is not None and value < low)):
        raise ValueError(f"{name} must be an integer{'' if low is None else f' >= {low}'}, "
                         f"got {value!r}")


def check_real(value, name: str, positive: bool = False) -> None:
    """Refuse a real parameter that is not an int, float or numpy real (a bool is not), not
    finite or, if ``positive``, not above 0."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not math.isfinite(value) or (positive and value <= 0)):
        raise ValueError(f"{name} must be {'positive and ' if positive else ''}finite, "
                         f"a real number, got {value!r}")


def check_finite(a: np.ndarray, name: str, positive: bool = False) -> None:
    """Refuse an array with an entry that is not finite or, if ``positive``, not above 0."""
    if not np.all(np.isfinite(a)) or (positive and np.any(a <= 0)):
        raise ValueError(f"{name} must be {'positive and ' if positive else ''}finite")


def alpha_bar(schedule: NoiseSchedule, t: int) -> float:
    """Cumulative product of (1 - beta) over the first t steps; 1 at t = 0."""
    check_level(t, schedule.num_steps)
    return float(schedule.alpha_bars[t])
