"""Every site that refuses a count or a real parameter, through the rules in ``cdps.schedules``.

A count is an integer (a numpy integer too, a bool not) of at least the
site's lower bound; a real parameter is an int, float or numpy real (a bool
not) that is finite and, where the site needs it, positive.  Each bad value
raises ``ValueError`` before any draw, and numpy scalars are accepted.
"""

import numpy as np
import pytest

from cdps.bench import BenchConfig
from cdps.gmm import (
    GaussianMixture,
    denoiser_jvp_fn_for,
    exact_posterior,
    make_grid_gmm,
    sample_mixture,
    score_fn_for,
)
from cdps.linalg import PrecisionOperator, cg_solve, pw_cg_draw
from cdps.metrics import sliced_wasserstein
from cdps.operators import (
    IsotropicNoise,
    LinearOperator,
    LowRankNoise,
    blur_operator,
    from_dense,
    make_random_svd_operator,
    mask_operator,
    mix_conditional_cov,
)
from cdps.sampler import (
    cdps_sample,
    dps_sample,
    generate_measurement_chain,
    ilvr_sample,
    score_sde_sample,
)
from cdps.schedules import make_linear_schedule

SCHEDULE = make_linear_schedule(5, 0.1, 1.25)
A = from_dense(np.eye(2, 4))
PRIOR = make_grid_gmm(4)
SCORE = score_fn_for(PRIOR, SCHEDULE)
SAMPLES = np.arange(12.0).reshape(4, 3)

# 4.0 is a whole number but a float: no count, and a valid real.
VALUES = {"True": True, "2.5": 2.5, "4.0": 4.0, "0": 0, "-1": -1, "nan": np.nan, "inf": np.inf,
          "'3'": "3"}


def precision(c=1.0):
    return PrecisionOperator(c, A, lambda v: v)


def sampler_call(sample, name="n_chains"):
    return lambda v, rng: sample(np.zeros(2), A, SCHEDULE, SCORE, rng, **{"n_chains": 2, name: v})


# Each site: (call(value, rng), the names of the VALUES it accepts, a numpy scalar it accepts).
COUNT_SITES = {
    "make_linear_schedule-num_steps": (lambda v, rng: make_linear_schedule(v, 0.1, 1.0), (),
                                       np.int64(5)),
    **{f"BenchConfig-{name}": ((lambda v, rng, name=name: BenchConfig(**{name: v})), (),
                               np.int64(2))
       for name in ("matrices_per_config", "samples_per_run", "sw_slices", "sw_order",
                    "workers")},
    "BenchConfig-num_steps": (lambda v, rng: BenchConfig(num_steps=v), (), np.int64(1000)),
    "BenchConfig-master_seed": (lambda v, rng: BenchConfig(master_seed=v), ("0", "-1"),
                                np.int64(3)),
    "BenchConfig-dims": (lambda v, rng: BenchConfig(dims=(v,), measurements=(1,)), (),
                         np.int64(8)),
    "BenchConfig-measurements": (lambda v, rng: BenchConfig(dims=(8,), measurements=(v,)), (),
                                 np.int32(2)),
    "LinearOperator-m": (lambda v, rng: LinearOperator(v, 4, np.negative, np.negative), (),
                         np.int64(2)),
    "LinearOperator-d": (lambda v, rng: LinearOperator(2, v, np.negative, np.negative), (),
                         np.int64(2)),
    "make_random_svd_operator-d": (lambda v, rng: make_random_svd_operator(v, 2, rng), (),
                                   np.int64(4)),
    "make_random_svd_operator-m": (lambda v, rng: make_random_svd_operator(4, v, rng), (),
                                   np.int64(2)),
    "mask_operator-d": (lambda v, rng: mask_operator([0], v), (), np.int64(3)),
    "blur_operator-d": (lambda v, rng: blur_operator([1.0], v), (), np.int64(3)),
    "make_grid_gmm-d": (lambda v, rng: make_grid_gmm(v), (), np.int64(4)),
    "sample_mixture-n": (lambda v, rng: sample_mixture(PRIOR, v, rng), (), np.int64(3)),
    "sliced_wasserstein-n_slices": (lambda v, rng: sliced_wasserstein(SAMPLES, SAMPLES, v, rng),
                                    (), np.int64(3)),
    "sliced_wasserstein-order": (
        lambda v, rng: sliced_wasserstein(SAMPLES, SAMPLES, 3, rng, order=v), (), np.int64(1)),
    "cg_solve-max_iter": (lambda v, rng: cg_solve(precision(), np.ones(4), max_iter=v), (),
                          np.int64(3)),
    "pw_cg_draw-max_iter": (lambda v, rng: pw_cg_draw(precision(), rng, max_iter=v, n=2), (),
                            np.int64(3)),
    "pw_cg_draw-n": (lambda v, rng: pw_cg_draw(precision(), rng, n=v), (), np.int64(2)),
    "generate_measurement_chain-n_chains": (
        lambda v, rng: generate_measurement_chain(np.zeros(2), SCHEDULE, rng, v), (), np.int64(2)),
    "cdps_sample-n_chains": (
        lambda v, rng: cdps_sample(np.zeros(2), A, IsotropicNoise(0.01), SCHEDULE, SCORE, rng,
                                   n_chains=v), (), np.int64(2)),
    "dps_sample-n_chains": (
        lambda v, rng: dps_sample(np.zeros(2), A, SCHEDULE, SCORE,
                                  denoiser_jvp_fn_for(PRIOR, SCHEDULE), rng, n_chains=v), (),
        np.int64(2)),
    "score_sde_sample-n_chains": (sampler_call(score_sde_sample), (), np.int64(2)),
    "ilvr_sample-n_chains": (sampler_call(ilvr_sample), (), np.int64(2)),
}

POSITIVE = ("2.5", "4.0")
REAL_SITES = {
    "make_linear_schedule-beta_min": (lambda v, rng: make_linear_schedule(10, v, 5.0), POSITIVE,
                                      np.float32(0.1)),
    "make_linear_schedule-beta_max": (lambda v, rng: make_linear_schedule(10, 0.1, v), POSITIVE,
                                      np.float32(2.0)),
    "IsotropicNoise-sigma2": (lambda v, rng: IsotropicNoise(v), POSITIVE, np.float32(0.5)),
    "LowRankNoise-sigma2": (lambda v, rng: LowRankNoise(np.ones((2, 1)), v), POSITIVE,
                            np.float32(0.5)),
    "PrecisionOperator-c": (lambda v, rng: precision(v), POSITIVE, np.float32(0.5)),
    "cg_solve-tol": (lambda v, rng: cg_solve(precision(), np.ones(4), tol=v), POSITIVE,
                     np.float32(1e-6)),
    "pw_cg_draw-tol": (lambda v, rng: pw_cg_draw(precision(), rng, tol=v, n=2), POSITIVE,
                       np.float32(1e-6)),
    "GaussianMixture-variance": (
        lambda v, rng: GaussianMixture(means=np.zeros((2, 2)), weights=np.full(2, 0.5),
                                       variance=v), POSITIVE, np.float32(2.0)),
    "exact_posterior-sigma": (lambda v, rng: exact_posterior(PRIOR, A, np.zeros(2), v), POSITIVE,
                              np.float32(0.5)),
    "BenchConfig-sigmas": (lambda v, rng: BenchConfig(sigmas=(v,)), POSITIVE, np.float32(0.5)),
    "BenchConfig-dps_zeta": (lambda v, rng: BenchConfig(dps_zeta=v), ("0", "-1", *POSITIVE),
                             np.float32(0.5)),
    "BenchConfig-guidance_scale": (lambda v, rng: BenchConfig(guidance_scale=v),
                                   ("0", "-1", *POSITIVE), np.float32(0.5)),
    "dps_sample-zeta": (
        lambda v, rng: dps_sample(np.zeros(2), A, SCHEDULE, SCORE,
                                  denoiser_jvp_fn_for(PRIOR, SCHEDULE), rng, n_chains=2, zeta=v),
        ("0", "-1", *POSITIVE), np.float32(0.5)),
    "score_sde_sample-scale": (sampler_call(score_sde_sample, "scale"), ("0", "-1", *POSITIVE),
                               np.float32(0.5)),
    "ilvr_sample-scale": (sampler_call(ilvr_sample, "scale"), ("0", "-1", *POSITIVE),
                          np.float32(0.5)),
    "mix_conditional_cov-abar_prev": (lambda v, rng: mix_conditional_cov(IsotropicNoise(0.5), v),
                                      (), np.float32(0.5)),
}

SITES = {**COUNT_SITES, **REAL_SITES}
REFUSALS = [(site, name) for site, (_, accepted, _) in SITES.items() for name in VALUES
            if name not in accepted]


@pytest.mark.parametrize("site, value", REFUSALS, ids=[f"{s}={v}" for s, v in REFUSALS])
def test_every_count_and_real_site_refuses_a_bad_value_before_any_draw(site, value):
    # True used to be read as 1 (IsotropicNoise, exact_posterior, BenchConfig's
    # sigmas, the schedule's betas, LinearOperator's sizes), a float size was
    # built (LinearOperator(2.5, ...)) or ended in numpy's TypeError
    # (make_grid_gmm(4.0), blur_operator, mask_operator, make_random_svd_operator),
    # and "3" was read as 3.0 by make_linear_schedule.  DPS's zeta and the
    # noisy-target baselines' scale were not checked at all: NaN gave NaN samples.
    call = SITES[site][0]
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        call(VALUES[value], rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("site", list(SITES))
def test_every_count_and_real_site_accepts_numpy_scalars(site):
    call, accepted, scalar = SITES[site]
    call(scalar, np.random.default_rng(0))
    for name in accepted:
        call(VALUES[name], np.random.default_rng(0))
