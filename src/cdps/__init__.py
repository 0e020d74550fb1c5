"""Coupled data/measurement-space diffusion posterior sampling."""

from .schedules import NoiseSchedule, alpha_bar, make_linear_schedule
from .operators import (
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
from .linalg import (
    CgReport,
    PrecisionOperator,
    cg_solve,
    diag_preconditioner,
)
from .gmm import (
    GaussianMixture,
    denoiser_jacobian_vp,
    denoiser_jvp_fn_for,
    exact_posterior,
    log_marginal_density,
    make_grid_gmm,
    mixture_log_density,
    sample_mixture,
    score,
    score_fn_for,
)
from .metrics import IterateTrace, measurement_residual, sliced_wasserstein
from .sampler import (
    ChainFailureError,
    MeasurementChain,
    NonlinearMap,
    SamplerTrace,
    SolverConfig,
    cdps_sample,
    cdps_step,
    cdps_step_nonlinear,
    dps_sample,
    generate_measurement_chain,
    ilvr_sample,
    score_sde_sample,
)
from .bench import BenchConfig, BenchResult, derive_rng, emit_results, run_config, run_grid

__version__ = "0.1.0"
