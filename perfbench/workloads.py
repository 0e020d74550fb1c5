"""Workloads of the cdps benchmark: what a task is, how its inputs are built and run.

Every task a run can execute belongs to a fixed pool per workload. The pool's
sliced Wasserstein distances and residuals are recorded in ``reference.json``
(see ``record.py``), so every run is checked against a recorded reference
whatever seed it is given. The seed picks which pool tasks a run executes and
in which order, through ``cdps.bench.derive_rng``.

All workloads use the paper's sampler settings: 1000 steps, beta 0.1 -> 500,
isotropic noise sigma = 1e-2, 10^4 slices and SW order 2. Each task runs C-DPS
and, as the control that makes no CG call, DPS.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from cdps import bench, gmm, metrics, operators, sampler, schedules

NUM_STEPS = 1000
BETA_MIN = 0.1
BETA_MAX = 500.0
SIGMA = 1e-2
SW_SLICES = 10_000
SW_ORDER = 2
METHODS = ("cdps", "dps")
POOL_SEED = 0  # master seed of the recorded task pool
BLUR_KERNEL = (0.25, 0.5, 0.25)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``task_seconds`` is the nominal cost of one task (both methods) on a
    2-core x86 box; a run executes ``seconds / task_seconds`` tasks, so a
    given seed and run length always mean the same work.
    """

    name: str
    d: int
    ms: tuple[int, ...]  # the pool cycles m over these values
    blur: bool  # blur operator with m = d built here, else a bench.run_config task
    chains: int
    pool_size: int
    task_seconds: float

    def m_of(self, index: int) -> int:
        return self.ms[index % len(self.ms)]

    def params(self) -> dict:
        """Everything that fixes a task's outputs; recorded beside the reference."""
        out = asdict(self)
        del out["task_seconds"]
        out.update(
            num_steps=NUM_STEPS, beta_min=BETA_MIN, beta_max=BETA_MAX, sigma=SIGMA,
            sw_slices=SW_SLICES, sw_order=SW_ORDER, methods=list(METHODS),
            pool_seed=POOL_SEED, blur_kernel=list(BLUR_KERNEL) if self.blur else None,
        )
        out["ms"] = list(self.ms)
        return out

    def bench_config(self, methods=METHODS) -> bench.BenchConfig:
        return bench.BenchConfig(
            dims=(self.d,), measurements=self.ms, sigmas=(SIGMA,),
            matrices_per_config=self.pool_size, samples_per_run=self.chains,
            sw_slices=SW_SLICES, sw_order=SW_ORDER, num_steps=NUM_STEPS,
            beta_min=BETA_MIN, beta_max=BETA_MAX, methods=tuple(methods),
            master_seed=POOL_SEED,
        )

    def select(self, seed: int, seconds: float) -> list[int]:
        """Pool indices a run executes: an equal share per m, interleaved."""
        strata = [range(k, self.pool_size, len(self.ms)) for k in range(len(self.ms))]
        per = max(1, int(seconds / self.task_seconds) // len(strata))
        rng = bench.derive_rng(seed, "perfbench", self.name)
        picks = []
        for stratum in strata:
            order = rng.permutation(stratum)
            picks.append([int(order[i % len(order)]) for i in range(per)])
        return [p[i] for i in range(per) for p in picks]


# Why each workload is in the benchmark is stated in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("gmm-d8", d=8, ms=(1, 2, 4), blur=False, chains=100, pool_size=54, task_seconds=2.0),
    Workload("blur-d32", d=32, ms=(32,), blur=True, chains=100, pool_size=27, task_seconds=5.0),
)}


@dataclass
class Task:
    """Inputs of one pool task: prior, operator, y, exact posterior, reference draws."""

    index: int
    m: int
    prior: gmm.GaussianMixture
    A: operators.LinearOperator
    y: np.ndarray
    posterior: gmm.GaussianMixture
    reference: np.ndarray


@dataclass
class Inputs:
    workload: Workload
    schedule: schedules.NoiseSchedule
    tasks: list[Task]


def build_inputs(w: Workload, indices: list[int]) -> Inputs:
    """Everything a run needs before its first timed task."""
    schedule = schedules.make_linear_schedule(NUM_STEPS, BETA_MIN, BETA_MAX)
    built = {}
    cfg = w.bench_config()
    for j in dict.fromkeys(indices):
        m = w.m_of(j)
        if w.blur:
            prior = gmm.make_grid_gmm(w.d)
            A = operators.blur_operator(BLUR_KERNEL, w.d)
            rng = bench.derive_rng(POOL_SEED, w.name, "model", j)
            x_star = gmm.sample_mixture(prior, 1, rng)[0]
            y = A.apply(x_star) + SIGMA * rng.standard_normal(w.d)
            oracle_rng = bench.derive_rng(POOL_SEED, w.name, "oracle", j)
        else:
            # The same derivation bench.run_config repeats inside the task.
            prior, A, _, y = bench.make_measurement_model(cfg, w.d, m, SIGMA, j)
            oracle_rng = bench.derive_rng(POOL_SEED, "oracle", w.d, m, SIGMA, j)
        posterior = gmm.exact_posterior(prior, A, y, SIGMA)
        reference = gmm.sample_mixture(posterior, w.chains, oracle_rng)
        built[j] = Task(j, m, prior, A, y, posterior, reference)
    return Inputs(w, schedule, [built[j] for j in indices])


@dataclass
class MethodResult:
    seconds: float
    sw: float
    failures: int
    samples: np.ndarray


def _run_blur_method(method, w: Workload, task: Task, schedule):
    """One method on a blur task, built from public functions as bench does."""
    n, A = w.chains, task.A
    score_fn = gmm.score_fn_for(task.prior, schedule)
    rng = bench.derive_rng(POOL_SEED, w.name, method, task.index)
    started = time.perf_counter()
    if method == "cdps":
        x0, trace = sampler.cdps_sample(
            task.y, A, operators.IsotropicNoise(SIGMA * SIGMA), schedule, score_fn, rng,
            n_chains=n, config=sampler.SolverConfig(strict=False),
        )
        failures = int(trace.failed_rows.size)
        if failures > 0.1 * n:
            raise bench.BenchAbort(f"{method}: {failures} of {n} chains failed")
        x0 = np.delete(x0, trace.failed_rows, axis=0)
    else:
        jvp_fn = gmm.denoiser_jvp_fn_for(task.prior, schedule)
        x0, _ = sampler.dps_sample(task.y, A, schedule, score_fn, jvp_fn, rng, n_chains=n)
        failures = 0
    sw_rng = bench.derive_rng(POOL_SEED, w.name, "slices", task.index)
    sw = metrics.sliced_wasserstein(x0, task.reference[: x0.shape[0]], SW_SLICES, sw_rng,
                                    order=SW_ORDER)
    return MethodResult(time.perf_counter() - started, sw, failures, x0)


def run_method(inputs: Inputs, task: Task, method: str) -> tuple[MethodResult, np.ndarray | None]:
    """Run one method on one task.

    Returns its result and, for bench.run_config tasks, the posterior draws
    run_config scored against. run_config seeds each method from the method's
    name, so running the methods one call each gives what one call with both gives.
    """
    w = inputs.workload
    if w.blur:
        return _run_blur_method(method, w, task, inputs.schedule), None
    rows, samples = bench.run_config(w.bench_config((method,)), w.d, task.m, SIGMA, task.index,
                                     keep_samples=True)
    row = rows[0]
    return (MethodResult(row["seconds"], row["sw"], row["failures"], samples[method]),
            samples["posterior"])
