"""Grid benchmark: sampler posteriors scored against the exact mixture posterior.

For every (d, m, sigma) grid point a batch of measurement models is drawn;
each enabled method produces posterior samples that are compared with exact
posterior draws by sliced Wasserstein distance.  Every random input is
derived from the master seed and the task coordinates, so reruns are
reproducible and workers never share streams.
"""

from __future__ import annotations

import csv
import hashlib
import json
import platform
import subprocess
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import gmm as gmm_mod
from .metrics import sliced_wasserstein
from .operators import IsotropicNoise, make_random_svd_operator
from .sampler import SolverConfig, cdps_sample, dps_sample, ilvr_sample, score_sde_sample
from .schedules import make_linear_schedule

KNOWN_METHODS = ("cdps", "dps", "score_sde", "ilvr")

RESULT_COLUMNS = ("method", "d", "m", "sigma", "matrix", "sw", "failures", "seconds")

FULL_GRID_MAX_D = 80  # larger dims only run with full_grid=True


class BenchAbort(RuntimeError):
    """Raised when more than 10% of a task's chains fail."""


@dataclass
class BenchConfig:
    dims: tuple[int, ...] = (8, 80, 800)
    measurements: tuple[int, ...] = (1, 2, 4)
    sigmas: tuple[float, ...] = (1e-2, 1e-1, 1.0)
    matrices_per_config: int = 20
    samples_per_run: int = 1000
    sw_slices: int = 10_000
    sw_order: int = 2
    num_steps: int = 1000
    beta_min: float = 0.1
    beta_max: float = 500.0
    methods: tuple[str, ...] = ("cdps", "dps")
    master_seed: int = 0
    dps_zeta: float = 1.0
    guidance_scale: float = 1.0  # score_sde / ilvr step scale
    shared_y_chain: bool = False
    full_grid: bool = False
    scatter: bool = False
    workers: int = 1
    record_timing: bool = True  # False zeroes the seconds column for byte-stable output

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.measurements = tuple(int(m) for m in self.measurements)
        self.sigmas = tuple(float(s) for s in self.sigmas)
        self.methods = tuple(self.methods)
        for name in self.methods:
            if name not in KNOWN_METHODS:
                raise ValueError(f"unknown method {name!r}; known: {KNOWN_METHODS}")
        if any(d < 2 or d % 2 for d in self.dims):
            raise ValueError("every d must be an even integer >= 2")
        if any(not 1 <= m <= d for d in self.dims for m in self.measurements):
            raise ValueError("need 1 <= m <= d for every grid point")
        for val, name in [
            (self.matrices_per_config, "matrices_per_config"),
            (self.samples_per_run, "samples_per_run"),
            (self.sw_slices, "sw_slices"),
            (self.num_steps, "num_steps"),
        ]:
            if val < 1:
                raise ValueError(f"{name} must be positive")
        if self.sw_order not in (1, 2):
            raise ValueError("sw_order must be 1 or 2")
        if not all(np.isfinite(s) and s > 0 for s in self.sigmas):
            raise ValueError("every sigma must be positive and finite")
        make_linear_schedule(self.num_steps, self.beta_min, self.beta_max)  # checks the betas

    def active_dims(self) -> tuple[int, ...]:
        if self.full_grid:
            return self.dims
        return tuple(d for d in self.dims if d <= FULL_GRID_MAX_D)


def derive_rng(master_seed: int, *parts) -> np.random.Generator:
    """Deterministic per-task generator from the master seed and task tags.

    Floats, numpy's among them, are canonicalized through the repr of the
    Python float, so 0.01, 1e-2 and np.float64(0.01) map to the same stream
    while distinct values never collide.
    """
    canon = [str(int(master_seed))]
    for p in parts:
        if isinstance(p, (float, np.floating)):
            canon.append(repr(float(p)))
        else:
            canon.append(str(p))
    digest = hashlib.sha256("|".join(canon).encode()).digest()
    words = np.frombuffer(digest[:16], dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(words.tolist()))


def make_measurement_model(cfg: BenchConfig, d: int, m: int, sigma: float, matrix_index: int):
    """Draw (A, x_star, y) for one benchmark task, shared across methods."""
    prior = gmm_mod.make_grid_gmm(d)
    rng = derive_rng(cfg.master_seed, "matrix", d, m, sigma, matrix_index)
    A = make_random_svd_operator(d, m, rng)
    x_star = gmm_mod.sample_mixture(prior, 1, rng)[0]
    y = A.apply(x_star) + sigma * rng.standard_normal(m)
    return prior, A, x_star, y


Task = namedtuple("Task", "prior A x_star y sigma schedule score_fn")


def make_task(cfg: BenchConfig, d: int, m: int, sigma: float, matrix_index: int) -> Task:
    """One task's measurement model, schedule and score, shared by every method and command."""
    prior, A, x_star, y = make_measurement_model(cfg, d, m, sigma, matrix_index)
    schedule = make_linear_schedule(cfg.num_steps, cfg.beta_min, cfg.beta_max)
    return Task(prior, A, x_star, y, sigma, schedule, gmm_mod.score_fn_for(prior, schedule))


def run_method(method: str, cfg: BenchConfig, task: Task, rng: np.random.Generator, n: int,
               **record):
    """Draw ``n`` posterior samples of ``task`` with one method; returns (x0, SamplerTrace).

    ``record`` (``record_residuals``, ``record_scores``) is passed to the
    sampler. C-DPS records a chain whose CG solve fails in
    ``trace.failed_rows`` instead of raising, and follows ``cfg.shared_y_chain``.
    """
    y, A, schedule, score_fn = task.y, task.A, task.schedule, task.score_fn
    if method == "cdps":
        return cdps_sample(y, A, IsotropicNoise(task.sigma * task.sigma), schedule, score_fn, rng,
                           n_chains=n, config=SolverConfig(strict=False),
                           shared_chain=cfg.shared_y_chain, **record)
    if method == "dps":
        jvp_fn = gmm_mod.denoiser_jvp_fn_for(task.prior, schedule)
        return dps_sample(y, A, schedule, score_fn, jvp_fn, rng, n_chains=n, zeta=cfg.dps_zeta,
                          **record)
    if method in ("score_sde", "ilvr"):
        sample = score_sde_sample if method == "score_sde" else ilvr_sample
        return sample(y, A, schedule, score_fn, rng, n_chains=n, scale=cfg.guidance_scale,
                      **record)
    raise ValueError(f"unknown method {method!r}")


def run_config(cfg: BenchConfig, d: int, m: int, sigma: float, matrix_index: int,
               keep_samples: bool = False):
    """Run every enabled method against one measurement model.

    Returns (rows, samples) where rows are result dicts and samples maps
    source name to the sample arrays when ``keep_samples``.
    """
    task = make_task(cfg, d, m, sigma, matrix_index)
    posterior = gmm_mod.exact_posterior(task.prior, task.A, task.y, sigma)
    oracle_rng = derive_rng(cfg.master_seed, "oracle", d, m, sigma, matrix_index)
    reference = gmm_mod.sample_mixture(posterior, cfg.samples_per_run, oracle_rng)

    rows = []
    samples = {"posterior": reference} if keep_samples else None
    for method in cfg.methods:
        started = time.perf_counter()
        rng = derive_rng(cfg.master_seed, method, d, m, sigma, matrix_index)
        x0, trace = run_method(method, cfg, task, rng, cfg.samples_per_run)
        # A failed chain costs its own row: it is counted and dropped, never rerun.
        failures = int(trace.failed_rows.size)
        if failures > 0.1 * cfg.samples_per_run:
            raise BenchAbort(
                f"{method} at (d={d}, m={m}, sigma={sigma}, matrix={matrix_index}): "
                f"{failures} of {cfg.samples_per_run} chains failed"
            )
        x0 = np.delete(x0, trace.failed_rows, axis=0)
        ref = reference if x0.shape[0] == reference.shape[0] else reference[: x0.shape[0]]
        sw_rng = derive_rng(cfg.master_seed, "slices", d, m, sigma, matrix_index)
        sw = sliced_wasserstein(x0, ref, cfg.sw_slices, sw_rng, order=cfg.sw_order)
        seconds = time.perf_counter() - started if cfg.record_timing else 0.0
        rows.append({
            "method": method, "d": d, "m": m, "sigma": sigma,
            "matrix": matrix_index, "sw": sw, "failures": failures,
            "seconds": seconds,
        })
        if keep_samples:
            samples[method] = x0
    return rows, samples


@dataclass
class BenchResult:
    rows: list[dict] = field(default_factory=list)
    aggregates: list[dict] = field(default_factory=list)
    aborted: list[dict] = field(default_factory=list)
    scatter: dict = field(default_factory=dict)


def _aggregate(rows: list[dict]) -> list[dict]:
    """Mean SW and 95% normal-approximation CI over the matrix replicates."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["method"], row["d"], row["m"], row["sigma"]), []).append(row)
    out = []
    for (method, d, m, sigma), grp in sorted(groups.items()):
        sws = np.array([g["sw"] for g in grp])
        n = sws.size
        ci = 1.96 * sws.std(ddof=1) / np.sqrt(n) if n > 1 else 0.0
        out.append({
            "method": method, "d": d, "m": m, "sigma": sigma,
            "sw_mean": float(sws.mean()), "sw_ci95": float(ci),
            "n_matrices": int(n),
            "failures_total": int(sum(g["failures"] for g in grp)),
        })
    return out


def _task_wrapper(args):
    """Run one task; an abort or a numerical error costs this task, not the grid.

    The ValueErrors a sampler raises on bad numbers (a non-finite right-hand
    side, a failed factorisation) are recorded in ``aborted`` as BenchAbort is.
    """
    cfg, d, m, sigma, k, keep = args
    try:
        return run_config(cfg, d, m, sigma, k, keep_samples=keep), None
    except (BenchAbort, ValueError) as exc:
        return None, {"method": cfg.methods[0], "d": d, "m": m, "sigma": sigma, "matrix": k,
                      "reason": str(exc)}


def run_grid(cfg: BenchConfig) -> BenchResult:
    """Run the whole benchmark grid, optionally across worker processes.

    Each task is one method on one measurement model, so a method that
    aborts or raises costs its own row only.
    """
    tasks = [
        (replace(cfg, methods=(method,)), d, m, sigma, k, cfg.scatter and k == 0)
        for d in cfg.active_dims()
        for m in cfg.measurements
        for sigma in cfg.sigmas
        for k in range(cfg.matrices_per_config)
        for method in cfg.methods
    ]
    result = BenchResult()
    if cfg.workers > 1:
        # Imported here so that importing cdps does not load the process pool.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = list(pool.map(_task_wrapper, tasks))
    else:
        outcomes = [_task_wrapper(t) for t in tasks]

    for (cfg_, d, m, sigma, k, keep), (payload, aborted) in zip(tasks, outcomes):
        if aborted is not None:
            result.aborted.append(aborted)
            continue
        rows, samples = payload
        result.rows.extend(rows)
        if keep:
            result.scatter.setdefault((d, m, sigma), {}).update(samples)
    result.rows.sort(key=lambda r: (r["method"], r["d"], r["m"], r["sigma"], r["matrix"]))
    result.aggregates = _aggregate(result.rows)
    return result


def write_csv(path: Path, header, rows) -> Path:
    """Write ``header`` then every row of ``rows`` to ``path``; returns the path."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc
    return path


def environment(master_seed: int | None) -> dict:
    """What a run's numbers depend on besides its config: seed, code and numerical stack.

    The git sha is that of the checkout holding this package, "unknown"
    outside one; BLAS is numpy's build dependency as numpy reports it.
    """
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=Path(__file__).resolve().parent,
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() if done.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        sha = ""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "master_seed": master_seed, "git_sha": sha or "unknown",
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
    }


def emit_results(result: BenchResult, out_dir, cfg: BenchConfig | None = None) -> list[Path]:
    """Write results.csv, summary.json and any scatter CSVs; returns the paths.

    summary.json carries the run's ``environment`` beside the aggregates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = ([row["method"], row["d"], row["m"], repr(float(row["sigma"])), row["matrix"],
             f"{row['sw']:.12g}", row["failures"], f"{row['seconds']:.3f}"]
            for row in result.rows)
    written = [write_csv(out / "results.csv", RESULT_COLUMNS, rows)]

    summary_path = out / "summary.json"
    payload = {"aggregates": result.aggregates, "aborted": result.aborted,
               "environment": environment(None if cfg is None else cfg.master_seed)}
    if cfg is not None:
        payload["config"] = asdict(cfg)
    try:
        summary_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing {summary_path}: {exc}") from exc
    written.append(summary_path)

    for (d, m, sigma), samples in sorted(result.scatter.items()):
        path = out / f"scatter_d{d}_m{m}_s{sigma!r}.csv"
        rows = ([source, f"{p[0]:.12g}", f"{p[1]:.12g}"]
                for source, arr in samples.items() for p in arr)
        written.append(write_csv(path, ["source", "x1", "x2"], rows))
    return written
