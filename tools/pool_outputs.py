"""Fingerprint every benchmark pool task's outputs, into a JSON to compare across commits.

Usage, from the root of a checkout:

    python3 tools/pool_outputs.py --out pool_outputs.json [--workload gmm-d8 ...]

Every pool task of each workload in ``perfbench/workloads.py`` (all of them
by default) runs with every method, through that module's ``build_inputs``
and ``run_method``, with one BLAS thread. The benchmark runs only C-DPS and
DPS, so every pool task also runs every other method ``cdps.bench`` knows,
Score-SDE and ILVR: a ``bench.run_config`` task through ``bench.run_config``,
a blur task through ``bench.run_observed`` on the task's prior, A, y and
schedule, on a fixed ``bench.derive_rng`` stream, its samples scored against
the task's reference draws as the benchmark scores them. The output maps
workload, task index and method to the SHA-256 of the samples' bytes (with
their shape and dtype), the ``repr`` of the sliced Wasserstein distance and
the failed chains. Two commits whose files are equal give the same samples
and SW bit for bit on every pool task.

On the ``bench.run_config`` tasks every method also runs once more through
``bench.make_task`` and ``bench.run_observed``, on a fixed stream, with the
task's score observed by a ``cdps.metrics.IterateTrace``. Its
``trace_sha256`` holds the SHA-256 of the observed ``residual_sq`` and of
the run's ``failed_rows``, and for C-DPS also of the run's ``cg_iters`` and
the observed ``score_cos`` and ``score_mse``, so equal files also mean equal
records. The baselines' ``cg_iters`` is left out: they make no solve. On a
blur task the other methods' runs are observed too, and their
``trace_sha256`` holds the digests of ``residual_sq`` and ``failed_rows``.

On every pool task single C-DPS steps are fingerprinted too:
``cdps.sampler.cdps_step`` at t in {1, 2, T // 2, T}, from one fixed x_t and
per-row chain built from the task's own prior, A, y and schedule: with the
task's isotropic noise (the fused spectral step), with a diagonal noise of the
same variance (the step that rebuilds its precision and solves it exactly) and
with the isotropic noise on A stripped of its dense form (the CG step, at
``cg_solve``'s settings). ``step_sha256`` holds the SHA-256 of each step's
output.

Every pool task also records ``oracle_sha256``: the SHA-256 of its exact
posterior's weights, means and covariance, and of the reference draws the
samples are scored against, so a change to the oracle shows, and so does any
change it makes to the draws.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def fingerprint(samples) -> str:
    digest = hashlib.sha256(f"{samples.dtype.str}{samples.shape}".encode())
    digest.update(samples.tobytes())
    return digest.hexdigest()


def observed_run(bench, method, cfg, task, rng) -> tuple:
    """``bench.run_observed``'s x0 and its records by name."""
    x0, trace, (residual_sq, score_cos, score_mse) = bench.run_observed(method, cfg, task, rng)
    return x0, {"residual_sq": residual_sq, "failed_rows": trace.failed_rows,
                "cg_iters": trace.cg_iters, "score_cos": score_cos, "score_mse": score_mse}


def trace_fingerprints(bench, cfg, d: int, m: int, sigma: float, index: int) -> dict:
    """Each method's observed trace on one ``bench.run_config`` task, as SHA-256 digests."""
    task = bench.make_task(cfg, d, m, sigma, index)
    out = {}
    for method in bench.KNOWN_METHODS:
        rng = bench.derive_rng(cfg.master_seed, "pool_outputs", "trace", method, d, m, index)
        names = ("residual_sq", "failed_rows")
        if method == "cdps":
            names += ("cg_iters", "score_cos", "score_mse")
        _, records = observed_run(bench, method, cfg, task, rng)
        out[method] = {name: fingerprint(records[name]) for name in names}
    return out


def blur_fingerprints(bench, wl, inputs, task, methods) -> dict:
    """Score-SDE and ILVR on one blur pool task: samples, SW and trace, as digests."""
    from cdps import gmm, metrics

    w, schedule = inputs.workload, inputs.schedule
    btask = bench.Task(task.prior, task.A, None, task.y, wl.SIGMA, schedule,
                       gmm.score_fn_for(task.prior, schedule))
    out = {}
    for method in methods:
        rng = bench.derive_rng(wl.POOL_SEED, "pool_outputs", w.name, method, task.index)
        x0, records = observed_run(bench, method, w.bench_config(methods), btask, rng)
        sw_rng = bench.derive_rng(wl.POOL_SEED, w.name, "slices", task.index)
        sw = metrics.sliced_wasserstein(x0, task.reference, wl.SW_SLICES, sw_rng,
                                        order=wl.SW_ORDER)
        out[method] = {"samples_sha256": fingerprint(x0), "sw": repr(sw),
                       "failures": int(records["failed_rows"].size),
                       "trace_sha256": {name: fingerprint(records[name])
                                        for name in ("residual_sq", "failed_rows")}}
    return out


def step_fingerprints(A, y, score_fn, schedule, sigma: float, n: int, rng) -> dict:
    """C-DPS's single steps on one task, as SHA-256 digests."""
    import numpy as np
    from cdps.operators import DiagonalNoise, IsotropicNoise
    from cdps.sampler import cdps_step, generate_measurement_chain

    chain = generate_measurement_chain(y, schedule, rng, n)
    x_t = rng.standard_normal((n, A.d))
    T = schedule.num_steps
    out = {}
    isotropic = IsotropicNoise(sigma * sigma)
    for kind, op, noise in (("isotropic", A, isotropic),
                            ("diagonal", A, DiagonalNoise(np.full(A.m, sigma * sigma))),
                            ("cg", dataclasses.replace(A, dense=None), isotropic)):
        for t in (1, 2, T // 2, T):
            x = cdps_step(x_t, chain, t, score_fn, op, noise, rng)
            out[f"{kind}_t{t}"] = fingerprint(x)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # set before numpy loads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads as wl
    from cdps import bench, gmm

    others = tuple(method for method in bench.KNOWN_METHODS if method not in wl.METHODS)
    out = {}
    for name in args.workload or list(wl.WORKLOADS):
        w = wl.WORKLOADS[name]
        out[name] = {}
        for index in range(w.pool_size):
            inputs = wl.build_inputs(w, [index])
            task = inputs.tasks[0]
            posterior = task.posterior
            row = {"oracle_sha256": {
                "weights": fingerprint(posterior.weights), "means": fingerprint(posterior.means),
                "cov": fingerprint(posterior.cov), "reference": fingerprint(task.reference)}}
            for method in wl.METHODS:
                result, _ = wl.run_method(inputs, task, method)
                row[method] = {"samples_sha256": fingerprint(result.samples),
                               "sw": repr(result.sw), "failures": result.failures}
            if w.blur:
                row.update(blur_fingerprints(bench, wl, inputs, task, others))
            else:
                rows, samples = bench.run_config(w.bench_config(others), w.d, task.m, wl.SIGMA,
                                                 index, keep_samples=True)
                for result in rows:
                    row[result["method"]] = {
                        "samples_sha256": fingerprint(samples[result["method"]]),
                        "sw": repr(result["sw"]), "failures": result["failures"]}
                traces = trace_fingerprints(bench, w.bench_config(bench.KNOWN_METHODS), w.d,
                                            task.m, wl.SIGMA, index)
                for method, digests in traces.items():
                    row[method]["trace_sha256"] = digests
            rng = bench.derive_rng(wl.POOL_SEED, "pool_outputs", "step", w.d, task.m, index)
            schedule = inputs.schedule
            row["cdps"]["step_sha256"] = step_fingerprints(
                task.A, task.y, gmm.score_fn_for(task.prior, schedule), schedule, wl.SIGMA,
                w.chains, rng)
            out[name][str(index)] = row
            print(name, index, json.dumps(row), flush=True)
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
