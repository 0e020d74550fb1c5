"""Fingerprint every benchmark pool task's outputs, into a JSON to compare across commits.

Usage, from the root of a checkout:

    python3 tools/pool_outputs.py --out pool_outputs.json [--workload gmm-d8 ...]
    python3 tools/pool_outputs.py --compare PARENT.json CHANGE.json

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

``--compare PARENT.json CHANGE.json`` reads two such files and prints, per
workload and field name, how many entries differ (an entry is one task's
field for one method, or of the oracle, and one missing from either file
differs), then the largest relative change of each method's SW per workload.
For each workload and method that ``perfbench/reference.json`` records, it
also prints the largest share of the benchmark's tolerance,
``atol + rtol |SW|`` of the reference SW, that the change file's SW uses on
any task, and which task that is: how close the change runs to failing the
benchmark's check. It exits 1 if any ``samples_sha256``, ``trace_sha256``
or ``step_sha256`` differs, so a change that must leave every run's bits
alone can be checked even when it changes the oracle's.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
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


RUN_FIELDS = ("samples_sha256", "trace_sha256", "step_sha256")  # a run's bits


def relative_change(parent: str, change: str) -> float:
    """|change - parent| / |parent| of two ``repr``-ed SW values: 0 when the two are equal,
    infinite when they differ and either is not finite or the parent's is 0."""
    if parent == change:
        return 0.0
    p, c = float(parent), float(change)
    return abs(c - p) / abs(p) if p and math.isfinite(c - p) else math.inf


def tolerance_share(sw: str, want: float, tol: dict) -> float:
    """|SW - reference| over the benchmark's tolerance ``atol + rtol |reference|``, for a
    ``repr``-ed SW; infinite when SW is not finite."""
    gap = abs(float(sw) - want)
    return gap / (tol["atol"] + tol["rtol"] * abs(want)) if math.isfinite(gap) else math.inf


def compare(parent: dict, change: dict, reference: dict) -> tuple[list[str], bool]:
    """The report of ``--compare`` as lines, and whether any of a run's bits moved.

    ``reference`` is ``perfbench/reference.json``'s content."""
    lines, moved = [], False
    for name in sorted(parent.keys() | change.keys()):
        tasks_p, tasks_c = parent.get(name, {}), change.get(name, {})
        counts, sw = {}, {}  # field -> [differing, entries]; method -> largest change
        for index in tasks_p.keys() | tasks_c.keys():
            row_p, row_c = tasks_p.get(index, {}), tasks_c.get(index, {})
            for group in row_p.keys() | row_c.keys():
                fields_p, fields_c = row_p.get(group, {}), row_c.get(group, {})
                for field in fields_p.keys() | fields_c.keys():
                    old, new = fields_p.get(field), fields_c.get(field)
                    count = counts.setdefault(field, [0, 0])
                    count[0] += old != new
                    count[1] += 1
                    moved |= field in RUN_FIELDS and old != new
                    if field == "sw" and old is not None and new is not None:
                        sw[group] = max(sw.get(group, 0.0), relative_change(old, new))
        for field, (differ, entries) in sorted(counts.items()):
            lines.append(f"{name} {field}: {differ} of {entries} differ")
        for method, largest in sorted(sw.items()):
            lines.append(f"{name} {method} sw: largest relative change {largest:.3g}")
        recorded = reference["workloads"].get(name, {}).get("tasks", {})
        for method in sorted({method for row in recorded.values() for method in row}):
            shares = [(tolerance_share(row[method]["sw"], recorded[index][method]["sw"],
                                       reference["tolerance"]), index)
                      for index, row in tasks_c.items()
                      if "sw" in row.get(method, {}) and method in recorded.get(index, {})]
            if shares:
                largest, index = max(shares)
                lines.append(f"{name} {method} sw: largest share of the reference tolerance "
                             f"{largest:.3g}, task {index}")
    return lines, moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path)
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)
    if args.compare:
        parent, change = (json.loads(path.read_text()) for path in args.compare)
        reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
        lines, moved = compare(parent, change, reference)
        print("\n".join(lines))
        if moved:
            print("a samples, trace or step digest differs")
        return int(moved)
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
