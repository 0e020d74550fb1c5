"""The cdps benchmark: one workload per invocation, outputs checked against a reference.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gmm-d8 --seed 1 --seconds 40 --trace 0

Workloads are defined in ``workloads.py``. A run executes
``seconds / task_seconds`` tasks picked by the seed from the workload's
recorded pool, in one process, with BLAS threads capped at the core count.
Each method of a task runs on its own, sampled by a ``SpeedProbe``.

``--trace 0`` reports the end-to-end metrics: set-up time (the median of
three imports, one here and two in fresh interpreters, plus the median of
three input builds), wall time of the timed tasks, the median seconds per
task of each method, each method's seconds in units of the probe's time
during that run, averaged over the run's tasks (``task_cal``), mean SW and
terminal residual, the failure rate and peak resident memory.
``--trace 1`` runs a quarter of the tasks untraced and then traced
(``tracer.py``) and reports per-layer metrics as means per traced task, with
``trace.overhead_s`` the traced minus untraced seconds per task.

Every task is checked: samples finite, exact-posterior weights summing to 1,
and SW, residual and failures matching ``reference.json`` within its stated
tolerance. A task that raises is counted as all of its chains failed and the
run goes on. Every metric is printed with its unit; the last line of standard
output is the result JSON with the metrics BENCHMARK.json lists, and the exit
code is 1 if any check failed. A record with the environment, every task and
the per-(method, m) SW table is written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUPS = 3  # setup_s: median of this many imports plus median of this many input builds
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); started = time.perf_counter(); "
               "import cdps.bench; print(time.perf_counter() - started)")
PROBE_PERIOD_S = 0.05  # wall seconds between SpeedProbe samples
TRACED_SHARE = 4  # the traced run repeats 1 / TRACED_SHARE of a run's tasks

# Per traced task: ".s" inclusive span seconds, ".self_s" span self seconds,
# ".calls" span count, ".iters" mean CG iterations per call, others counters.
LAYER_METRICS = (
    "sampler.cdps_sample.s", "sampler.cdps_sample.calls",
    "sampler.generate_measurement_chain.s", "sampler.generate_measurement_chain.bytes",
    "sampler.make_step_params.self_s", "sampler.posterior_mean.self_s",
    "sampler.dps_sample.self_s",
    "linalg.cg_solve.mean.s", "linalg.cg_solve.mean.iters",
    "linalg.pw_cg_draw.s", "linalg.pw_cg_draw.iters",
    "linalg.matvec.calls", "linalg.matvec.s", "linalg.diag_preconditioner.s",
    "operators.apply.s", "operators.apply.calls", "operators.adjoint.s",
    "operators.adjoint.calls", "operators.make_whitener.s", "operators.mix_conditional_cov.s",
    "gmm.score.s", "gmm.score.calls", "gmm.denoiser_jacobian_vp.s", "gmm.exact_posterior.s",
    "gmm.sample_mixture.s",
    "metrics.sliced_wasserstein.s", "metrics.sliced_wasserstein.calls",
    "bench.run_config.self_s", "bench.retry_reruns",
    "schedules.make_linear_schedule.s",
)


def cap_blas_threads() -> int:
    """Cap BLAS and OpenMP threads at the usable core count; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        threads = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(threads, nproc))
    return nproc


def import_cdps() -> float:
    """Import cdps from the checkout's ``src``; returns the seconds it took."""
    src = (ROOT / "src").resolve()
    started = time.perf_counter()
    sys.path.insert(0, str(src))
    import cdps.bench

    if not Path(cdps.__file__).resolve().is_relative_to(src):
        raise ImportError(f"cdps was found at {cdps.__file__}, outside {src}")
    return time.perf_counter() - started


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import cdps from the checkout's ``src``.

    One import per run spread 0.22 to 0.40 (IQR over median) over five seeds,
    so set-up is measured in more than one interpreter.
    """
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(ROOT / "src")], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(nproc: int, seed: int, params: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = done.stdout.strip() or "unknown"
    return {
        "git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "nproc": nproc,
        "machine": platform.machine(), "seed": seed, "workload": params,
    }


def load_reference(w) -> tuple[dict, list[str]]:
    stored = json.loads((HERE / "reference.json").read_text())
    recorded = stored["workloads"].get(w.name, {})
    problems = []
    if recorded.get("params") != w.params():
        problems.append("reference.json was recorded with other workload parameters")
    return {"tolerance": stored["tolerance"], "tasks": recorded.get("tasks", {})}, problems


class SpeedProbe:
    """The box's speed during a method run, sampled by timing a fixed piece of work.

    The box this benchmark was written on (2 cores shared with other machines)
    runs 1.2x to 2x slower for seconds at a time, in wall and CPU time alike,
    and task times follow. Loops timed before and after each method run missed
    most of it. Instead, while a method runs, an interval timer interrupts it
    every ``PROBE_PERIOD_S`` and the signal handler times ``_work``, about a
    millisecond of code that is not cdps code. The mean of those times is the
    run's time unit; their sum is taken off the run's seconds.

    ``_work`` has two parts of about equal time, because the box's slowdowns
    hit them differently: small numpy operations on a 100 x 8 array, and
    Python lookups at random keys of a 100 000-entry dict. Over 30 to 40
    repeats of one task in each of four hours, seconds over the numpy part
    alone varied 4% to 12% (standard deviation over mean) and raw seconds 9%
    to 15%. In the two hours measured with both parts, seconds over their sum
    varied 5% to 7%, in one of them where the numpy part alone gave 12%.
    The dict adds about 11 MiB to the run's peak resident memory.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._x0 = rng.standard_normal((100, 8))
        self._M = rng.standard_normal((8, 8)) / np.sqrt(8)
        self._table = {i: (i * 2654435761) % 1000003 for i in range(100_000)}
        self._keys = rng.integers(0, 100_000, 800).tolist()
        self.samples: list[tuple[float, float]] = []  # (start, seconds) of each sample
        self._work()

    def _work(self) -> None:
        import numpy as np

        x = self._x0
        for _ in range(20):
            x = np.tanh(x @ self._M + 0.5 * np.roll(x, 1, axis=1) + 0.1)
            np.einsum("ij,ij->i", x, x)
        acc = 0
        for key in self._keys:
            acc += self._table[key] & 7

    def _sample(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        self._work()
        self.samples.append((started, time.perf_counter() - started))
        # Re-armed only once the sample is done, so samples never nest.
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)

    @contextlib.contextmanager
    def sampling(self):
        """Sample the block into a fresh ``samples``; the first sample is taken before it."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        try:
            self._sample()
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def cost_s(self, begin: float, end: float) -> float:
        """Seconds the samples started in ``[begin, end]`` took."""
        return sum(s for started, s in self.samples if begin <= started <= end)

    def unit_s(self) -> float:
        return statistics.fmean(s for _, s in self.samples)


def run_tasks(wl, inputs, tracer=None, probe=None) -> list[dict]:
    """Run every method on every task; a method that raises is recorded, not propagated.

    With a ``probe``, each method run is sampled by it: the probe's time is
    taken off the run's ``seconds`` and wall time, and ``unit_s`` records the
    run's time unit. ``walls`` are the task's times in the methods alone.
    """
    outcomes = []
    for task in inputs.tasks:
        results, drawn, walls, unit_s, error = {}, [], [], {}, None
        for method in wl.METHODS:
            span = tracer.root_span("perfbench." + method) if tracer else contextlib.nullcontext()
            with probe.sampling() if probe else contextlib.nullcontext():
                started = time.perf_counter()
                try:
                    with span:
                        results[method], posterior_draws = wl.run_method(inputs, task, method)
                    drawn.append(posterior_draws)
                except Exception as exc:  # one bad task costs its chains, not the run
                    error = f"{method}: {type(exc).__name__}: {exc}"
                    traceback.print_exc(file=sys.stderr)
                ended = time.perf_counter()
            walls.append(ended - started - (probe.cost_s(started, ended) if probe else 0.0))
            if error is not None:
                results = {}
                break
            if probe:
                res = results[method]
                res.seconds -= probe.cost_s(ended - res.seconds, ended)
                unit_s[method] = probe.unit_s()
        outcomes.append({"task": task, "results": results, "drawn": drawn, "error": error,
                         "walls": walls, "unit_s": unit_s})
    return outcomes


def check(wl, outcomes, reference) -> tuple[list[dict], list[str], int, int]:
    """Score every outcome against the reference.

    Returns per-task rows, the problems found, and chains attempted and failed.
    """
    import numpy as np
    from cdps import metrics

    tol = reference["tolerance"]
    rows, problems, attempted, failed = [], [], 0, 0
    for out in outcomes:
        task = out["task"]
        tag = f"task {task.index} (m={task.m})"
        ref = reference["tasks"].get(str(task.index))
        chains = task.reference.shape[0] * len(wl.METHODS)
        attempted += chains
        row = {"index": task.index, "m": task.m, "wall_s": sum(out["walls"]),
               "error": out["error"]}
        rows.append(row)
        if abs(task.posterior.weights.sum() - 1.0) > 1e-12:
            problems.append(f"{tag}: posterior weights sum to {task.posterior.weights.sum()!r}")
        if out["error"] is not None:
            failed += chains
            problems.append(f"{tag}: raised {out['error']}")
            continue
        if ref is None:
            problems.append(f"{tag}: no recorded reference")
        if any(d is not None and not np.array_equal(d, task.reference) for d in out["drawn"]):
            problems.append(f"{tag}: posterior draws differ from the set-up's")
        for method, res in out["results"].items():
            failed += res.failures
            if not np.all(np.isfinite(res.samples)):
                problems.append(f"{tag}: {method} samples are not finite")
                continue
            residual = float(np.mean(metrics.measurement_residual(res.samples, task.y, task.A)))
            row[method] = {"seconds": res.seconds, "unit_s": out["unit_s"].get(method),
                           "sw": res.sw,
                           "residual_sq": residual, "failures": res.failures}
            if ref is None:
                continue
            want = ref[method]
            for key, got in (("sw", res.sw), ("residual_sq", residual)):
                if abs(got - want[key]) > tol["atol"] + tol["rtol"] * abs(want[key]):
                    problems.append(f"{tag}: {method} {key} {got!r} != reference {want[key]!r}")
            if res.failures != want["failures"]:
                problems.append(f"{tag}: {method} failed {res.failures} chains, "
                                f"reference {want['failures']}")
    return rows, problems, attempted, failed


def sw_table(rows) -> dict:
    """Mean SW per method and m over the run's tasks."""
    table: dict[str, dict[int, list[float]]] = {}
    for row in rows:
        for method in ("cdps", "dps"):
            if method in row:
                table.setdefault(method, {}).setdefault(row["m"], []).append(row[method]["sw"])
    return {method: {str(m): statistics.fmean(v) for m, v in sorted(by_m.items())}
            for method, by_m in table.items()}


def end_to_end(rows, setup_s: float, attempted: int, failed: int) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and the problems that left some of them unmeasured."""
    done = [r for r in rows if r["error"] is None]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(r["wall_s"] for r in rows), "s"),
        "failure_rate": (failed / attempted if attempted else 1.0, "fraction"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }
    problems = []
    for name, method, key, stat, unit in (
        ("cdps.task_s", "cdps", "seconds", statistics.median, "s"),
        ("dps.task_s", "dps", "seconds", statistics.median, "s"),
        ("cdps.sw", "cdps", "sw", statistics.fmean, "1"),
        ("dps.sw", "dps", "sw", statistics.fmean, "1"),
        ("cdps.residual_sq", "cdps", "residual_sq", statistics.fmean, "1"),
    ):
        values = [r[method][key] for r in done if method in r]
        if values:
            out[name] = (stat(values), unit)
        else:
            problems.append(f"{name}: no {method} task completed with finite samples")
    for method in ("cdps", "dps"):
        ratios = [r[method]["seconds"] / r[method]["unit_s"] for r in done if method in r]
        if ratios:
            out[f"{method}.task_cal"] = (statistics.fmean(ratios), "cal")
    return out, problems


def per_layer(summary: dict, counters: dict, tasks: int, overhead_s: float) -> dict:
    out = {}
    for name in LAYER_METRICS:
        span, _, kind = name.rpartition(".")
        if kind == "iters":
            calls = summary["calls"].get(span, 0)
            out[name] = (counters[name] / calls if calls else 0.0, "count")
        elif kind in ("s", "self_s", "calls"):
            out[name] = (summary[kind].get(span, 0) / tasks, "count" if kind == "calls" else "s")
        else:
            out[name] = (counters.get(name, 0.0) / tasks, "bytes" if kind == "bytes" else "count")
    attempted = counters.get("cg.rows_attempted", 0.0)
    out["linalg.cg.rows_converged_ratio"] = (
        counters.get("cg.rows_converged", 0.0) / attempted if attempted else 1.0, "ratio")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def timed_run(wl, inputs, reference, setup: dict) -> dict:
    outcomes = run_tasks(wl, inputs, probe=SpeedProbe())
    rows, problems, attempted, failed = check(wl, outcomes, reference)
    table = sw_table(rows)
    print(json.dumps({"sw_table": table}))
    print(f"tasks: {len(rows)}; task_s values are medians over them, task_cal means, "
          "sw and residual means")
    metrics, unmeasured = end_to_end(rows, setup["setup_s"], attempted, failed)
    return {"rows": rows, "problems": problems + unmeasured, "attempted": attempted,
            "failed": failed, "metrics": metrics, "record": {"setup": setup, "sw_table": table}}


def traced_run(wl, w, inputs, reference, spans_path: Path) -> dict:
    """A share of the run's tasks untraced, then the same tasks traced."""
    from tracer import Tracer, installed

    strata = len({task.m for task in inputs.tasks})
    subset = inputs.tasks[: max(strata, len(inputs.tasks) // TRACED_SHARE)]
    indices = [task.index for task in subset]
    plain = run_tasks(wl, wl.Inputs(w, inputs.schedule, subset))
    tracer = Tracer()
    with installed(tracer):
        with tracer.root_span("perfbench.setup"):
            traced_inputs = wl.build_inputs(w, indices)
        outcomes = run_tasks(wl, traced_inputs, tracer)

    rows_plain, problems, attempted, failed = check(wl, plain, reference)
    rows, found, attempted_t, failed_t = check(wl, outcomes, reference)
    problems += found
    for a, b in zip(rows_plain, rows):
        for method in wl.METHODS:
            if method in a and method in b and a[method]["sw"] != b[method]["sw"]:
                problems.append(f"task {a['index']}: tracing changed the {method} SW")
    summary = tracer.summary()
    # Self times add up to their root span by construction; what can go wrong is
    # a root span that does not cover a method run as timed outside the tracer.
    walls = [wall for o in outcomes for wall in o["walls"]]
    roots = summary["root_s"][1:]
    gaps = [wall - root for wall, root in zip(walls, roots)]
    if len(roots) != len(walls) or any(not 0.0 <= g <= 1e-3 for g in gaps):
        problems.append(f"root spans do not match the method wall times: gaps {gaps!r}")
    overhead = (sum(walls) - sum(r["wall_s"] for r in rows_plain)) / len(subset)

    import numpy as np

    OUT_DIR.mkdir(exist_ok=True)
    np.savez(spans_path, names=np.array(tracer.names), **tracer.spans())
    print(f"spans: {summary['spans']} over {len(subset)} tasks, written to "
          f"{spans_path.relative_to(ROOT)}; each method run's root span is within "
          f"{max(gaps, default=0.0)!r} s of its wall time")
    return {"rows": rows, "problems": problems, "attempted": attempted + attempted_t,
            "failed": failed + failed_t,
            "metrics": per_layer(summary, tracer.counters, len(subset), overhead),
            "record": {"tasks_traced": indices, "spans": summary["spans"],
                       "root_wall_gaps_s": gaps,
                       "layer_calls": summary["calls"], "layer_s": summary["s"],
                       "layer_self_s": summary["self_s"], "counters": dict(tracer.counters)}}


def listed_metrics(trace: int) -> dict[str, str]:
    """Metric names and units BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_blas_threads()
    try:
        import_s = import_cdps()
    except ImportError as exc:
        print(f"perfbench: cannot import cdps from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    builds = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        inputs = wl.build_inputs(w, w.select(args.seed, args.seconds))
        builds.append(time.perf_counter() - started)
    imports = [import_s] + [fresh_import_s() for _ in range(SETUPS - 1)]
    setup = {"imports_s": imports, "builds_s": builds,
             "setup_s": statistics.median(imports) + statistics.median(builds)}

    reference, problems = load_reference(w)
    env = environment(nproc, args.seed, w.params())
    print(json.dumps({"environment": env}))
    name = f"{w.name}-seed{args.seed}"
    if args.trace:
        run = traced_run(wl, w, inputs, reference, OUT_DIR / f"{name}-spans.npz")
    else:
        run = timed_run(wl, inputs, reference, setup)
    problems += run["problems"]
    metrics = run["metrics"]
    listed = listed_metrics(args.trace)
    if any(metrics.get(k, (None, None))[1] != unit for k, unit in listed.items()):
        problems.append("a metric BENCHMARK.json lists is missing or has another unit")

    for row in run["rows"]:
        print(json.dumps(row))
    for key, (value, unit) in metrics.items():
        print(f"metric {key} {value!r} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"environment": env, "trace": args.trace, "tasks": run["rows"], **run["record"],
              "problems": problems, "attempted": run["attempted"], "failed": run["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT_DIR / f"{name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not problems, "attempted": run["attempted"], "failed": run["failed"],
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in listed if k in metrics},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
