"""Paired benchmark runs of a parent commit against the working tree, into BENCH_<label>.json.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --label spectral_step --parent HEAD~1 \\
        --pairs 10 --first-seed 301 [--run-config-dims 80 800] [--grid-reps 2] \\
        [--what "one line on the change"]

The parent is exported with ``git archive`` into a temporary directory, and
the change side is a copy of the working tree's tracked and untracked, not
ignored, files. Each side runs its own ``perfbench/run.py`` on every workload
``BENCHMARK.json`` declares, through the command and with the run length it
declares, one pair per seed: the parent runs first on odd seeds, the change
on even ones.

The output keeps every run (its exit code, ``correct``, failure count, wall
seconds, end-to-end metrics and every ``metric NAME VALUE UNIT`` line it
printed) and, per workload and metric, each side's median, quartiles, minimum
and maximum (so a tail run shows), the pairs the change won, the relative
change of the median, the parent's interquartile range and two verdicts:
whether the gain rule holds (the change won at least nine pairs in ten and
beat the parent's median by more than the parent's IQR) and whether the
change's median is worse than the parent's by more than the metric's bound.
Beside the gated metrics the summary carries the raw median seconds per task
of each method, ``cdps.task_s`` and ``dps.task_s``: ``task_cal`` divides them
by the speed probe's unit, so a gain that shows in ``task_cal`` but not in
``task_s`` is a shift of that unit. Each ``<method>.task_cal`` entry says, in
``raw_seconds_agree``, whether ``<method>.task_s`` moved the same way by more
than its own parent IQR, and a ``task_cal`` gain that meets the gain rule
without that agreement is printed as a warning.

``--run-config-dims`` also times one ``bench.run_config`` task per
dimension (m = 4, sigma = 1e-2, matrix 0, 100 chains) with C-DPS and DPS,
three times per side, alternating which side runs first, and records each
method's seconds (sampling plus SW). These timings are recorded, not
gated: no benchmark workload runs at these dimensions.

``--grid-reps`` also times ``bench.run_grid`` on a small grid (``GRID_CONFIG``:
d = 8, m in {1, 2, 4}, sigma = 1e-2, 4 matrices, 1,000 chains, C-DPS and DPS)
at each worker count of ``GRID_WORKERS``, that many times per side,
alternating which side runs first, with BLAS threads as the environment
leaves them. Each run's wall seconds and mean SW per grid point are
recorded, not gated, with each side's median seconds and the largest
relative spread of a grid point's mean SW over every run of both sides.

Each side's package size, the line count of its ``src/**/*.py``, is
recorded as ``src_lines``, so a change that deletes code shows by how much,
and beside it ``src_code_lines``, the lines of the same files that hold code:
not blank, not comment-only and not inside a module, class or function
docstring, so a change that only deletes prose shows apart from one that
deletes code.

SIGTERM raises ``SystemExit``, as Ctrl-C raises ``KeyboardInterrupt``: the
running benchmark child is killed and the temporary trees are removed.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# Summarised beside BENCHMARK.json's end-to-end metrics, ungated.
RAW_METRICS = ({"name": "cdps.task_s", "better": "lower"},
               {"name": "dps.task_s", "better": "lower"})
RUN_CONFIG_CHAINS = 100
RUN_CONFIG_REPS = 3
RUN_CONFIG_METHODS = ("cdps", "dps")
RUN_CONFIG_CODE = """
import json, sys, time
sys.path.insert(0, "src")
from cdps import bench
d, n = int(sys.argv[1]), int(sys.argv[2])
cfg = bench.BenchConfig(dims=(d,), measurements=(4,), sigmas=(1e-2,), samples_per_run=n,
                        methods=tuple(sys.argv[3:]))
started = time.perf_counter()
rows, _ = bench.run_config(cfg, d, 4, 1e-2, 0)
print(json.dumps({"task_s": time.perf_counter() - started, "rows": rows}))
"""
GRID_CONFIG = {"dims": [8], "measurements": [1, 2, 4], "sigmas": [1e-2],
               "matrices_per_config": 4, "samples_per_run": 1000}
GRID_WORKERS = (1, 2)
GRID_CODE = """
import json, sys, time
sys.path.insert(0, "src")
from cdps import bench
cfg = bench.BenchConfig(**json.loads(sys.argv[1]), workers=int(sys.argv[2]))
started = time.perf_counter()
result = bench.run_grid(cfg)
print(json.dumps({"wall_s": time.perf_counter() - started, "aborted": len(result.aborted),
                  "sw_mean": {f"{a['method']} d={a['d']} m={a['m']}": a["sw_mean"]
                              for a in result.aggregates}}))
"""


def exit_on_sigterm(signum, frame):
    """Unwind on SIGTERM, so ``subprocess.run`` kills its child and the temporary trees go."""
    raise SystemExit(128 + signum)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def export_rev(rev: str, dest: Path) -> str:
    """Write ``rev``'s tree into ``dest``; returns its full sha."""
    sha = git("rev-parse", "--verify", rev + "^{commit}").strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return sha


def copy_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files into ``dest``."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def src_lines(tree: Path) -> int:
    """Lines of the ``src/**/*.py`` files under ``tree``."""
    return sum(len(path.read_text().splitlines()) for path in tree.glob("src/**/*.py"))


def code_lines(source: str) -> int:
    """Lines of Python ``source`` that hold code: not blank, comment-only or in a docstring."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        owner = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        if owner and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    prose = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in prose:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docs)


def src_code_lines(tree: Path) -> int:
    """``code_lines`` summed over the ``src/**/*.py`` files under ``tree``."""
    return sum(code_lines(path.read_text()) for path in tree.glob("src/**/*.py"))


def bench_run(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One timed benchmark run; the last line of its output is the result JSON."""
    started = time.perf_counter()
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    run_s = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    out = {"exit": done.returncode, "run_s": round(run_s, 2)}
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out["correct"] = False
        out["error"] = done.stderr[-2000:]
        return out
    out.update(correct=result["correct"], attempted=result["attempted"],
               failed=result["failed"])
    out.update(printed_metrics(lines))
    out.update({k: v["value"] for k, v in result["metrics"].items()})
    env = next((json.loads(line)["environment"] for line in lines
                if line.startswith('{"environment"')), None)
    if env is not None:
        out["_environment"] = env
    return out


def printed_metrics(lines: list[str]) -> dict[str, float]:
    """The values of a run's ``metric NAME VALUE UNIT`` lines, by name."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            try:
                out[parts[1]] = float(parts[2])
            except ValueError:
                continue
    return out


def side_stats(values: list[float]) -> dict:
    low, q1, median, q3, high = np.percentile(values, [0, 25, 50, 75, 100])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "min": float(low),
            "max": float(high), "n": len(values)}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: both sides' quartiles and range, pairs won, median change and parent IQR.

    Two verdicts follow. ``claim_rule_met``: the change won at least nine
    tenths of the pairs (ties count for neither side) and its median beats
    the parent's by more than the parent's IQR. ``worse_beyond_bound``: the
    change's median is worse than the parent's by more than the metric's
    relative ``bound``; None for a metric without one.

    Each ``<method>.task_cal`` entry also gets ``raw_seconds_agree``: whether
    the medians of ``<method>.task_s`` moved the same way, by more than its
    parent IQR (None without its raw seconds). A ``task_cal`` that meets the
    gain rule while they do not is printed to stderr as a warning.
    """
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        both = [p for p in pairs if name in p["parent"] and name in p["change"]]
        if not both:
            continue
        parent = [p["parent"][name] for p in both]
        change = [p["change"][name] for p in both]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        ps, cs = side_stats(parent), side_stats(change)
        iqr = ps["q3"] - ps["q1"]
        gap = ps["median"] - cs["median"] if lower else cs["median"] - ps["median"]
        bound = spec.get("bound")
        out[name] = {
            "better": spec["better"], "bound": bound, "parent": ps, "change": cs,
            "change_better_in_pairs": f"{wins}/{len(both)}",
            "median_change": cs["median"] / ps["median"] - 1.0,
            "parent_iqr": iqr, "gain_exceeds_parent_iqr": gap > iqr,
            "claim_rule_met": wins >= 0.9 * len(both) and gap > iqr,
            "worse_beyond_bound": None if bound is None else -gap > bound * abs(ps["median"]),
        }

    def moved(entry):
        return entry["change"]["median"] - entry["parent"]["median"]

    for name in [n for n in out if n.endswith(".task_cal")]:
        raw = out.get(name.removesuffix("task_cal") + "task_s")
        agree = None if raw is None else bool(
            moved(raw) * moved(out[name]) > 0 and abs(moved(raw)) > raw["parent_iqr"])
        out[name]["raw_seconds_agree"] = agree
        if out[name]["claim_rule_met"] and not agree:
            print(f"warning: {name} meets the gain rule, but its raw seconds do not move the "
                  "same way by more than their parent IQR", file=sys.stderr)
    out["all_correct_failed_0"] = all(
        p[side].get("correct") and p[side].get("failed") == 0 and p[side].get("exit") == 0
        for p in pairs for side in ("parent", "change"))
    return out


def run_config_task(tree: Path, d: int, chains: int) -> dict:
    """One ``bench.run_config`` task with every method of ``RUN_CONFIG_METHODS``."""
    done = subprocess.run([sys.executable, "-c", RUN_CONFIG_CODE, str(d), str(chains),
                           *RUN_CONFIG_METHODS], cwd=tree, capture_output=True, text=True)
    if done.returncode:
        return {"exit": done.returncode, "error": done.stderr[-2000:]}
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_config_summary(tasks: list[dict]) -> dict:
    """Per dimension and method, each side's seconds and their median."""
    out = {"what": "seconds of each method inside bench.run_config (sampling plus SW), "
                   "m = 4; recorded, not gated"}
    for task in tasks:
        for row in task.get("rows", []):
            out.setdefault(f"d={row['d']}", {}).setdefault(row["method"], {}).setdefault(
                task["side"], []).append(round(row["seconds"], 3))
    for key, methods in out.items():
        if key != "what":
            for sides in methods.values():
                sides["median_s"] = {side: float(np.median(sides[side])) for side in list(sides)}
    return out


def grid_run(tree: Path, workers: int, config: dict = GRID_CONFIG) -> dict:
    """One timed ``bench.run_grid`` on ``config`` with ``workers`` processes."""
    done = subprocess.run([sys.executable, "-c", GRID_CODE, json.dumps(config), str(workers)],
                          cwd=tree, capture_output=True, text=True)
    if done.returncode:
        return {"exit": done.returncode, "error": done.stderr[-2000:]}
    return json.loads(done.stdout.strip().splitlines()[-1])


def grid_summary(runs: list[dict]) -> dict:
    """Per worker count, each side's wall seconds and their median; the mean SWs' spread."""
    out = {"what": "wall seconds of bench.run_grid on config, C-DPS and DPS, BLAS threads "
                   "as the environment leaves them; recorded, not gated",
           "config": GRID_CONFIG, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                                                 "OpenBLAS default")}
    sws = {}
    for run in runs:
        if "wall_s" in run:
            out.setdefault(f"workers={run['workers']}", {}).setdefault(run["side"], []).append(
                round(run["wall_s"], 2))
        for point, sw in run.get("sw_mean", {}).items():
            sws.setdefault(point, []).append(sw)
    for key in [k for k in out if k.startswith("workers=")]:
        out[key]["median_s"] = {side: float(np.median(v)) for side, v in list(out[key].items())}
    out["sw_mean_max_rel_spread"] = max(
        ((max(v) - min(v)) / abs(min(v)) for v in sws.values()), default=None)
    out["failed_runs"] = sum("wall_s" not in run or run["aborted"] > 0 for run in runs)
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--run-config-dims", type=int, nargs="*", default=[])
    parser.add_argument("--grid-reps", type=int, default=0)
    parser.add_argument("--what", default="")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    report = {"label": args.label, "what": args.what}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        parent_sha = export_rev(args.parent, trees["parent"])
        trees["change"].mkdir()
        copy_worktree(trees["change"])
        change = f"the working tree on {git('rev-parse', 'HEAD').strip()}"
        report["git"] = {"parent": parent_sha, "change": change}
        report["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
        report["src_code_lines"] = {side: src_code_lines(tree) for side, tree in trees.items()}
        report["command"] = (" ".join(spec["command"]) + " --workload {" + ",".join(workloads)
                             + "} --seed N --seconds " + f"{spec['run_seconds']} --trace 0")
        report["protocol"] = (
            f"{args.pairs} pairs per workload, seeds {seeds.start}-{seeds.stop - 1}, one "
            "exported tree per side, the side run first alternating pair by pair (parent "
            "first on odd seeds)")
        runs, environment = {}, None
        for workload in workloads:
            runs[workload] = []
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = bench_run(trees[side], spec["command"], workload, seed,
                                           spec["run_seconds"])
                    environment = pair[side].pop("_environment", environment)
                    print(workload, seed, side, json.dumps(pair[side]), flush=True)
                runs[workload].append(pair)
        report["hardware"] = {k: environment[k] for k in (
            "machine", "nproc", "python", "numpy", "scipy", "blas", "blas_threads")
        } if environment else {}
        report["summary"] = {w: summarize(runs[w], [*spec["end_to_end"], *RAW_METRICS])
                             for w in workloads}
        if args.run_config_dims:
            tasks = []
            for d in args.run_config_dims:
                for rep in range(RUN_CONFIG_REPS):
                    for side in ("parent", "change") if rep % 2 == 0 else ("change", "parent"):
                        row = run_config_task(trees[side], d, RUN_CONFIG_CHAINS)
                        tasks.append({"side": side, "rep": rep, "chains": RUN_CONFIG_CHAINS,
                                      **row})
                        print("run_config", json.dumps(tasks[-1]), flush=True)
            report["run_config_m4"] = tasks
            report["run_config_summary"] = run_config_summary(tasks)
        if args.grid_reps:
            grid = []
            for rep in range(args.grid_reps):
                for workers in GRID_WORKERS:
                    for side in ("parent", "change") if rep % 2 == 0 else ("change", "parent"):
                        grid.append({"side": side, "rep": rep, "workers": workers,
                                     **grid_run(trees[side], workers)})
                        print("grid", json.dumps(grid[-1]), flush=True)
            report["grid"] = grid
            report["grid_summary"] = grid_summary(grid)
        report["runs"] = runs
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0 if all(s["all_correct_failed_0"] for s in report["summary"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
