"""Paired benchmark runs of a parent commit against the working tree, into BENCH_<label>.json.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --label spectral_step --parent HEAD~1 \\
        --pairs 10 --first-seed 301 [--run-config-dims 80 800] \\
        [--what "one line on the change"]

The parent is exported with ``git archive`` into a temporary directory, and
the change side is a copy of the working tree's tracked and untracked, not
ignored, files. Each side runs its own ``perfbench/run.py`` on every workload
``BENCHMARK.json`` declares, through the command and with the run length it
declares, one pair per seed: the parent runs first on odd seeds, the change
on even ones.

The output keeps every run (its exit code, ``correct``, failure count, wall
seconds, end-to-end metrics and every ``metric NAME VALUE UNIT`` line it
printed) and, per workload and metric, each side's median and quartiles, the
pairs the change won, the relative change of the median, the parent's
interquartile range and two verdicts: whether the gain rule holds (the change
won at least nine pairs in ten and beat the parent's median by more than the
parent's IQR) and whether the change's median is worse than the parent's by
more than the metric's bound. Beside the gated metrics the summary carries
the raw median seconds per task of each method, ``cdps.task_s`` and ``dps.task_s``:
``task_cal`` divides them by the speed probe's unit, so a gain that shows in
``task_cal`` but not in ``task_s`` is a shift of that unit.

``--run-config-dims`` also times one ``bench.run_config`` C-DPS task per
dimension (m = 4, sigma = 1e-2, matrix 0, 100 chains, full grid), three
times per side, alternating which side runs first. These timings are
recorded, not gated.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# Summarised beside BENCHMARK.json's end-to-end metrics, ungated.
RAW_METRICS = ({"name": "cdps.task_s", "better": "lower"},
               {"name": "dps.task_s", "better": "lower"})
RUN_CONFIG_CHAINS = 100
RUN_CONFIG_REPS = 3
RUN_CONFIG_CODE = """
import json, sys, time
sys.path.insert(0, "src")
from cdps import bench
d, n = int(sys.argv[1]), int(sys.argv[2])
cfg = bench.BenchConfig(dims=(d,), measurements=(4,), sigmas=(1e-2,), samples_per_run=n,
                        methods=("cdps",), full_grid=True)
started = time.perf_counter()
rows, _ = bench.run_config(cfg, d, 4, 1e-2, 0)
rows[0]["task_s"] = time.perf_counter() - started
print(json.dumps(rows[0]))
"""


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
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "n": len(values)}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: both sides' quartiles, pairs the change won, median change and parent IQR.

    Two verdicts follow. ``claim_rule_met``: the change won at least nine
    tenths of the pairs (ties count for neither side) and its median beats
    the parent's by more than the parent's IQR. ``worse_beyond_bound``: the
    change's median is worse than the parent's by more than the metric's
    relative ``bound``; None for a metric without one.
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
    out["all_correct_failed_0"] = all(
        p[side].get("correct") and p[side].get("failed") == 0 and p[side].get("exit") == 0
        for p in pairs for side in ("parent", "change"))
    return out


def run_config_task(tree: Path, d: int, chains: int) -> dict:
    done = subprocess.run([sys.executable, "-c", RUN_CONFIG_CODE, str(d), str(chains)],
                          cwd=tree, capture_output=True, text=True)
    if done.returncode:
        return {"exit": done.returncode, "error": done.stderr[-2000:]}
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_config_summary(tasks: list[dict]) -> dict:
    """Per dimension, each side's method seconds and their median."""
    out = {"what": "seconds of the cdps method inside bench.run_config (sampling plus SW), "
                   "m = 4; recorded, not gated"}
    for task in tasks:
        if "seconds" in task:
            out.setdefault(f"d={task['d']}", {}).setdefault(task["side"], []).append(
                round(task["seconds"], 3))
    for key, sides in out.items():
        if key != "what":
            sides["median_s"] = {side: float(np.median(sides[side])) for side in list(sides)}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--run-config-dims", type=int, nargs="*", default=[])
    parser.add_argument("--what", default="")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
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
            report["run_config_cdps_m4"] = tasks
            report["run_config_summary"] = run_config_summary(tasks)
        report["runs"] = runs
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0 if all(s["all_correct_failed_0"] for s in report["summary"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
