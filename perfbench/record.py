"""Record ``reference.json``: SW, residual and failures of every pool task.

Run from the root of a checkout after a change that is meant to alter the
sampler's outputs, then review the diff of ``reference.json``:

    python3 perfbench/record.py [workload ...]
"""

from __future__ import annotations

import json
import statistics
import sys

import run

# Samples that move by ~1e-5 (a CG tolerance of 1e-8 on magnitudes ~20) move
# SW and the residual by less than this; a changed sampler moves them by O(1).
TOLERANCE = {"rtol": 1e-4, "atol": 1e-4}


def main(names: list[str]) -> int:
    run.cap_blas_threads()
    run.import_cdps()
    import workloads as wl

    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    reference["tolerance"] = TOLERANCE
    for name in names or list(wl.WORKLOADS):
        w = wl.WORKLOADS[name]
        inputs = wl.build_inputs(w, list(range(w.pool_size)))
        outcomes = run.run_tasks(wl, inputs)
        rows, problems, _, _ = run.check(wl, outcomes, {"tolerance": TOLERANCE, "tasks": {}})
        problems = [p for p in problems if not p.endswith("no recorded reference")]
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        reference["workloads"][name] = {"params": w.params(), "tasks": {
            str(row["index"]): {method: {key: row[method][key]
                                         for key in ("sw", "residual_sq", "failures")}
                                for method in wl.METHODS}
            for row in rows}}
        walls = [row["wall_s"] for row in rows]
        print(f"{name}: {len(rows)} tasks, median {statistics.median(walls):.3f} s per task")
        path.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
