"""Fingerprint every benchmark pool task's outputs, into a JSON to compare across commits.

Usage, from the root of a checkout:

    python3 tools/pool_outputs.py --out pool_outputs.json [--workload gmm-d8 ...]

Every pool task of each workload in ``perfbench/workloads.py`` (all of them
by default) runs with every method, through that module's ``build_inputs``
and ``run_method``, with one BLAS thread. The benchmark runs only C-DPS and
DPS, so the workloads whose tasks are ``bench.run_config`` tasks (not the
blur ones) also run every other method ``cdps.bench`` knows, Score-SDE and
ILVR, through ``bench.run_config``. The output maps workload, task index and
method to the SHA-256 of the samples' bytes (with their shape and dtype),
the ``repr`` of the sliced Wasserstein distance and the failed chains. Two
commits whose files are equal give the same samples and SW bit for bit on
every pool task.
"""

from __future__ import annotations

import argparse
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # set before numpy loads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads as wl
    from cdps import bench

    others = tuple(method for method in bench.KNOWN_METHODS if method not in wl.METHODS)
    out = {}
    for name in args.workload or list(wl.WORKLOADS):
        w = wl.WORKLOADS[name]
        out[name] = {}
        for index in range(w.pool_size):
            inputs = wl.build_inputs(w, [index])
            task = inputs.tasks[0]
            row = {}
            for method in wl.METHODS:
                result, _ = wl.run_method(inputs, task, method)
                row[method] = {"samples_sha256": fingerprint(result.samples),
                               "sw": repr(result.sw), "failures": result.failures}
            if not w.blur:
                rows, samples = bench.run_config(w.bench_config(others), w.d, task.m, wl.SIGMA,
                                                 index, keep_samples=True)
                for result in rows:
                    row[result["method"]] = {
                        "samples_sha256": fingerprint(samples[result["method"]]),
                        "sw": repr(result["sw"]), "failures": result["failures"]}
            out[name][str(index)] = row
            print(name, index, json.dumps(row), flush=True)
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
