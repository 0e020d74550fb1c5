"""Command-line benchmark driver.

Subcommands:
  run           full benchmark grid -> results.csv / summary.json
                (with --trace, also each grid point's trace record)
  oracle        exact-posterior sanity run -> samples CSV + summary
  trace         one grid point's trace record -> CSV + JSON: per method,
                chain and level, the residual, score cosine and MSE, CG
                iterations and failed rows, with the config and environment
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import gmm as gmm_mod
from .bench import (
    BenchConfig, derive_rng, emit_results, make_task, run_grid, write_csv, write_trace,
)


def _load_config(path: str | None, overrides: dict) -> BenchConfig:
    data = {}
    if path is not None:
        import json  # imported where a config is read, so that importing cdps.cli does not load it
        with open(path) as fh:
            data = json.load(fh)
        unknown = set(data) - set(BenchConfig.__dataclass_fields__)
        if unknown:
            raise SystemExit(f"unknown config keys: {sorted(unknown)}")
    data.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return BenchConfig(**data)
    except ValueError as err:
        raise SystemExit(f"invalid config: {err}") from None


def _point_config(args, samples: int) -> BenchConfig:
    """The flags' ``BenchConfig``, refused in one line unless valid."""
    return _load_config(None, {"dims": (args.d,), "measurements": (args.m,),
                               "sigmas": (args.sigma,), "samples_per_run": samples,
                               "master_seed": args.seed})


def _cmd_run(args) -> int:
    overrides = {
        "methods": tuple(args.methods.split(",")) if args.methods else None,
        "master_seed": args.seed,
        "workers": args.workers,
        "sw_order": args.sw_order,
        "shared_y_chain": args.shared_y_chain,
        "scatter": args.scatter,
    }
    cfg = _load_config(args.config, overrides)
    result = run_grid(cfg)
    written = emit_results(result, args.out, cfg)
    if args.trace:
        traced = replace(cfg, samples_per_run=min(cfg.samples_per_run, 100))
        for d, m, sigma in itertools.product(cfg.dims, cfg.measurements, cfg.sigmas):
            written.extend(write_trace(traced, d, m, sigma, args.out))
    for agg in result.aggregates:
        print(
            f"{agg['method']:>9s}  d={agg['d']:<4d} m={agg['m']:<2d} "
            f"sigma={agg['sigma']:<6g} sw={agg['sw_mean']:.3f} "
            f"+-{agg['sw_ci95']:.3f} ({agg['n_matrices']} matrices)"
        )
    for bad in result.aborted:
        print(f"aborted: {bad}", file=sys.stderr)
    print("wrote: " + ", ".join(str(p) for p in written))
    return 0


def _cmd_oracle(args) -> int:
    task = make_task(_point_config(args, args.samples), args.d, args.m, args.sigma, args.matrix)
    posterior = gmm_mod.exact_posterior(task.prior, task.A, task.y, args.sigma)
    rng = derive_rng(args.seed, "oracle", args.d, args.m, args.sigma, args.matrix)
    samples = gmm_mod.sample_mixture(posterior, args.samples, rng)

    weights = posterior.weights
    print(f"posterior weights sum: {weights.sum():.15f}")
    top = np.argsort(weights)[::-1][:3]
    for k in top:
        print(f"  component {k}: weight={weights[k]:.4f} mean[:2]={posterior.means[k][:2]}")
    mix_mean = weights @ posterior.means
    print(f"posterior mean[:2]: {mix_mean[:2]}")
    print(f"sample mean[:2]:    {samples.mean(axis=0)[:2]}")
    print(f"truth x*[:2]:       {task.x_star[:2]}")

    if args.out:
        path = write_csv(Path(args.out) / f"oracle_d{args.d}_m{args.m}_s{args.sigma!r}.csv",
                         [f"x{i}" for i in range(samples.shape[1])],
                         ([f"{v:.12g}" for v in p] for p in samples))
        print(f"wrote {path}")
    return 0


def _cmd_trace(args) -> int:
    cfg = _point_config(args, args.chains)
    for path in write_trace(cfg, args.d, args.m, args.sigma, args.out):
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cdps-bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the benchmark grid")
    run.add_argument("--config", help="JSON config mirroring BenchConfig fields")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--methods", help="comma-separated subset of cdps,dps,score_sde,ilvr")
    run.add_argument("--trace", action="store_true",
                     help="also write each grid point's trace record, on up to 100 chains")
    run.add_argument("--shared-y-chain", action="store_true", default=None,
                     help="one shared measurement chain per observation")
    run.add_argument("--scatter", action="store_true", default=None,
                     help="write first-two-dimension scatter CSVs for matrix 0")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--workers", type=int, default=None)
    run.add_argument("--sw-order", type=int, default=None, choices=(1, 2))
    run.set_defaults(func=_cmd_run)

    def _common(p):
        p.add_argument("--d", type=int, default=8)
        p.add_argument("--m", type=int, default=2)
        p.add_argument("--sigma", type=float, default=0.1)
        p.add_argument("--seed", type=int, default=0)

    oracle = sub.add_parser("oracle", help="exact-posterior sanity run")
    _common(oracle)
    oracle.add_argument("--matrix", type=int, default=0)
    oracle.add_argument("--samples", type=int, default=1000)
    oracle.add_argument("--out", default=None)
    oracle.set_defaults(func=_cmd_oracle)

    trace = sub.add_parser("trace", help="one grid point's trace record, matrix 0")
    _common(trace)
    trace.add_argument("--chains", type=int, default=100)
    trace.add_argument("--out", required=True)
    trace.set_defaults(func=_cmd_trace)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
