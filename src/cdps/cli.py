"""Command-line benchmark driver.

Subcommands:
  run           full benchmark grid -> results.csv / summary.json
  oracle        exact-posterior sanity run -> samples CSV + summary
  trace         measurement-residual trajectories -> CSV
  diagnostics   score-consistency (cosine / MSE) per step -> CSV
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import gmm as gmm_mod
from .bench import (
    BenchConfig, derive_rng, emit_results, make_task, run_grid, run_observed, write_csv,
)


def _load_config(path: str | None, overrides: dict) -> BenchConfig:
    data = {}
    if path is not None:
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


def _point_task(args, samples: int):
    """The flags' ``BenchConfig``, refused in one line unless valid, and its task."""
    cfg = _load_config(None, {"dims": (args.d,), "measurements": (args.m,), "sigmas": (args.sigma,),
                              "samples_per_run": samples, "master_seed": args.seed})
    return cfg, make_task(cfg, args.d, args.m, args.sigma, args.matrix)


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
        written.extend(_write_run_traces(cfg, args.out))
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


def _trace_csv_rows(res, cg_iters, n_chains):
    """(chain_id, t, residual_sq, cg_iters) CSV rows."""
    T = res.shape[0] - 1
    for chain in range(n_chains):
        for t in range(T, -1, -1):
            produced_by = t + 1  # step consuming beta_{t+1} produced level t
            cg = int(cg_iters[produced_by]) if produced_by <= T else 0
            yield [chain, t, f"{res[t, chain]:.12g}", cg]


def _write_run_traces(cfg: BenchConfig, out_dir) -> list[Path]:
    """Residual traces for the first matrix of every grid point."""
    out = Path(out_dir)
    written = []
    for d in cfg.dims:
        for m in cfg.measurements:
            for sigma in cfg.sigmas:
                rng = derive_rng(cfg.master_seed, "trace", d, m, sigma)
                n = min(cfg.samples_per_run, 100)
                _, trace, (res, _, _) = run_observed("cdps", cfg, make_task(cfg, d, m, sigma, 0),
                                                     rng, n)
                written.append(write_csv(out / f"trace_cdps_d{d}_m{m}_s{sigma!r}.csv",
                                         ["chain_id", "t", "residual_sq", "cg_iters"],
                                         _trace_csv_rows(res, trace.cg_iters, n)))
    return written


def _cmd_oracle(args) -> int:
    _, task = _point_task(args, args.samples)
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
    cfg, task = _point_task(args, args.chains)

    traces = {}
    for method in ("cdps", "dps"):
        rng = derive_rng(args.seed, "trace", method, args.d, args.m, args.sigma)
        _, trace, (res, _, _) = run_observed(method, cfg, task, rng, args.chains)
        print(f"{method}: mean residual_sq t=T {res[-1].mean():.4g} -> t=0 {res[0].mean():.4g}")
        traces[method] = res, trace.cg_iters

    rows = ([method] + row for method, (res, cg_iters) in traces.items()
            for row in _trace_csv_rows(res, cg_iters, args.chains))
    path = write_csv(Path(args.out) / f"trace_d{args.d}_m{args.m}_s{args.sigma!r}.csv",
                     ["method", "chain_id", "t", "residual_sq", "cg_iters"], rows)
    print(f"wrote {path}")
    return 0


def _cmd_diagnostics(args) -> int:
    cfg, task = _point_task(args, args.chains)
    schedule = task.schedule
    rng = derive_rng(args.seed, "diagnostics", args.d, args.m, args.sigma)
    _, _, (_, cos, mse) = run_observed("cdps", cfg, task, rng, args.chains)

    rows = ([t, f"{np.nanmean(cos[t]):.8g}", f"{np.nanmean(mse[t]):.8g}", args.chains]
            for t in range(schedule.num_steps, 0, -1))
    path = write_csv(Path(args.out) / f"diagnostics_d{args.d}_m{args.m}_s{args.sigma!r}.csv",
                     ["t", "cos_mean", "mse_mean", "n_chains"], rows)
    valid = np.arange(1, schedule.num_steps + 1)
    print(f"mean cosine over trajectory: {np.nanmean(cos[valid]):.4f}")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cdps-bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the benchmark grid")
    run.add_argument("--config", help="JSON config mirroring BenchConfig fields")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--methods", help="comma-separated subset of cdps,dps,score_sde,ilvr")
    run.add_argument("--trace", action="store_true", help="also write residual trace CSVs")
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
        p.add_argument("--matrix", type=int, default=0)
        p.add_argument("--seed", type=int, default=0)

    oracle = sub.add_parser("oracle", help="exact-posterior sanity run")
    _common(oracle)
    oracle.add_argument("--samples", type=int, default=1000)
    oracle.add_argument("--out", default=None)
    oracle.set_defaults(func=_cmd_oracle)

    trace = sub.add_parser("trace", help="measurement-residual trajectories")
    _common(trace)
    trace.add_argument("--chains", type=int, default=100)
    trace.add_argument("--out", required=True)
    trace.set_defaults(func=_cmd_trace)

    diag = sub.add_parser("diagnostics", help="score-consistency diagnostics")
    _common(diag)
    diag.add_argument("--chains", type=int, default=20)
    diag.add_argument("--out", required=True)
    diag.set_defaults(func=_cmd_diagnostics)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
