import csv
import dataclasses
import functools
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cdps.bench
import cdps.operators
import cdps.sampler
from cdps.bench import (
    BenchAbort,
    BenchConfig,
    RESULT_COLUMNS,
    derive_rng,
    emit_results,
    make_measurement_model,
    make_task,
    run_config,
    run_grid,
    run_method,
)
from cdps.cli import main as cli_main
from cdps.gmm import make_grid_gmm, score_fn_for
from cdps.operators import IsotropicNoise
from cdps.sampler import SolverConfig
from cdps.schedules import make_linear_schedule

ROOT = Path(__file__).resolve().parents[1]


def smoke_config(**overrides):
    base = dict(
        dims=(8,),
        measurements=(4,),
        sigmas=(1e-2,),
        matrices_per_config=2,
        samples_per_run=100,
        sw_slices=1000,
        num_steps=200,
        methods=("cdps", "dps"),
        master_seed=0,
        record_timing=False,
    )
    base.update(overrides)
    # keep the discretized betas well inside (0, 1) for shortened schedules
    base.setdefault("beta_max", base["num_steps"] / 4.0)
    return BenchConfig(**base)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def load_module(relpath):
    """A module of the repository outside the package, such as perfbench/tracer.py."""
    spec = importlib.util.spec_from_file_location(Path(relpath).stem, ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_grid_runs_and_emits(tmp_path):
    cfg = smoke_config()
    result = run_grid(cfg)
    assert len(result.rows) == 2 * 2  # methods x matrices
    paths = emit_results(result, tmp_path, cfg)
    rows = read_csv(tmp_path / "results.csv")
    assert rows[0] == list(RESULT_COLUMNS)
    assert len(rows) == 1 + 4
    for row in rows[1:]:
        assert row[0] in ("cdps", "dps")
        assert float(row[5]) >= 0.0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary["aggregates"]) == 2
    assert summary["aborted"] == []
    assert (tmp_path / "summary.json") in paths
    env = summary["environment"]
    assert env["master_seed"] == cfg.master_seed
    assert (env["python"], env["numpy"]) == (platform.python_version(), np.__version__)
    assert env["blas"] and env["git_sha"]


def test_environment_outside_a_checkout(monkeypatch):
    def no_git(*args, **kwargs):
        raise FileNotFoundError("git")

    monkeypatch.setattr(cdps.bench.subprocess, "run", no_git)
    env = cdps.bench.environment(7)
    assert (env["git_sha"], env["master_seed"]) == ("unknown", 7)


def test_rerun_is_byte_identical(tmp_path):
    cfg = smoke_config(matrices_per_config=1, samples_per_run=50, num_steps=100)
    emit_results(run_grid(cfg), tmp_path / "a", cfg)
    emit_results(run_grid(cfg), tmp_path / "b", cfg)
    assert (tmp_path / "a/results.csv").read_bytes() == (tmp_path / "b/results.csv").read_bytes()
    assert (tmp_path / "a/summary.json").read_bytes() == (tmp_path / "b/summary.json").read_bytes()


def test_summary_mean_matches_rows(tmp_path):
    cfg = smoke_config(methods=("cdps",), matrices_per_config=3, samples_per_run=50,
                       num_steps=100)
    result = run_grid(cfg)
    emit_results(result, tmp_path, cfg)
    rows = read_csv(tmp_path / "results.csv")[1:]
    sws = [float(r[5]) for r in rows]
    summary = json.loads((tmp_path / "summary.json").read_text())
    agg = summary["aggregates"][0]
    assert agg["sw_mean"] == pytest.approx(np.mean(sws), rel=1e-9)
    assert agg["n_matrices"] == 3


def test_empty_methods_gives_header_only_csv(tmp_path):
    cfg = smoke_config(methods=())
    result = run_grid(cfg)
    emit_results(result, tmp_path, cfg)
    assert read_csv(tmp_path / "results.csv") == [list(RESULT_COLUMNS)]


def test_single_row_csv(tmp_path):
    cfg = smoke_config(methods=("cdps",), matrices_per_config=1, samples_per_run=50,
                       num_steps=100)
    emit_results(run_grid(cfg), tmp_path, cfg)
    assert len(read_csv(tmp_path / "results.csv")) == 2


def test_grid_completeness():
    cfg = smoke_config(dims=(4, 8), measurements=(1, 2), sigmas=(0.1, 1.0),
                       methods=("cdps",), matrices_per_config=1,
                       samples_per_run=20, sw_slices=100, num_steps=50)
    result = run_grid(cfg)
    keys = {(r["method"], r["d"], r["m"], r["sigma"], r["matrix"]) for r in result.rows}
    assert len(keys) == len(result.rows) == 2 * 2 * 2


def test_full_grid_flag_gates_large_dims():
    cfg = smoke_config(dims=(8, 800))
    assert cfg.active_dims() == (8,)
    cfg.full_grid = True
    assert cfg.active_dims() == (8, 800)


def test_shared_measurement_model_across_methods():
    cfg = smoke_config()
    _, A1, x1, y1 = make_measurement_model(cfg, 8, 4, 1e-2, 0)
    _, A2, x2, y2 = make_measurement_model(cfg, 8, 4, 1e-2, 0)
    np.testing.assert_array_equal(A1.dense, A2.dense)
    np.testing.assert_array_equal(y1, y2)


def test_seed_derivation_distinct_and_canonical():
    a = derive_rng(0, "matrix", 8, 4, 0.01, 0).standard_normal(4)
    b = derive_rng(0, "matrix", 8, 4, 1e-2, 0).standard_normal(4)
    np.testing.assert_array_equal(a, b)  # repr-equal floats share a stream
    c = derive_rng(0, "matrix", 8, 4, 0.1, 0).standard_normal(4)
    assert not np.array_equal(a, c)
    d = derive_rng(1, "matrix", 8, 4, 0.01, 0).standard_normal(4)
    assert not np.array_equal(a, d)
    # numpy floats are the same values, so the same stream.
    e = derive_rng(0, "matrix", 8, 4, np.float64(0.01), 0).standard_normal(4)
    np.testing.assert_array_equal(a, e)


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(methods=("nonsense",))
    with pytest.raises(ValueError):
        BenchConfig(dims=(7,))
    with pytest.raises(ValueError):
        BenchConfig(dims=(2,), measurements=(4,))
    # A grid point no task can run is refused up front as well.
    with pytest.raises(ValueError, match="1 <= m <= d"):
        BenchConfig(measurements=(0,))
    with pytest.raises(ValueError, match="d must be"):
        BenchConfig(dims=(-2,), measurements=(-4,))
    with pytest.raises(ValueError):
        BenchConfig(sw_order=3)
    with pytest.raises(ValueError):
        BenchConfig(samples_per_run=0)
    # A bad sigma or beta range is refused up front, not at the first task that uses it.
    for sigmas in [(0.0,), (-1.0,), (float("nan"),), (1e-2, float("inf"))]:
        with pytest.raises(ValueError, match="sigma"):
            BenchConfig(sigmas=sigmas)
    with pytest.raises(ValueError, match="beta_max"):
        BenchConfig(beta_min=1.0, beta_max=0.5)
    with pytest.raises(ValueError, match="beta_min"):
        BenchConfig(beta_min=0.0)
    with pytest.raises(ValueError, match="underflowed"):
        BenchConfig(num_steps=200)


def test_run_config_scatter_samples():
    cfg = smoke_config(methods=("cdps",), samples_per_run=30, sw_slices=100,
                       num_steps=50)
    rows, samples = run_config(cfg, 8, 4, 1e-2, 0, keep_samples=True)
    assert set(samples) == {"posterior", "cdps"}
    assert samples["cdps"].shape == (30, 8)


def test_optional_guidance_methods_run():
    cfg = smoke_config(methods=("score_sde", "ilvr"), matrices_per_config=1,
                       samples_per_run=20, sw_slices=100, num_steps=50)
    result = run_grid(cfg)
    assert {r["method"] for r in result.rows} == {"score_sde", "ilvr"}
    assert all(np.isfinite(r["sw"]) for r in result.rows)


def test_failed_cdps_rows_are_counted_and_dropped(monkeypatch):
    # An operator without a dense form runs CG; one iteration at tol 1e-14
    # fails every row. run_method records the failed rows instead of raising,
    # and run_config counts them and gives the task up past 10% of its chains.
    monkeypatch.setattr(cdps.bench, "SolverConfig", functools.partial(
        cdps.sampler.SolverConfig, cg_tol=1e-14, cg_max_iter=1))
    real = cdps.bench.cdps_sample
    monkeypatch.setattr(cdps.bench, "cdps_sample", lambda y, A, *args, **kwargs: real(
        y, dataclasses.replace(A, dense=None), *args, **kwargs))
    cfg = smoke_config(methods=("cdps",), samples_per_run=6, num_steps=5)
    x0, trace = run_method("cdps", cfg, make_task(cfg, 8, 4, 1e-2, 0), derive_rng(0, "cdps"), 6)
    assert x0.shape == (6, 8)
    assert trace.failed_rows.tolist() == list(range(6))
    with pytest.raises(BenchAbort, match="6 of 6 chains failed"):
        run_config(cfg, 8, 4, 1e-2, 0)


@pytest.mark.parametrize("method", ["cdps", "dps", "score_sde", "ilvr"])
def test_run_config_drops_failed_rows_of_every_method(method, monkeypatch):
    # Whichever sampler reports a failed row, that row alone is counted and
    # dropped from the samples scored; it is never rerun.
    real = getattr(cdps.bench, f"{method}_sample")
    drawn = []

    def row_3_fails(*args, **kwargs):
        x0, trace = real(*args, **kwargs)
        trace.failed_rows = np.array([3])
        drawn.append(x0)
        return x0, trace

    monkeypatch.setattr(cdps.bench, f"{method}_sample", row_3_fails)
    cfg = smoke_config(methods=(method,), samples_per_run=20, sw_slices=100, num_steps=20)
    rows, samples = run_config(cfg, 8, 4, 1e-2, 0, keep_samples=True)
    assert len(drawn) == 1 and rows[0]["failures"] == 1
    np.testing.assert_array_equal(samples[method], np.delete(drawn[0], 3, axis=0))


def test_numerical_error_costs_one_task(monkeypatch):
    # A ValueError from one task's sampler is recorded like an abort, naming
    # the method, and the rest of the grid still runs: the other method's
    # row for the same matrix included.
    cfg = smoke_config(matrices_per_config=3, samples_per_run=20, sw_slices=100, num_steps=20)
    bad_y = make_measurement_model(cfg, 8, 4, 1e-2, 1)[3]
    real = cdps.bench.cdps_sample

    def faulty(y, *args, **kwargs):
        if np.array_equal(y, bad_y):
            raise ValueError("rhs must be finite")
        return real(y, *args, **kwargs)

    monkeypatch.setattr(cdps.bench, "cdps_sample", faulty)
    result = run_grid(cfg)
    assert [(a["method"], a["matrix"], a["reason"]) for a in result.aborted] == [
        ("cdps", 1, "rhs must be finite")]
    assert [(r["method"], r["matrix"]) for r in result.rows] == [
        ("cdps", 0), ("cdps", 2), ("dps", 0), ("dps", 1), ("dps", 2)]


def test_workers_do_not_change_results(tmp_path):
    cfg1 = smoke_config(methods=("cdps",), matrices_per_config=2, samples_per_run=30,
                        sw_slices=200, num_steps=50, workers=1)
    cfg2 = smoke_config(methods=("cdps",), matrices_per_config=2, samples_per_run=30,
                        sw_slices=200, num_steps=50, workers=2)
    r1 = run_grid(cfg1)
    r2 = run_grid(cfg2)
    assert [row["sw"] for row in r1.rows] == [row["sw"] for row in r2.rows]


def test_import_loads_neither_scipy_nor_process_pool():
    code = ("import sys, cdps, cdps.cli\n"
            "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')"
            " or k == 'concurrent.futures.process'))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_with_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dims": [8], "measurements": [4], "sigmas": [0.01],
        "matrices_per_config": 1, "samples_per_run": 30, "sw_slices": 200,
        "num_steps": 50, "beta_max": 12.5, "methods": ["cdps"], "record_timing": False,
    }))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "3", "--scatter"]) == 0
    assert (out / "results.csv").exists()
    assert (out / "summary.json").exists()
    scatters = list(out.glob("scatter_*.csv"))
    assert len(scatters) == 1
    header = read_csv(scatters[0])[0]
    assert header == ["source", "x1", "x2"]


def test_cli_run_trace_flag(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dims": [8], "measurements": [2], "sigmas": [0.1],
        "matrices_per_config": 1, "samples_per_run": 20, "sw_slices": 100,
        "num_steps": 50, "beta_max": 12.5, "methods": ["cdps"],
        "record_timing": False,
    }))
    out = tmp_path / "out"
    cli_main(["run", "--config", str(cfg_path), "--out", str(out), "--trace"])
    traces = list(out.glob("trace_cdps_*.csv"))
    assert len(traces) == 1
    rows = read_csv(traces[0])
    assert rows[0] == ["chain_id", "t", "residual_sq", "cg_iters"]
    assert len(rows) == 1 + 20 * 51


def test_cli_shared_y_chain_traces_use_the_shared_chain(tmp_path):
    # `run --shared-y-chain --trace` writes the residuals of the run its
    # results come from: C-DPS with one measurement chain shared by every row.
    params = {"dims": [8], "measurements": [2], "sigmas": [0.1], "matrices_per_config": 1,
              "samples_per_run": 20, "sw_slices": 100, "num_steps": 50, "beta_max": 12.5,
              "methods": ["cdps"], "record_timing": False}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(params))
    out = tmp_path / "out"
    cli_main(["run", "--config", str(cfg_path), "--out", str(out), "--trace",
              "--shared-y-chain", "--seed", "5"])

    cfg = BenchConfig(**params, master_seed=5)
    prior, A, _, y = make_measurement_model(cfg, 8, 2, 0.1, 0)
    schedule = make_linear_schedule(50, 0.1, 12.5)
    _, trace = cdps.sampler.cdps_sample(
        y, A, IsotropicNoise(0.1 * 0.1), schedule, score_fn_for(prior, schedule),
        derive_rng(5, "trace", 8, 2, 0.1), n_chains=20, config=SolverConfig(strict=False),
        shared_chain=True, record_residuals=True)
    rows = read_csv(out / "trace_cdps_d8_m2_s0.1.csv")[1:]
    assert len(rows) == 20 * 51
    for chain, t, residual_sq, _ in rows:
        assert residual_sq == f"{trace.residual_sq[int(t), int(chain)]:.12g}"


def test_cli_rejects_unknown_config_keys(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dims": [8], "bogus": 1}))
    with pytest.raises(SystemExit):
        cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])


def test_cli_methods_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dims": [8], "measurements": [1], "sigmas": [0.1],
        "matrices_per_config": 1, "samples_per_run": 20, "sw_slices": 100,
        "num_steps": 50, "beta_max": 12.5, "methods": ["cdps", "dps"], "record_timing": False,
    }))
    out = tmp_path / "out"
    cli_main(["run", "--config", str(cfg_path), "--out", str(out),
              "--methods", "cdps"])
    rows = read_csv(out / "results.csv")[1:]
    assert {r[0] for r in rows} == {"cdps"}


def test_cli_oracle_trace_diagnostics(tmp_path, capsys):
    out = tmp_path / "aux"
    assert cli_main(["oracle", "--d", "4", "--m", "2", "--sigma", "0.1",
                     "--samples", "50", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "posterior weights sum: 1.0" in printed
    oracle_files = list(out.glob("oracle_*.csv"))
    assert len(oracle_files) == 1
    assert len(read_csv(oracle_files[0])) == 51

    assert cli_main(["trace", "--d", "4", "--m", "2", "--sigma", "0.1",
                     "--chains", "3", "--out", str(out)]) == 0
    trace_files = list(out.glob("trace_*.csv"))
    assert len(trace_files) == 1
    rows = read_csv(trace_files[0])
    assert rows[0] == ["method", "chain_id", "t", "residual_sq", "cg_iters"]
    # both methods, 3 chains, BenchConfig default T=1000 levels 0..T
    assert len(rows) == 1 + 2 * 3 * 1001

    assert cli_main(["diagnostics", "--d", "4", "--m", "2", "--sigma", "0.1",
                     "--chains", "3", "--out", str(out)]) == 0
    diag_files = list(out.glob("diagnostics_*.csv"))
    assert len(diag_files) == 1
    rows = read_csv(diag_files[0])
    assert rows[0] == ["t", "cos_mean", "mse_mean", "n_chains"]
    assert len(rows) == 1 + 1000


def test_perfbench_tracer_sites_resolve_and_restore():
    # perfbench/tracer.py patches named attributes of the package.  Each must
    # resolve, be replaced while the tracer is installed and be restored on
    # exit, and the coupled step must still reach the solver layers through
    # those names, or `perfbench/run.py --trace 1` breaks or reads zero.
    tracer_mod = load_module("perfbench/tracer.py")
    tracer = tracer_mod.Tracer()
    sites = [(owner, attr) for owner, attr, _ in tracer_mod._patches(tracer)]
    before = [getattr(owner, attr) for owner, attr in sites]

    d = 8
    schedule = make_linear_schedule(20, 0.1, 5.0)
    score_fn = score_fn_for(make_grid_gmm(d), schedule)
    with tracer_mod.installed(tracer):
        assert all(getattr(o, a) is not f for (o, a), f in zip(sites, before))
        # Built while installed, so its calls are counted; without its dense
        # form it takes the CG path.
        A = dataclasses.replace(cdps.operators.blur_operator([0.25, 0.5, 0.25], d), dense=None)
        with tracer.root_span("task"):
            cdps.sampler.cdps_sample(np.ones(d), A, IsotropicNoise(1e-2), schedule, score_fn,
                                     np.random.default_rng(0), n_chains=3)
    assert all(getattr(o, a) is f for (o, a), f in zip(sites, before))
    calls = tracer.summary()["calls"]
    for name in ("sampler.cdps_sample", "sampler.generate_measurement_chain",
                 "operators.mix_conditional_cov", "operators.make_whitener",
                 "linalg.diag_preconditioner", "linalg.cg_solve.draw", "linalg.matvec",
                 "operators.apply", "operators.adjoint"):
        assert calls[name] > 0, name


def test_perfbench_tracer_counts_run_config_samplers():
    # The gmm-d8 workload times bench.run_config. Its sampler spans come from
    # the bench globals that run_method looks up at call time, and a
    # cdps_sample call without n_chains= would be counted as a retry.
    tracer_mod = load_module("perfbench/tracer.py")
    tracer = tracer_mod.Tracer()
    cfg = smoke_config(matrices_per_config=1, samples_per_run=10, sw_slices=100, num_steps=20)
    with tracer_mod.installed(tracer), tracer.root_span("task"):
        cdps.bench.run_config(cfg, 8, 4, 1e-2, 0)
    calls = tracer.summary()["calls"]
    assert calls["bench.run_config"] == 1
    assert calls["sampler.cdps_sample"] == 1
    assert calls["sampler.dps_sample"] == 1
    assert tracer.counters["bench.retry_reruns"] == 0


def test_bench_pairs_summarises_printed_task_seconds():
    # tools/bench_pairs.py reads each run's `metric NAME VALUE UNIT` lines, so
    # the raw seconds per task sit beside task_cal in the summary.
    pairs_mod = load_module("tools/bench_pairs.py")
    lines = ["tasks: 3", "metric cdps.task_s 0.25 s", "metric dps.task_cal 176.5 cal",
             "metric peak_rss_mb 59.0 MiB", "metric broken value s", '{"correct": true}']
    assert pairs_mod.printed_metrics(lines) == {
        "cdps.task_s": 0.25, "dps.task_cal": 176.5, "peak_rss_mb": 59.0}
    runs = [{"parent": {"cdps.task_s": 0.2 + 0.01 * i, "correct": True, "failed": 0, "exit": 0},
             "change": {"cdps.task_s": 0.15 + 0.01 * i, "correct": True, "failed": 0, "exit": 0}}
            for i in range(4)]
    summary = pairs_mod.summarize(runs, list(pairs_mod.RAW_METRICS))
    assert summary["cdps.task_s"]["change_better_in_pairs"] == "4/4"
    assert summary["cdps.task_s"]["bound"] is None
    assert "dps.task_s" not in summary and summary["all_correct_failed_0"]
    # 4/4 pairs and a median gap of 0.05 against a parent IQR of 0.015.
    assert summary["cdps.task_s"]["claim_rule_met"]
    assert summary["cdps.task_s"]["worse_beyond_bound"] is None


@pytest.mark.parametrize("change, claim, worse", [
    ((0.90, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.98, 1.10), True, False),  # 9/10 wins
    ((0.90, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 1.10, 1.10), False, False),  # 8/10 wins
    ((0.99,) * 10, False, False),  # 10/10 wins, median gap 0.01 inside the parent IQR 0.015
    ((1.05,) * 10, False, False),  # 5% worse, inside the 10% bound
    ((1.15,) * 10, False, True),  # 15% worse
])
def test_bench_pairs_claim_and_bound_verdicts(change, claim, worse):
    pairs_mod = load_module("tools/bench_pairs.py")
    parent = (0.97, 0.98, 0.99, 1.0, 1.0, 1.0, 1.0, 1.01, 1.02, 1.03)
    runs = [{"parent": {"m": p}, "change": {"m": c}} for p, c in zip(parent, change)]
    spec = {"name": "m", "better": "lower", "bound": 0.1}
    lower = pairs_mod.summarize(runs, [spec])["m"]
    assert (lower["claim_rule_met"], lower["worse_beyond_bound"]) == (claim, worse)
    # The same runs with the sign flipped, higher being better, give the same verdicts.
    flipped = [{side: {"m": -v["m"]} for side, v in pair.items()} for pair in runs]
    higher = pairs_mod.summarize(flipped, [{**spec, "better": "higher"}])["m"]
    assert (higher["claim_rule_met"], higher["worse_beyond_bound"]) == (claim, worse)
