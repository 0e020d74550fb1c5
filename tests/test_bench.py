import csv
import dataclasses
import functools
import importlib.util
import json
import os
import platform
import re
import signal
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
from cdps.metrics import IterateTrace
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

    monkeypatch.setattr(subprocess, "run", no_git)  # environment imports it when called
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


def test_output_files_make_their_directory_and_name_a_failed_write(tmp_path):
    # Every output file, summary.json included, goes through one writer: it
    # makes the file's directory and names the file in an OSError.
    path = cdps.bench.write_csv(tmp_path / "new" / "deeper" / "x.csv", ["a", "b"], [[1, 2]])
    assert read_csv(path) == [["a", "b"], ["1", "2"]]
    cfg = smoke_config(methods=())
    (tmp_path / "out" / "summary.json").mkdir(parents=True)
    with pytest.raises(OSError, match=r"failed writing .*summary\.json"):
        emit_results(run_grid(cfg), tmp_path / "out", cfg)


@pytest.mark.parametrize("method", ["bogus", "CDPS"])
def test_run_method_refuses_an_unknown_method(method):
    cfg = smoke_config()
    task = make_task(cfg, 8, 4, 1e-2, 0)
    rng = derive_rng(0, "unknown method")
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"unknown method '{method}'"):
        run_method(method, cfg, task, rng)
    assert rng.bit_generator.state == state


def test_grid_completeness():
    cfg = smoke_config(dims=(4, 8), measurements=(1, 2), sigmas=(0.1, 1.0),
                       methods=("cdps",), matrices_per_config=1,
                       samples_per_run=20, sw_slices=100, num_steps=50)
    result = run_grid(cfg)
    keys = {(r["method"], r["d"], r["m"], r["sigma"], r["matrix"]) for r in result.rows}
    assert len(keys) == len(result.rows) == 2 * 2 * 2


def test_grid_runs_every_dim_it_lists():
    # Large dims are not filtered out: a grid of only d = 82 returns its rows.
    cfg = smoke_config(dims=(82,), matrices_per_config=2, samples_per_run=20,
                       sw_slices=100, num_steps=20)
    result = run_grid(cfg)
    assert result.aborted == []
    assert [(r["method"], r["d"], r["matrix"]) for r in result.rows] == [
        (method, 82, k) for method in ("cdps", "dps") for k in range(2)]


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
    # Zero or negative workers used to run the grid in serial without a word.
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            BenchConfig(workers=workers)
    # json.load reads a NaN literal; a NaN dps_zeta used to abort every DPS task of the grid.
    for name in ("dps_zeta", "guidance_scale"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"{name}.* must be finite"):
                BenchConfig(**{name: bad})
    BenchConfig(dps_zeta=0.0, guidance_scale=-1.0)


@pytest.mark.parametrize("field, value, refused", [
    ("dims", (8.5,), "dims must be an integer"),
    ("dims", (8, True), "dims must be an integer"),
    ("measurements", (1.5,), "measurements must be an integer"),
    ("samples_per_run", 10.5, "samples_per_run must be an integer"),
    ("matrices_per_config", 1.5, "matrices_per_config must be an integer"),
    ("sw_slices", 100.0, "sw_slices must be an integer"),
    ("sw_order", True, "sw_order must be an integer"),
    ("num_steps", 200.0, "num_steps must be an integer"),
    ("master_seed", 1.5, "master_seed must be an integer"),
    ("workers", 1.5, "workers must be an integer"),
], ids=["dims-float", "dims-bool", "measurements-float", "samples_per_run-float",
        "matrices_per_config-float", "sw_slices-float", "sw_order-bool", "num_steps-float",
        "master_seed-float", "workers-float"])
def test_config_refuses_a_count_that_is_not_an_integer(field, value, refused):
    # d = 8.5 used to run d = 8 and a fractional seed was truncated; the
    # other counts ended in a TypeError deep in numpy, range or
    # multiprocessing, and sw_order = True scored SW of order 1.
    with pytest.raises(ValueError, match=refused):
        BenchConfig(**{field: value})


def test_config_accepts_numpy_integers():
    cfg = BenchConfig(dims=(np.int64(8),), measurements=(np.int32(2),),
                      samples_per_run=np.int64(10), master_seed=np.uint8(3))
    assert cfg.dims == (8,) and type(cfg.dims[0]) is int and cfg.measurements == (2,)


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
    # An operator without a dense form runs CG; held to one iteration at tol
    # 1e-14 it fails every row. run_method records the failed rows instead of
    # raising, and run_config counts them and gives the task up past 10% of
    # its chains.
    monkeypatch.setattr(cdps.sampler, "cg_solve", functools.partial(
        cdps.sampler.cg_solve, tol=1e-14, max_iter=1))
    real = cdps.bench.cdps_sample
    monkeypatch.setattr(cdps.bench, "cdps_sample", lambda y, A, *args, **kwargs: real(
        y, dataclasses.replace(A, dense=None), *args, **kwargs))
    cfg = smoke_config(methods=("cdps",), samples_per_run=6, num_steps=5)
    x0, trace = run_method("cdps", cfg, make_task(cfg, 8, 4, 1e-2, 0), derive_rng(0, "cdps"))
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
    # Each sampler run and a grid with workers > 1 import the executor they
    # use, so importing cdps loads no module of concurrent.futures; the
    # record writers and the config reader import subprocess, csv and json.
    code = ("import sys, cdps, cdps.cli\n"
            "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')"
            " or k == 'concurrent.futures' or k.startswith('concurrent.futures.')"
            " or k in ('subprocess', 'csv', 'json') or k.startswith('json.')))\n")
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


TRACE_PARAMS = {"dims": [8], "measurements": [2], "sigmas": [0.1], "matrices_per_config": 1,
                "samples_per_run": 20, "sw_slices": 100, "num_steps": 50, "beta_max": 12.5,
                "methods": ["cdps"], "record_timing": False}


def test_cli_run_trace_flag(tmp_path):
    # `run --trace` records every method the run ran.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TRACE_PARAMS, "methods": ["cdps", "dps"]}))
    out = tmp_path / "out"
    cli_main(["run", "--config", str(cfg_path), "--out", str(out), "--trace"])
    traces = list(out.glob("trace_*.csv"))
    assert [p.name for p in traces] == ["trace_d8_m2_s0.1.csv"]
    rows = read_csv(traces[0])
    assert rows[0] == list(cdps.bench.TRACE_COLUMNS)
    assert [r[0] for r in rows[1:]] == ["cdps"] * (20 * 51) + ["dps"] * (20 * 51)
    record = json.loads((out / "trace_d8_m2_s0.1.json").read_text())
    assert record["config"]["methods"] == ["cdps", "dps"]
    assert record["environment"]["master_seed"] == 0


def test_cli_run_trace_records_the_chain_count_it_traced(tmp_path):
    # `run --trace` traces at most 100 chains; its JSON's config says how
    # many, so the record describes the run its table comes from.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TRACE_PARAMS, "samples_per_run": 150}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out), "--trace"]) == 0
    chains = {row[1] for row in read_csv(out / "trace_d8_m2_s0.1.csv")[1:]}
    record = json.loads((out / "trace_d8_m2_s0.1.json").read_text())
    assert len(chains) == 100
    assert record["config"]["samples_per_run"] == len(chains)


def test_cli_shared_y_chain_traces_use_the_shared_chain(tmp_path):
    # `run --shared-y-chain --trace` writes the residuals of the run its
    # results come from: C-DPS with one measurement chain shared by every row.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TRACE_PARAMS))
    out = tmp_path / "out"
    cli_main(["run", "--config", str(cfg_path), "--out", str(out), "--trace",
              "--shared-y-chain", "--seed", "5"])

    cfg = BenchConfig(**TRACE_PARAMS, master_seed=5)
    prior, A, _, y = make_measurement_model(cfg, 8, 2, 0.1, 0)
    schedule = make_linear_schedule(50, 0.1, 12.5)
    observer = IterateTrace(score_fn_for(prior, schedule), y, A)
    x0, _ = cdps.sampler.cdps_sample(
        y, A, IsotropicNoise(0.1 * 0.1), schedule, observer,
        derive_rng(5, "trace", "cdps", 8, 2, 0.1), n_chains=20,
        config=SolverConfig(strict=False), shared_chain=True)
    expected = observer.close(x0)[0]
    rows = read_csv(out / "trace_d8_m2_s0.1.csv")[1:]
    assert len(rows) == 20 * 51
    for _, chain, t, residual_sq, *_ in rows:
        assert residual_sq == f"{expected[int(t), int(chain)]:.12g}"


@pytest.mark.parametrize("method", ["cdps", "dps"])
def test_write_trace_columns_are_an_observed_run(tmp_path, monkeypatch, method):
    # Each written residual and score value is that of an IterateTrace on the
    # record's stream, to the written digits. cg_iters and failed come from
    # the run's SamplerTrace, here one whose every step and one chain differ.
    cfg = smoke_config(measurements=(2,), sigmas=(0.1,), num_steps=30, methods=(method,),
                       samples_per_run=4)
    observed = cdps.bench.run_observed
    fake = cdps.sampler.SamplerTrace(np.array([1]), 10 * np.arange(31))

    def with_fake_trace(*args):
        x0, _, records = observed(*args)
        return x0, fake, records

    monkeypatch.setattr(cdps.bench, "run_observed", with_fake_trace)
    paths = cdps.bench.write_trace(cfg, 8, 2, 0.1, tmp_path)
    assert [p.name for p in paths] == ["trace_d8_m2_s0.1.csv", "trace_d8_m2_s0.1.json"]
    rng = derive_rng(cfg.master_seed, "trace", method, 8, 2, 0.1)
    _, _, records = observed(method, cfg, make_task(cfg, 8, 2, 0.1, 0), rng)
    rows = read_csv(paths[0])[1:]
    assert [(r[0], int(r[1]), int(r[2])) for r in rows] == [
        (method, chain, t) for chain in range(4) for t in range(30, -1, -1)]
    for _, chain, t, *values, cg_iters, failed in rows:
        chain, t = int(chain), int(t)
        assert values == [f"{a[t, chain]:.12g}" for a in records]
        assert int(cg_iters) == (10 * (t + 1) if t < 30 else 0)
        assert int(failed) == (chain == 1)
    assert {(r[4], r[5]) for r in rows if r[2] == "0"} == {("nan", "nan")}
    assert "nan" not in {r[k] for r in rows if r[2] != "0" for k in (4, 5)}


def test_cli_rejects_unknown_config_keys(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dims": [8], "bogus": 1}))
    with pytest.raises(SystemExit):
        cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("config, flags, refused", [
    ({}, ["--workers", "0"], "workers must be an integer >= 1, got 0"),
    ({"num_steps": 0}, [], "num_steps must be an integer >= 1, got 0"),
    ({"dims": [7]}, [], "every d must be an even integer >= 2"),
    ({"dps_zeta": float("nan")}, [], "dps_zeta must be finite, a real number, got nan"),
    ({"dims": [8.5]}, [], "dims must be an integer, got 8.5"),
], ids=["workers", "num_steps", "odd-d", "nan-zeta", "fractional-d"])
def test_cli_reports_a_refused_config_value_in_one_line(tmp_path, config, flags, refused):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), *flags])
    assert exc.value.code == f"invalid config: {refused}"
    assert not (tmp_path / "o").exists()


_POINT_REFUSALS = [
    (command, flags, refused)
    for command in ("oracle", "trace")
    for flags, refused in [
        (["--d", "7"], "every d must be an even integer >= 2"),
        (["--m", "9"], "need 1 <= m <= d for every grid point"),
        (["--sigma", "-1"], "every sigma must be positive and finite, a real number, got -1.0"),
        (["--samples" if command == "oracle" else "--chains", "0"],
         "samples_per_run must be an integer >= 1, got 0"),
    ]
]


@pytest.mark.parametrize("command, flags, refused", _POINT_REFUSALS,
                         ids=[f"{c}{'-'.join(f)}" for c, f, _ in _POINT_REFUSALS])
def test_point_commands_report_a_refused_value_in_one_line(tmp_path, command, flags, refused):
    # oracle and trace used to end in a traceback for these, and
    # trace --chains 0 printed NaN means and wrote a header-only CSV.
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli_main([command, *flags, *([] if command == "oracle" else ["--out", str(out)])])
    assert exc.value.code == f"invalid config: {refused}"
    assert not out.exists()


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
    assert rows[0] == ["method", "chain_id", "t", "residual_sq", "score_cos", "score_mse",
                       "cg_iters", "failed"]
    # both methods, 3 chains, BenchConfig default T=1000 levels 0..T
    assert len(rows) == 1 + 2 * 3 * 1001
    record = json.loads(trace_files[0].with_name("trace_d4_m2_s0.1.json").read_text())
    assert sorted(record) == ["config", "environment"]
    assert record["config"]["methods"] == ["cdps", "dps"]

    # The score columns: NaN at t = 0, a cosine in [-1, 1] and a nonnegative
    # MSE at every other level, for both methods.
    for method in ("cdps", "dps"):
        levels = [r for r in rows[1:] if r[0] == method]
        assert {(r[4], r[5]) for r in levels if r[2] == "0"} == {("nan", "nan")}
        cos = np.array([float(r[4]) for r in levels if r[2] != "0"])
        mse = np.array([float(r[5]) for r in levels if r[2] != "0"])
        assert cos.size == mse.size == 3 * 1000
        assert np.all(np.abs(cos) <= 1.0 + 1e-12) and np.all(mse >= 0.0)


def _readme_cli_commands() -> list[str]:
    """The subcommand of every ``cdps-bench`` line in the README's CLI block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split()[1] for line in block.splitlines() if line.startswith("cdps-bench ")]


def test_readme_cli_block_matches_the_parser(capsys):
    # Every command the README's CLI block advertises is one the parser takes,
    # and every subcommand the parser has is advertised there.
    advertised = _readme_cli_commands()
    for command in advertised:
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--help"])
        assert exc.value.code == 0, command
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli_main(["--help"])
    subcommands = re.search(r"usage: cdps-bench \[-h\] \{([\w,]+)\}", capsys.readouterr().out)
    assert sorted(set(advertised)) == sorted(subcommands.group(1).split(","))


def test_cli_has_no_diagnostics_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["diagnostics", "--help"])
    assert exc.value.code == 2
    assert "invalid choice: 'diagnostics'" in capsys.readouterr().err


def test_perfbench_tracer_lookup_sites_exist():
    # `installed()` reads every site it patches, so a name deleted from the
    # package makes a `perfbench/run.py --trace 1` run raise AttributeError.
    # This checks the names alone, installing nothing.
    tracer_mod = load_module("perfbench/tracer.py")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracer_mod._patches(tracer_mod.Tracer())
               if not hasattr(owner, attr)]
    assert not missing


def test_pool_outputs_step_fingerprints_run_on_a_small_task():
    # tools/pool_outputs.py calls the single step by its signature, so a
    # change to that signature must show here, not at the tool's next run.
    tool = load_module("tools/pool_outputs.py")
    d, m = 4, 2
    rng = np.random.default_rng(5)
    A = cdps.operators.from_dense(rng.standard_normal((m, d)))
    schedule = make_linear_schedule(20, 0.1, 5.0)
    digests = tool.step_fingerprints(A, rng.standard_normal(m),
                                     score_fn_for(make_grid_gmm(d), schedule), schedule, 0.1, 3,
                                     np.random.default_rng(6))
    assert len(digests) == 12 and len(set(digests.values())) == 12
    assert all(len(digest) == 64 for digest in digests.values())


def test_pool_outputs_trace_fingerprints_run_on_a_small_task():
    # tools/pool_outputs.py observes every method's run through run_method and
    # reads the rest from its SamplerTrace, so a change to either shows here.
    tool = load_module("tools/pool_outputs.py")
    cfg = BenchConfig(dims=(4,), measurements=(2,), sigmas=(0.1,), samples_per_run=3,
                      num_steps=20, beta_max=5.0, methods=cdps.bench.KNOWN_METHODS)
    digests = tool.trace_fingerprints(cdps.bench, cfg, 4, 2, 0.1, 0)
    assert sorted(digests) == sorted(cdps.bench.KNOWN_METHODS)
    assert sorted(digests.pop("cdps")) == ["cg_iters", "failed_rows", "residual_sq", "score_cos",
                                           "score_mse"]
    assert all(sorted(names) == ["failed_rows", "residual_sq"] for names in digests.values())
    assert len({names["residual_sq"] for names in digests.values()}) == 3


def test_pool_outputs_compare_counts_differences_and_fails_on_run_digests(tmp_path, capsys):
    tool = load_module("tools/pool_outputs.py")

    def task(samples="a", sw="2.0", trace="t", step="s", means="m"):
        return {"oracle_sha256": {"weights": "w", "means": means},
                "cdps": {"samples_sha256": samples, "sw": sw, "failures": 0,
                         "trace_sha256": {"residual_sq": trace}, "step_sha256": {"t1": step}},
                "ilvr": {"samples_sha256": "b", "sw": "4.0", "failures": 0}}

    parent = {"gmm-d8": {"0": task(), "1": task()}, "blur-d32": {"0": task()}}
    paths = {}
    for name, files in {"oracle": {"gmm-d8": {"0": task(means="x", sw="2.000000001"),
                                              "1": task(means="y")},
                                   "blur-d32": {"0": task()}},
                        "samples": {**parent, "blur-d32": {"0": task(samples="z")}},
                        "trace": {**parent, "gmm-d8": {"0": task(), "1": task(trace="u")}},
                        "step": {**parent, "blur-d32": {"0": task(step="v")}},
                        "missing": {**parent, "gmm-d8": {"0": task()}}}.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(files))
    (tmp_path / "parent.json").write_text(json.dumps(parent))

    def run(name):
        code = tool.main(["--compare", str(tmp_path / "parent.json"), str(paths[name])])
        return code, capsys.readouterr().out.splitlines()

    code, lines = run("oracle")
    assert code == 0
    assert "gmm-d8 means: 2 of 2 differ" in lines
    assert "gmm-d8 weights: 0 of 2 differ" in lines
    assert "gmm-d8 sw: 1 of 4 differ" in lines
    assert "gmm-d8 samples_sha256: 0 of 4 differ" in lines
    assert "gmm-d8 cdps sw: largest relative change 5e-10" in lines
    assert "gmm-d8 ilvr sw: largest relative change 0" in lines
    assert "blur-d32 means: 0 of 1 differ" in lines
    # main reads perfbench/reference.json, which records C-DPS on gmm-d8.
    assert any(line.startswith("gmm-d8 cdps sw: largest share of the reference tolerance ")
               for line in lines)
    reference = {"tolerance": {"rtol": 1e-4, "atol": 1e-4},
                 "workloads": {"gmm-d8": {"tasks": {"0": {"cdps": {"sw": 2.0}},
                                                    "1": {"cdps": {"sw": 2.0001}}}}}}
    lines, moved = tool.compare(parent, json.loads(paths["oracle"].read_text()), reference)
    assert not moved
    # Task 1's SW 2.0 is 1e-4 from 2.0001, a third of 1e-4 + 1e-4 * 2.0001.
    assert [line for line in lines if "share" in line] == [
        "gmm-d8 cdps sw: largest share of the reference tolerance 0.333, task 1"]
    for name, line in (("samples", "blur-d32 samples_sha256: 1 of 2 differ"),
                       ("trace", "gmm-d8 trace_sha256: 1 of 2 differ"),
                       ("step", "blur-d32 step_sha256: 1 of 1 differ"),
                       ("missing", "gmm-d8 samples_sha256: 2 of 4 differ")):
        code, lines = run(name)
        assert code == 1 and line in lines


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
                 "linalg.diag_preconditioner", "linalg.cg_solve.mean", "linalg.matvec",
                 "operators.apply", "operators.adjoint"):
        assert calls[name] > 0, name
    # The step's CG solve is looked up as cdps.sampler.cg_solve, so its report
    # reaches the mean solve's counters.
    assert tracer.counters["linalg.cg_solve.mean.iters"] > 0
    assert tracer.counters["cg.rows_attempted"] > 0


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
    # Each side's range shows its tail runs beside the quartiles.
    assert summary["cdps.task_s"]["parent"]["min"] == pytest.approx(0.2)
    assert summary["cdps.task_s"]["parent"]["max"] == pytest.approx(0.23)
    assert summary["cdps.task_s"]["change"]["max"] == pytest.approx(0.18)


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


@pytest.mark.parametrize("raw_gain, flagged", [(1.0, True), (0.94, False)],
                         ids=["raw-flat", "raw-gains"])
def test_bench_pairs_flags_a_task_cal_gain_raw_seconds_do_not_show(raw_gain, flagged, capsys):
    # task_cal gains 6% in 10 of 10 pairs. With task_s flat the gain is a
    # shift of the speed probe's unit, and is flagged; with task_s gaining
    # too, it is not.
    pairs_mod = load_module("tools/bench_pairs.py")
    parent = (0.97, 0.98, 0.99, 1.0, 1.0, 1.0, 1.0, 1.01, 1.02, 1.03)
    runs = [{side: {"cdps.task_cal": 100 * p * (0.94 if side == "change" else 1.0),
                    "cdps.task_s": 0.3 * p * (raw_gain if side == "change" else 1.0)}
             for side in ("parent", "change")} for p in parent]
    summary = pairs_mod.summarize(runs, [{"name": "cdps.task_cal", "better": "lower"},
                                         *pairs_mod.RAW_METRICS])
    cal = summary["cdps.task_cal"]
    assert cal["change_better_in_pairs"] == "10/10" and cal["claim_rule_met"]
    assert cal["raw_seconds_agree"] is not flagged
    assert "raw_seconds_agree" not in summary["cdps.task_s"]
    warned = capsys.readouterr().err
    assert ("warning: cdps.task_cal meets the gain rule" in warned) is flagged


def test_bench_pairs_counts_src_lines(tmp_path):
    # Every .py file under src/, at any depth, and nothing else.
    pairs_mod = load_module("tools/bench_pairs.py")
    (tmp_path / "src" / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "src" / "pkg" / "sub" / "b.py").write_text("z = 3")
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not code\n")
    (tmp_path / "setup.py").write_text("outside src\n")
    assert pairs_mod.src_lines(tmp_path) == 4


CODE_LINES_SOURCE = '''"""Module
docstring."""

# a comment
import os  # a trailing comment


class K:
    """Class docstring."""

    def f(self):
        """Function
        docstring.
        """
        text = """not a
docstring"""
        return text


async def g():
    """Coroutine docstring."""
'''


def test_bench_pairs_counts_src_code_lines(tmp_path):
    # Code lines leave out blank lines, comment-only lines and module, class
    # and function docstrings; a multi-line string that is no docstring counts.
    pairs_mod = load_module("tools/bench_pairs.py")
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text(CODE_LINES_SOURCE)
    (tmp_path / "src" / "pkg" / "b.py").write_text("z = 3")
    (tmp_path / "setup.py").write_text("outside = 'src'\n")
    assert pairs_mod.code_lines(CODE_LINES_SOURCE) == 7
    assert pairs_mod.src_code_lines(tmp_path) == 8
    assert pairs_mod.src_lines(tmp_path) == 22


SIGTERM_CODE = """
import importlib.util, signal, subprocess, sys, tempfile
spec = importlib.util.spec_from_file_location("bench_pairs", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
signal.signal(signal.SIGTERM, module.exit_on_sigterm)
with tempfile.TemporaryDirectory(prefix="bench-pairs-", dir=sys.argv[2]) as tmp:
    print(tmp, flush=True)
    subprocess.run([sys.executable, "-c", "import time; time.sleep(60)"])
"""


@pytest.mark.skipif(not hasattr(signal, "SIGTERM") or os.name != "posix", reason="POSIX signals")
def test_bench_pairs_sigterm_removes_its_temporary_trees(tmp_path):
    # An unhandled SIGTERM ended tools/bench_pairs.py without unwinding, so
    # its bench-pairs-* directory stayed behind.  Under its handler the
    # running child (here a 60 s sleep) is killed and the directory removed.
    proc = subprocess.Popen([sys.executable, "-c", SIGTERM_CODE,
                             str(ROOT / "tools/bench_pairs.py"), str(tmp_path)],
                            stdout=subprocess.PIPE, text=True)
    tree = Path(proc.stdout.readline().strip())
    assert tree.name.startswith("bench-pairs-") and tree.is_dir()
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=20) == 128 + signal.SIGTERM
    proc.stdout.close()
    assert not tree.exists() and not list(tmp_path.iterdir())


def test_bench_pairs_run_config_summary_keeps_each_method():
    # --run-config-dims times C-DPS and DPS in one task; each method's
    # seconds are summarised on their own, per dimension and side.
    pairs_mod = load_module("tools/bench_pairs.py")
    assert pairs_mod.RUN_CONFIG_METHODS == ("cdps", "dps")
    tasks = [{"side": side, "rep": rep, "task_s": 9.0, "rows": [
        {"method": "cdps", "d": 80, "seconds": base + rep},
        {"method": "dps", "d": 80, "seconds": 2 * base + rep}]}
        for rep in range(3) for side, base in (("parent", 1.0), ("change", 0.5))]
    tasks.append({"side": "change", "rep": 3, "exit": 1, "error": "boom"})
    summary = pairs_mod.run_config_summary(tasks)
    assert summary["d=80"]["cdps"]["parent"] == [1.0, 2.0, 3.0]
    assert summary["d=80"]["dps"]["change"] == [1.0, 2.0, 3.0]
    assert summary["d=80"]["dps"]["median_s"] == {"parent": 3.0, "change": 2.0}


def test_bench_pairs_grid_records_wall_seconds_and_mean_sw():
    # --grid-reps times bench.run_grid per side and worker count; a run
    # reports its wall seconds and one mean SW per method and grid point.
    pairs_mod = load_module("tools/bench_pairs.py")
    assert pairs_mod.GRID_WORKERS == (1, 2)
    small = {"dims": [4], "measurements": [1, 2], "sigmas": [1e-2], "matrices_per_config": 1,
             "samples_per_run": 10, "sw_slices": 50, "num_steps": 10}
    run = pairs_mod.grid_run(ROOT, 1, small)
    assert run["wall_s"] > 0 and run["aborted"] == 0
    assert sorted(run["sw_mean"]) == ["cdps d=4 m=1", "cdps d=4 m=2", "dps d=4 m=1",
                                      "dps d=4 m=2"]
    runs = [{"side": side, "rep": rep, "workers": workers, "wall_s": base / workers + rep,
             "aborted": 0, "sw_mean": {"cdps d=8 m=1": 2.0 + (side == "change") * 1e-16}}
            for rep in range(3) for workers in (1, 2)
            for side, base in (("parent", 20.0), ("change", 18.0))]
    runs.append({"side": "change", "rep": 3, "workers": 2, "exit": 1, "error": "boom"})
    summary = pairs_mod.grid_summary(runs)
    assert summary["workers=1"]["parent"] == [20.0, 21.0, 22.0]
    assert summary["workers=2"]["median_s"] == {"parent": 11.0, "change": 10.0}
    assert summary["sw_mean_max_rel_spread"] == pytest.approx(0.5e-16, abs=1e-16)
    assert summary["failed_runs"] == 1
