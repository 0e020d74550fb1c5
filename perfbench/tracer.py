"""Spans around calls into the cdps layers, recorded from outside the package.

A ``from``-import binds a name in the calling module, so each function is
wrapped where its caller looks it up (for example ``cdps.sampler.cg_solve``
for the mean solve and ``cdps.linalg.cg_solve`` for the solve inside
``pw_cg_draw``). Spans are kept in flat arrays with parent links and turned
into per-layer totals and self times when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from array import array
from collections import defaultdict

import numpy as np

import cdps.bench
import cdps.gmm
import cdps.linalg
import cdps.metrics
import cdps.operators
import cdps.sampler
import cdps.schedules


class Tracer:
    """In-memory span recorder; spans are only kept inside an open root span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.root.append(self._stack[0] if self._stack else idx)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root_span(self, name: str):
        """A root span: one per traced task or set-up phase."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` recorded as span ``name``; ``on_call(result, args, kwargs)`` updates counters."""
        name_id = self._id(name)

        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_call is not None:
                on_call(out, args, kwargs)
            return out

        return traced

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "root": np.frombuffer(self.root, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, and each root span's seconds."""
        s = self.spans()
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_s = dur - child

        def per_name(weights=None):
            totals = np.bincount(s["name"], weights=weights, minlength=len(self.names))
            return dict(zip(self.names, totals.tolist()))

        return {
            "calls": per_name(), "s": per_name(dur), "self_s": per_name(self_s),
            "root_s": dur[~has_parent].tolist(), "spans": int(dur.size),
        }


def _cg_counter(tracer: Tracer, name: str):
    """Iterations and converged rows from the CgReport a solve returns."""
    def count(out, args, kwargs):
        report = out[1]
        rows = np.atleast_1d(report.row_converged)
        tracer.counters["cg.rows_attempted"] += rows.size
        tracer.counters["cg.rows_converged"] += int(rows.sum())
        tracer.counters[name + ".iters"] += report.iterations
    return count


def _traced_operator(tracer: Tracer, factory):
    """Factory whose operators record their apply and adjoint calls."""
    apply_name, adjoint_name = "operators.apply", "operators.adjoint"

    def build(*args, **kwargs):
        op = factory(*args, **kwargs)
        return dataclasses.replace(op, apply=tracer.wrap(apply_name, op.apply),
                                   adjoint=tracer.wrap(adjoint_name, op.adjoint))
    return build


def _count_chain_bytes(tracer: Tracer):
    def count(chain, args, kwargs):
        levels = chain.y_levels
        # The forward chain holds the level array plus its T x m noise block.
        noise = levels.nbytes // levels.shape[-2] * (levels.shape[-2] - 1)
        tracer.counters["sampler.generate_measurement_chain.bytes"] += levels.nbytes + noise
    return count


def _count_retries(tracer: Tracer):
    def count(out, args, kwargs):
        if kwargs.get("n_chains") is None:
            tracer.counters["bench.retry_reruns"] += 1
    return count


def _patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every lookup site the benchmark traces."""
    t = tracer
    bench, sampler, linalg, gmm = cdps.bench, cdps.sampler, cdps.linalg, cdps.gmm
    cdps_sample = t.wrap("sampler.cdps_sample", sampler.cdps_sample, _count_retries(t))
    dps_sample = t.wrap("sampler.dps_sample", sampler.dps_sample)
    sw = t.wrap("metrics.sliced_wasserstein", cdps.metrics.sliced_wasserstein)
    schedule = t.wrap("schedules.make_linear_schedule", cdps.schedules.make_linear_schedule)
    return [
        (bench, "run_config", t.wrap("bench.run_config", bench.run_config)),
        (bench, "cdps_sample", cdps_sample),
        (sampler, "cdps_sample", cdps_sample),
        (bench, "dps_sample", dps_sample),
        (sampler, "dps_sample", dps_sample),
        (bench, "sliced_wasserstein", sw),
        (cdps.metrics, "sliced_wasserstein", sw),
        (bench, "make_linear_schedule", schedule),
        (cdps.schedules, "make_linear_schedule", schedule),
        (bench, "make_random_svd_operator", _traced_operator(t, bench.make_random_svd_operator)),
        (cdps.operators, "blur_operator", _traced_operator(t, cdps.operators.blur_operator)),
        (sampler, "generate_measurement_chain",
         t.wrap("sampler.generate_measurement_chain", sampler.generate_measurement_chain,
                _count_chain_bytes(t))),
        (sampler, "make_step_params", t.wrap("sampler.make_step_params", sampler.make_step_params)),
        (sampler, "posterior_mean", t.wrap("sampler.posterior_mean", sampler.posterior_mean)),
        (sampler, "mix_conditional_cov",
         t.wrap("operators.mix_conditional_cov", sampler.mix_conditional_cov)),
        (sampler, "make_whitener", t.wrap("operators.make_whitener", sampler.make_whitener)),
        (sampler, "diag_preconditioner",
         t.wrap("linalg.diag_preconditioner", sampler.diag_preconditioner)),
        (sampler, "cg_solve",
         t.wrap("linalg.cg_solve.mean", sampler.cg_solve, _cg_counter(t, "linalg.cg_solve.mean"))),
        (sampler, "pw_cg_draw",
         t.wrap("linalg.pw_cg_draw", sampler.pw_cg_draw, _cg_counter(t, "linalg.pw_cg_draw"))),
        # The solve inside pw_cg_draw; its rows are counted from pw_cg_draw's report.
        (linalg, "cg_solve", t.wrap("linalg.cg_solve.draw", linalg.cg_solve)),
        (linalg.PrecisionOperator, "matvec",
         t.wrap("linalg.matvec", linalg.PrecisionOperator.matvec)),
        (gmm, "score", t.wrap("gmm.score", gmm.score)),
        (gmm, "denoiser_jacobian_vp", t.wrap("gmm.denoiser_jacobian_vp", gmm.denoiser_jacobian_vp)),
        (gmm, "exact_posterior", t.wrap("gmm.exact_posterior", gmm.exact_posterior)),
        (gmm, "sample_mixture", t.wrap("gmm.sample_mixture", gmm.sample_mixture)),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the traced lookup sites through ``tracer``; restores them on exit."""
    patches = _patches(tracer)
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
