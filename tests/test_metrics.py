import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cdps.metrics
from cdps.gmm import make_grid_gmm, score_fn_for
from cdps.metrics import IterateTrace, batch_cosine, measurement_residual, sliced_wasserstein
from cdps.operators import IsotropicNoise, from_dense, make_random_svd_operator
from cdps.sampler import SolverConfig, _ancestral_step, cdps_sample
from cdps.schedules import make_linear_schedule


def test_sw_identical_sets_is_zero():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((50, 3))
    assert sliced_wasserstein(a, a.copy(), 128, np.random.default_rng(1)) == 0.0


def test_sw_one_dimensional_singletons():
    a = np.array([[0.0]])
    b = np.array([[3.0]])
    assert sliced_wasserstein(a, b, 64, np.random.default_rng(2)) == pytest.approx(3.0)


def test_sw_below_null_resampling_floor():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((500, 8))
    b = rng.standard_normal((500, 8))
    observed = sliced_wasserstein(a, b, 256, np.random.default_rng(4))
    nulls = []
    for k in range(50):
        g = np.random.default_rng(100 + k)
        nulls.append(sliced_wasserstein(g.standard_normal((500, 8)),
                                        g.standard_normal((500, 8)),
                                        256, np.random.default_rng(4)))
    assert observed <= np.quantile(nulls, 0.95)


def test_sw_symmetry_with_shared_slices():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((64, 4))
    b = rng.standard_normal((64, 4)) + 1.0
    ab = sliced_wasserstein(a, b, 512, np.random.default_rng(6))
    ba = sliced_wasserstein(b, a, 512, np.random.default_rng(6))
    assert ab == pytest.approx(ba, rel=1e-12)


def test_sw_scale_equivariance():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((40, 5))
    b = rng.standard_normal((40, 5)) + 0.5
    base = sliced_wasserstein(a, b, 256, np.random.default_rng(8))
    scaled = sliced_wasserstein(3.0 * a, 3.0 * b, 256, np.random.default_rng(8))
    assert scaled == pytest.approx(3.0 * base, rel=1e-10)
    assert base >= 0.0


def test_sw_order_one_variant():
    a = np.array([[0.0]])
    b = np.array([[3.0]])
    assert sliced_wasserstein(a, b, 16, np.random.default_rng(9), order=1) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        sliced_wasserstein(a, b, 16, np.random.default_rng(9), order=3)


def _reference_sw(a, b, dirs, order):
    """SW from directions drawn up front, one slice at a time, summed in plain loops."""
    total = 0.0
    for v in dirs / np.linalg.norm(dirs, axis=1, keepdims=True):
        gaps = np.sort(a @ v) - np.sort(b @ v)
        total += np.mean(gaps ** 2 if order == 2 else np.abs(gaps))
    mean = total / len(dirs)
    return np.sqrt(mean) if order == 2 else mean


@pytest.mark.parametrize("order", [1, 2])
def test_sw_does_not_depend_on_its_block(order, monkeypatch):
    # The directions come a block at a time from the stream of one up-front
    # (n_slices, d) draw: the same slices, the same generator state after,
    # and an SW that differs only by summation order.
    rng = np.random.default_rng(12)
    n_slices, d = 300, 5
    a = rng.standard_normal((40, d))
    b = 1.5 * rng.standard_normal((40, d)) + 0.5
    upfront = np.random.default_rng(13)
    expected = _reference_sw(a, b, upfront.standard_normal((n_slices, d)), order)
    for block in (1, 7, cdps.metrics._SLICE_BLOCK, n_slices + 1):
        monkeypatch.setattr(cdps.metrics, "_SLICE_BLOCK", block)
        slices = np.random.default_rng(13)
        got = sliced_wasserstein(a, b, n_slices, slices, order=order)
        assert got == pytest.approx(expected, rel=1e-12, abs=0), block
        assert slices.bit_generator.state == upfront.bit_generator.state, block


class _SizeRecorder:
    """A generator stand-in that records the size of each ``standard_normal`` draw."""

    def __init__(self, rng):
        self._rng, self.sizes = rng, []

    def standard_normal(self, size):
        self.sizes.append(size)
        return self._rng.standard_normal(size)


@pytest.mark.parametrize("n, d, first", [(100, 8, 256), (100, 32, 81), (1000, 8, 32)])
def test_sw_blocks_keep_each_projection_product_small(n, d, first):
    # Each block's products (block, d) @ (d, n) take at most 2^18
    # multiply-adds, which OpenBLAS runs on the calling thread; 256 slices
    # at n = 100, d = 32 took 819,200 and woke its worker thread.
    rng = np.random.default_rng(16)
    a, b = rng.standard_normal((n, d)), rng.standard_normal((n, d))
    recorder = _SizeRecorder(np.random.default_rng(17))
    sliced_wasserstein(a, b, 1000, recorder)
    assert {cols for _, cols in recorder.sizes} == {d}
    blocks = [rows for rows, _ in recorder.sizes]
    assert blocks[0] == first
    assert all(block * n * d <= 2**18 for block in blocks)
    assert sum(blocks) == 1000


SW_THREAD_PROBE = """
import os, sys, threading, time
import numpy as np
from cdps.metrics import sliced_wasserstein

def ticks():
    out = {}
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        out[tid] = int(fields[11]) + int(fields[12])  # utime + stime
    return out

rng = np.random.default_rng(18)
a, b = rng.standard_normal((100, 32)), rng.standard_normal((100, 32))
sliced_wasserstein(a, b, 10_000, np.random.default_rng(19))
before = ticks()
time.sleep(0.3)
after = ticks()
caller = str(threading.get_native_id())
print(max([after[t] - before.get(t, 0) for t in after if t != caller], default=0))
"""


def _blas_name() -> str:
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or "openblas" not in _blas_name()
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs Linux /proc, numpy on OpenBLAS and at least 2 CPUs")
def test_sw_leaves_no_blas_thread_spinning():
    # A product above OpenBLAS's single-thread bound wakes its worker, which
    # then busy-waits: after 256-slice blocks at n = 100, d = 32 it burnt
    # 13-14 clock ticks of the next 0.3 s, time the next sampler run lost.
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", SW_THREAD_PROBE], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "2"})
    assert int(out.stdout) < 5


def test_sw_working_set_is_bounded():
    # Slices are projected and sorted a block at a time, so one call's
    # arrays stay at a few MiB; all 10^4 at once would need about 39 MB.
    rng = np.random.default_rng(14)
    a = rng.standard_normal((1000, 80))
    b = rng.standard_normal((1000, 80))
    tracemalloc.start()
    try:
        sliced_wasserstein(a, b, 10_000, np.random.default_rng(15))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_sw_input_validation():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((10, 2))
    with pytest.raises(ValueError):
        sliced_wasserstein(a, rng.standard_normal((10, 3)), 8, rng)
    with pytest.raises(ValueError):
        sliced_wasserstein(a, rng.standard_normal((9, 2)), 8, rng)
    bad = a.copy()
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        sliced_wasserstein(bad, a, 8, rng)


def test_measurement_residual_values():
    A = from_dense(np.eye(2))
    assert measurement_residual(np.array([1.0, 1.0]), np.zeros(2), A) == pytest.approx(2.0)
    x = np.array([0.3, -0.7])
    assert measurement_residual(x, A.apply(x), A) == pytest.approx(0.0, abs=1e-30)


def test_measurement_residual_matches_naive_loop():
    rng = np.random.default_rng(11)
    A = from_dense(rng.standard_normal((4, 6)))
    x = rng.standard_normal(6)
    y = rng.standard_normal(4)
    naive = 0.0
    for i in range(4):
        row = sum(A.dense[i, j] * x[j] for j in range(6))
        naive += (y[i] - row) ** 2
    assert measurement_residual(x, y, A) == pytest.approx(naive, rel=1e-12)


def test_batch_cosine_signs_and_zero_norm():
    # +-1 for equal or opposite vectors and NaN where either vector is zero,
    # row by row, and for a single pair of vectors.
    a = np.array([[1.0, 2.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    b = np.array([[1.0, 2.0], [-1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    cos = batch_cosine(a, b)
    assert cos[:2] == pytest.approx([1.0, -1.0])
    assert np.all(np.isnan(cos[2:]))
    assert batch_cosine(a[1], b[1]) == pytest.approx(-1.0)
    assert np.isnan(batch_cosine(a[2], b[2]))


def test_iterate_trace_pairs_scores_cosine_and_mse():
    # Entry t pairs level t-1's score with level t's: their cosine and their
    # mean squared difference (1/d) ||.||^2, per chain; entry 0 is NaN.  The
    # observer hands on the score it was given, and residual_sq[t] is the
    # misfit of the iterate scored at level t.
    scores = {2: np.array([[1.0, 0.0], [1.0, 1.0]]), 1: np.array([[-1.0, 0.0], [0.0, 0.0]]),
              0: np.array([[0.0, 2.0], [3.0, 3.0]])}
    observer = IterateTrace(lambda x, t: scores[t], np.zeros(1), from_dense(np.eye(1, 2)))
    for t in (2, 1):
        assert observer(np.full((2, 2), float(t)), t) is scores[t]
    residual_sq, cos, mse = observer.close(np.zeros((2, 2)))
    assert residual_sq.tolist() == [[0.0, 0.0], [1.0, 1.0], [4.0, 4.0]]
    assert cos[2, 0] == pytest.approx(-1.0) and np.isnan(cos[2, 1])
    assert mse[2] == pytest.approx([2.0, 1.0])
    assert cos[1, 0] == pytest.approx(0.0) and np.isnan(cos[1, 1])
    assert mse[1] == pytest.approx([2.5, 9.0])
    assert np.all(np.isnan(cos[0])) and np.all(np.isnan(mse[0]))


def ancestral_score_cosine(score_fn, schedule, rng, n_chains, d):
    """Mean cosine of consecutive scores along an exact-score ancestral run."""
    x = rng.standard_normal((n_chains, d))
    s_cur = score_fn(x, schedule.num_steps)
    cos = []
    for t in range(schedule.num_steps, 0, -1):
        x, _ = _ancestral_step(x, t, s_cur, schedule, rng.standard_normal(x.shape))
        s_prev = score_fn(x, t - 1)
        cos.append(np.einsum("ni,ni->n", s_prev, s_cur)
                   / (np.linalg.norm(s_prev, axis=1) * np.linalg.norm(s_cur, axis=1)))
        s_cur = s_prev
    return float(np.mean(cos))


def test_score_consistency_along_sampler_trajectory():
    # With betas up to 0.5, consecutive states of any reverse process that is
    # mostly noise correlate about as sqrt(1 - beta_t) (mean 0.862 here), so
    # no sampler reaches a fixed 0.9.  The frozen-score pairs of the coupled
    # sampler must instead stay as aligned as those of the unconditional
    # ancestral sampler with the exact score, on the same prior, schedule and
    # chain count.  Over seeds 13-17 that reference spans 0.846-0.851 and the
    # coupled sampler 0.872-0.874.
    d, m, sigma = 8, 2, 0.1
    rng = np.random.default_rng(12)
    prior = make_grid_gmm(d)
    A = make_random_svd_operator(d, m, rng)
    y = A.apply(rng.uniform(-16, 16, d)) + sigma * rng.standard_normal(m)
    schedule = make_linear_schedule(1000, 0.1, 500.0)
    score_fn = score_fn_for(prior, schedule)
    observer = IterateTrace(score_fn, y, A)
    x0, _ = cdps_sample(y, A, IsotropicNoise(sigma ** 2), schedule, observer,
                        np.random.default_rng(13), n_chains=10,
                        config=SolverConfig(strict=False))
    cos = observer.close(x0)[1][1:]  # pairs exist for t = 1..T
    reference = ancestral_score_cosine(score_fn, schedule, np.random.default_rng(13), 10, d)
    assert np.nanmean(cos) >= reference


@pytest.mark.parametrize("case, match", [
    ("1-d", r"a must be a nonempty \(n, d\) array"),
    ("empty", r"b must be a nonempty \(n, d\) array"),
    ("no-slices", "n_slices must be an integer >= 1"),
    ("residual-x", "dimension mismatch"),
    ("residual-y", "dimension mismatch"),
], ids=["1-d", "empty", "no-slices", "residual-x", "residual-y"])
def test_metric_input_refusals(case, match):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 3))
    A = from_dense(rng.standard_normal((2, 3)))
    with pytest.raises(ValueError, match=match):
        if case == "1-d":
            sliced_wasserstein(a[0], a[0], 10, rng)
        elif case == "empty":
            sliced_wasserstein(a, np.zeros((0, 3)), 10, rng)
        elif case == "no-slices":
            sliced_wasserstein(a, a, 0, rng)
        elif case == "residual-x":
            measurement_residual(np.zeros((4, 2)), np.zeros(2), A)
        else:
            measurement_residual(a, np.zeros(3), A)


@pytest.mark.parametrize("case, match", [
    ("order-true", "order must be an integer"),
    ("order-float", "order must be an integer"),
    ("slices-true", "n_slices must be an integer"),
    ("slices-fraction", "n_slices must be an integer"),
    ("steps-true", "num_steps must be an integer >= 1"),
    ("steps-float", "num_steps must be an integer >= 1"),
])
def test_counts_refuse_bools_and_non_integers(case, match):
    # A bool is an int to Python: order=True scored SW of order 1 and
    # num_steps=True built a one-step schedule.  A fraction of a slice died
    # in range() with a TypeError.
    a = np.random.default_rng(6).standard_normal((4, 3))
    with pytest.raises(ValueError, match=match):
        if case.startswith("order"):
            sliced_wasserstein(a, a, 10, np.random.default_rng(7),
                               order=True if case == "order-true" else 2.0)
        elif case.startswith("slices"):
            sliced_wasserstein(a, a, True if case == "slices-true" else 100.5,
                               np.random.default_rng(7))
        else:
            make_linear_schedule(True if case == "steps-true" else 5.0, 0.1, 1.0)
