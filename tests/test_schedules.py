import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cdps.schedules import NoiseSchedule, alpha_bar, make_linear_schedule


def test_benchmark_schedule_endpoints():
    s = make_linear_schedule(1000, 0.1, 500.0)
    assert s.betas[0] == pytest.approx(1e-4, rel=1e-12)
    assert s.betas[-1] == pytest.approx(0.5, rel=1e-12)


def test_single_step_schedule():
    s = make_linear_schedule(1, 0.5, 0.5)
    assert s.betas.tolist() == [0.5]
    assert s.alpha_bars[1] == pytest.approx(0.5)


def test_two_step_schedule_hand_values():
    s = make_linear_schedule(2, 0.2, 0.4)
    np.testing.assert_allclose(s.betas, [0.1, 0.2], rtol=1e-12)
    np.testing.assert_allclose(s.alpha_bars[1:], [0.9, 0.72], rtol=1e-12)


def test_alpha_bar_values():
    s = make_linear_schedule(2, 0.2, 0.4)
    assert alpha_bar(s, 0) == 1.0
    assert alpha_bar(s, 2) == pytest.approx(0.72, rel=1e-12)
    single = make_linear_schedule(1, 0.5, 0.5)
    assert alpha_bar(single, 1) == pytest.approx(0.5)


def test_alpha_bar_rejects_out_of_range():
    s = make_linear_schedule(5, 0.1, 0.2)
    with pytest.raises(ValueError):
        alpha_bar(s, -1)
    with pytest.raises(ValueError):
        alpha_bar(s, 6)


def test_alpha_bar_strictly_decreasing():
    s = make_linear_schedule(1000, 0.1, 500.0)
    assert np.all(np.diff(s.alpha_bars) < 0)
    assert s.alpha_bars[1] <= 1.0 - 1e-12


def test_alpha_bar_ratio_matches_alpha():
    s = make_linear_schedule(777, 0.1, 500.0)
    ratios = s.alpha_bars[1:] / s.alpha_bars[:-1]
    np.testing.assert_allclose(ratios, s.alphas, rtol=1e-14)


@settings(max_examples=200, deadline=None)
@given(
    num_steps=st.integers(1, 2000),
    log_beta_min=st.floats(-6.0, 4.0),
    log_spread=st.floats(0.0, 4.0),
)
# Its cumulative product sticks at the smallest subnormal instead of reaching 0.
@example(num_steps=1732, log_beta_min=2.5625, log_spread=0.375)
def test_linear_schedule_invariants(num_steps, log_beta_min, log_spread):
    # The docstring's betas, clamped into (0, 1), decide whether the
    # cumulative product stays a normal float or underflows; schedules in
    # between, where it lands among the subnormals, are skipped.
    beta_min = 10.0 ** log_beta_min
    beta_max = beta_min * 10.0 ** log_spread
    betas = np.clip(np.linspace(beta_min, beta_max, num_steps) / num_steps, 1e-12, 1.0 - 1e-12)
    log_last = np.sum(np.log1p(-betas))
    if log_last < np.log(np.finfo(float).smallest_subnormal) - 1.0:
        with pytest.raises(ValueError, match="underflowed"):
            make_linear_schedule(num_steps, beta_min, beta_max)
        return
    assume(log_last > np.log(np.finfo(float).tiny) + 1.0)

    s = make_linear_schedule(num_steps, beta_min, beta_max)
    assert np.all((s.betas > 0.0) & (s.betas < 1.0))
    assert np.all(np.diff(s.betas) >= 0.0)
    assert s.alpha_bars[0] == 1.0
    assert np.all(np.diff(s.alpha_bars) < 0.0)
    np.testing.assert_allclose(s.alpha_bars[1:] / s.alpha_bars[:-1], s.alphas, rtol=1e-14)
    assert [alpha_bar(s, t) for t in range(num_steps + 1)] == s.alpha_bars.tolist()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_steps=0, beta_min=0.1, beta_max=0.2),
        dict(num_steps=10, beta_min=0.0, beta_max=0.2),
        dict(num_steps=10, beta_min=-0.1, beta_max=0.2),
        dict(num_steps=10, beta_min=0.3, beta_max=0.2),
        dict(num_steps=10, beta_min=float("nan"), beta_max=0.2),
        dict(num_steps=10, beta_min=0.1, beta_max=float("inf")),
    ],
)
def test_invalid_inputs_rejected(kwargs):
    with pytest.raises(ValueError):
        make_linear_schedule(**kwargs)


def test_schedule_validates_invariants():
    with pytest.raises(ValueError, match="nondecreasing"):
        NoiseSchedule(np.array([0.3, 0.2]))


@pytest.mark.parametrize("args", [(1000, 0.1, 500.0), (50, 0.1, 20.0), (1, 0.3, 0.3),
                                  (200, 0.1, 12.5), (4, 0.2, 0.4)])
def test_schedule_derives_alphas_and_alpha_bars_from_its_betas(args):
    # A schedule is fixed by its betas; the derived arrays are 1 - betas and
    # their running product after a leading 1, bit for bit.
    betas = make_linear_schedule(*args).betas.copy()
    s = NoiseSchedule(betas)
    assert s.num_steps == betas.size == args[0]
    np.testing.assert_array_equal(s.betas, betas)
    np.testing.assert_array_equal(s.alphas, 1.0 - betas)
    np.testing.assert_array_equal(s.alpha_bars, np.concatenate(([1.0], np.cumprod(1.0 - betas))))
    with pytest.raises(TypeError):
        NoiseSchedule(betas, alphas=1.0 - betas)  # derived, so not an argument
    with pytest.raises(ValueError, match="read-only"):
        s.betas[0] = 0.5  # would leave alphas and alpha_bars stale
    betas[0] = 0.5  # the schedule keeps its own copy
    assert s.betas[0] != 0.5


@pytest.mark.parametrize("betas, match", [
    (np.zeros(0), "nonempty 1-D"),
    (np.full((2, 2), 0.1), "nonempty 1-D"),
    ([0.1, np.nan], "betas must be finite"),
    ([0.0, 0.2], r"strictly inside \(0, 1\)"),
    ([0.1, 1.0], r"strictly inside \(0, 1\)"),
    ([0.3, 0.2], "nondecreasing"),
    # The running product reaches exactly 0.
    ([1.0 - 1e-12] * 40, "underflowed to zero"),
    # 0.6 of the smallest subnormal rounds back to it, so the product sticks there.
    ([0.4] * 1500, "underflowed to zero"),
], ids=["no-steps", "betas-2d", "betas-nan", "beta-zero", "beta-one", "decreasing",
        "alpha_bar-zero", "alpha_bar-stuck-subnormal"])
def test_schedule_built_directly_refuses_each_bad_field(betas, match):
    with pytest.raises(ValueError, match=match):
        NoiseSchedule(betas)
