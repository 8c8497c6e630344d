"""Contract tests for :class:`~repro.ann.im2col.DirectConvPlan`.

The plan is the float32 convolution kernel of every stride-1 spiking conv
layer.  It picks one of two kernels from the packed input width alone (the
single-GEMM panel up to ``_PANEL_MAX_CHANNELS`` channels, one accumulating
GEMM per tap above), so these tests pin:

* parity with the canonical :class:`~repro.ann.im2col.Im2colPlan` fill plus
  one GEMM, on both sides of the width crossing, packed or not;
* that one plan can switch packed widths and come back bit for bit;
* that the result is a pure function of the geometry: two plans agree bit
  for bit, and nothing is timed to pick a kernel.
"""

import importlib
import time

import numpy as np
import pytest

from repro.ann.im2col import DirectConvPlan, Im2colPlan

im2col_module = importlib.import_module("repro.ann.im2col")

OUT_CHANNELS = 6
HEIGHT, WIDTH = 7, 9


def make_case(batch, channels, kernel, seed=0):
    rng = np.random.default_rng(seed)
    # spike-like input: sparse non-negative amplitudes
    x = ((rng.random((batch, channels, HEIGHT, WIDTH)) < 0.3) * 0.5).astype(np.float32)
    weight = rng.standard_normal((OUT_CHANNELS, channels, kernel, kernel)).astype(np.float32)
    bias = rng.standard_normal(OUT_CHANNELS).astype(np.float32)
    return x, weight, bias


def taps_of(weight):
    """``weight[o, c, ky, kx]`` as the plan's ``taps[ky·K + kx, c, o]`` stack."""
    out_c, c, k, _ = weight.shape
    return np.ascontiguousarray(weight.transpose(2, 3, 1, 0).reshape(k * k, c, out_c))


def reference(x, weight, bias, padding):
    """Canonical float32 convolution: Im2colPlan.fill followed by one GEMM."""
    n, c, h, w = x.shape
    k = weight.shape[2]
    plan = Im2colPlan(n, c, h, w, k, k, 1, padding, dtype=np.float32)
    z = plan.fill(x) @ weight.reshape(weight.shape[0], -1).T + bias
    return z.reshape(n, plan.out_h, plan.out_w, -1).transpose(0, 3, 1, 2)


def build_plan(x, kernel, padding):
    n, c, h, w = x.shape
    return DirectConvPlan(n, c, h, w, kernel, padding, OUT_CHANNELS, dtype=np.float32)


def assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("kernel", [3, 5])
@pytest.mark.parametrize("channels", [1, 2, 3, 4, 5, 8])
def test_matches_im2col_gemm(channels, kernel, padding, batch):
    x, weight, bias = make_case(batch, channels, kernel)
    plan = build_plan(x, kernel, padding)
    out = plan.run(x, taps_of(weight), bias)
    expected = reference(x, weight, bias, padding)
    assert out.shape == expected.shape == (batch, OUT_CHANNELS, plan.out_h, plan.out_w)
    assert out.dtype == np.float32
    assert_close(out, expected)


@pytest.mark.parametrize("active", [[1, 6], [0, 2, 3, 4, 5, 7]], ids=["panel", "accumulate"])
def test_packed_channels_match_im2col_gemm(active):
    """Packing an 8-channel input to its active channels equals convolving
    the input with every other channel silenced."""
    x, weight, bias = make_case(4, 8, 3, seed=1)
    active = np.array(active)
    silenced = np.zeros_like(x)
    silenced[:, active] = x[:, active]
    plan = build_plan(x, 3, 1)
    out = plan.run(silenced, taps_of(weight)[:, active], bias, active_channels=active)
    assert_close(out, reference(silenced, weight, bias, 1))


@pytest.mark.parametrize("kernel", [3, 5])
def test_kernel_follows_packed_width(kernel, monkeypatch):
    """Widths up to the crossing run the panel; wider ones accumulate."""
    crossing = im2col_module._PANEL_MAX_CHANNELS
    x, weight, bias = make_case(2, 8, kernel)
    plan = build_plan(x, kernel, 1)
    taps = taps_of(weight)
    calls = []
    for name in ("_run_panel", "_run_accumulate"):
        original = getattr(plan, name)

        def record(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(plan, name, record)
    for width in range(1, 9):
        active = np.arange(width)
        plan.run(x, taps[:, active], bias, active_channels=active)
        assert calls[-1] == ("_run_panel" if width <= crossing else "_run_accumulate")


def test_switching_widths_reproduces_the_first_run():
    """full → packed 2 (panel) → packed 6 (accumulate) → full: the plan
    re-carves its scratch per width and the last run equals the first bit
    for bit.  ``run`` returns the plan's buffer, so each output is copied."""
    x, weight, bias = make_case(4, 8, 3, seed=2)
    taps = taps_of(weight)
    plan = build_plan(x, 3, 2)
    first = plan.run(x, taps, bias).copy()
    outputs = []
    for active in (np.array([3, 5]), np.array([0, 1, 2, 4, 6, 7])):
        outputs.append(plan.run(x, taps[:, active], bias, active_channels=active).copy())
        silenced = np.zeros_like(x)
        silenced[:, active] = x[:, active]
        assert_close(outputs[-1], reference(silenced, weight, bias, 2))
    last = plan.run(x, taps, bias)
    assert np.array_equal(first, last)
    assert_close(first, reference(x, weight, bias, 2))


@pytest.mark.parametrize("channels", [2, 8])
def test_two_plans_of_one_geometry_agree_bit_for_bit(channels):
    x, weight, bias = make_case(4, channels, 3, seed=3)
    taps = taps_of(weight)
    first = build_plan(x, 3, 1).run(x, taps, bias).copy()
    second = build_plan(x, 3, 1).run(x, taps, bias)
    assert np.array_equal(first, second)


def test_narrow_plan_never_allocates_the_halo():
    """Each kernel allocates its scratch on first use: a 3-channel plan only
    ever runs the panel."""
    x, weight, bias = make_case(2, 3, 3)
    plan = build_plan(x, 3, 1)
    plan.run(x, taps_of(weight), bias)
    assert plan._halo_flat is None


def test_no_timer_picks_the_kernel(monkeypatch):
    """Building and running a plan of a geometry no other test uses must
    not read the clock: the kernel is a function of the packed width."""

    def no_clock():
        raise AssertionError("DirectConvPlan read the clock")

    monkeypatch.setattr(time, "perf_counter", no_clock)
    rng = np.random.default_rng(4)
    for channels in (3, 7):
        x = ((rng.random((3, channels, 13, 11)) < 0.3) * 0.5).astype(np.float32)
        weight = rng.standard_normal((5, channels, 5, 5)).astype(np.float32)
        plan = DirectConvPlan(3, channels, 13, 11, 5, 2, 5, dtype=np.float32)
        out = plan.run(x, taps_of(weight))
        assert_close(out, reference(x, weight, np.zeros(5, np.float32), 2))
