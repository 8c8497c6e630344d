"""Contract tests for :class:`~repro.ann.im2col.DirectConvPlan`.

The plan is the float32 convolution kernel of every stride-1 spiking conv
layer.  It picks one of two kernels from the geometry alone: the
single-GEMM panel for inputs of at most ``_PANEL_MAX_CHANNELS`` channels or
panels of at most ``_PANEL_MAX_BYTES``, one accumulating GEMM per tap
otherwise.  These tests pin:

* parity with the canonical :class:`~repro.ann.im2col.Im2colPlan` fill plus
  one GEMM, for both kernels;
* the rule, on both sides of each condition, and where it puts the MNIST
  CNN's and the VGG's convolutions;
* that the result is a pure function of the geometry: two plans agree bit
  for bit, and nothing is timed to pick a kernel.
"""

import importlib
import itertools
import time

import numpy as np
import pytest

from repro.ann.im2col import DirectConvPlan, Im2colPlan

im2col_module = importlib.import_module("repro.ann.im2col")

OUT_CHANNELS = 6
HEIGHT, WIDTH = 7, 9


def make_case(batch, channels, kernel, seed=0, size=(HEIGHT, WIDTH, OUT_CHANNELS)):
    height, width, out_channels = size
    rng = np.random.default_rng(seed)
    # spike-like input: sparse non-negative amplitudes
    x = ((rng.random((batch, channels, height, width)) < 0.3) * 0.5).astype(np.float32)
    weight = rng.standard_normal((out_channels, channels, kernel, kernel)).astype(np.float32)
    bias = rng.standard_normal(out_channels).astype(np.float32)
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


def build_plan(x, kernel, padding, out_channels=OUT_CHANNELS):
    n, c, h, w = x.shape
    return DirectConvPlan(n, c, h, w, kernel, padding, out_channels, dtype=np.float32)


def panel_bytes(plan):
    """Size of the plan's ``(K·K·C, batch_rows)`` float32 panel."""
    return plan.kernel**2 * plan.input_shape[1] * plan.batch_rows * 4


def kernel_run(plan, x, taps, bias, monkeypatch):
    """The name of the one kernel ``plan.run`` calls."""
    calls = []
    for name in ("_run_panel", "_run_accumulate"):
        original = getattr(plan, name)

        def record(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(plan, name, record)
    plan.run(x, taps, bias)
    assert len(calls) == 1
    return calls[0]


def assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=1e-5, atol=1e-5)


SMALL = (HEIGHT, WIDTH, OUT_CHANNELS)
#: (channels, kernel, padding, batch, (height, width, out channels), kernel
#: expected); the small images all fit the panel budget, so two network-size
#: geometries pin one parity case of each kernel under the real budget
MATCH_CASES = [
    pytest.param(channels, kernel, padding, batch, SMALL, None,
                 id=f"{channels}-{kernel}-{padding}-{batch}")
    for channels, kernel, padding, batch in itertools.product(
        [1, 2, 3, 4, 5, 8], [3, 5], [0, 1, 2], [1, 4]
    )
] + [
    pytest.param(8, 3, 1, 1, (14, 14, 16), "_run_panel", id="mnist-conv_1-batch-1"),
    pytest.param(8, 3, 1, 4, (28, 28, 8), "_run_accumulate", id="over-the-panel-budget"),
]


@pytest.mark.parametrize("channels, kernel, padding, batch, size, expected_kernel", MATCH_CASES)
def test_matches_im2col_gemm(channels, kernel, padding, batch, size, expected_kernel, monkeypatch):
    x, weight, bias = make_case(batch, channels, kernel, size=size)
    out_channels = size[2]
    plan = build_plan(x, kernel, padding, out_channels)
    ran = kernel_run(plan, x, taps_of(weight), bias, monkeypatch)
    if expected_kernel is not None:
        assert ran == expected_kernel
    out = plan._zfull_view
    expected = reference(x, weight, bias, padding)
    assert out.shape == expected.shape == (batch, out_channels, plan.out_h, plan.out_w)
    assert out.dtype == np.float32
    assert_close(out, expected)


@pytest.mark.parametrize("kernel", [3, 5])
def test_kernel_follows_channels_and_panel_size(kernel, monkeypatch):
    """A plan runs the panel when its input has at most
    ``_PANEL_MAX_CHANNELS`` channels or its panel fits ``_PANEL_MAX_BYTES``
    (inclusive), and accumulates otherwise: each condition is checked one
    byte inside and one byte outside the budget."""
    crossing = im2col_module._PANEL_MAX_CHANNELS
    for channels in range(1, 9):
        x, weight, bias = make_case(2, channels, kernel)
        size = panel_bytes(build_plan(x, kernel, 1))
        for budget, fits in ((size, True), (size - 1, False)):
            monkeypatch.setattr(im2col_module, "_PANEL_MAX_BYTES", budget)
            plan = build_plan(x, kernel, 1)
            expected = "_run_panel" if channels <= crossing or fits else "_run_accumulate"
            assert kernel_run(plan, x, taps_of(weight), bias, monkeypatch) == expected


#: (name, input channels, image side, output channels) of every stride-1
#: convolution after the first in the MNIST CNN and the VGG
NETWORK_CONVS = [
    ("mnist conv_1", 8, 14, 16),
    ("vgg conv_1", 8, 32, 8),
    ("vgg conv_2", 8, 16, 16),
    ("vgg conv_3", 16, 16, 16),
    ("vgg conv_4", 16, 8, 32),
    ("vgg conv_5", 32, 8, 32),
    ("vgg conv_6", 32, 8, 32),
]


def _uses_panel(batch, channels, side, out_channels):
    plan = DirectConvPlan(batch, channels, side, side, 3, 1, out_channels, dtype=np.float32)
    return plan._halo_flat is None


def test_panel_budget_at_the_network_geometries():
    """Serving-size batches of 1–7 images run MNIST ``conv_1`` on the panel,
    and every convolution of both networks at 16 images accumulates."""
    _, channels, side, out_channels = NETWORK_CONVS[0]
    for batch in range(1, 8):
        assert _uses_panel(batch, channels, side, out_channels), batch
    assert not _uses_panel(8, channels, side, out_channels)
    for name, channels, side, out_channels in NETWORK_CONVS:
        assert not _uses_panel(16, channels, side, out_channels), name
    # the first layers (1 and 3 channels) keep the panel at any batch
    assert _uses_panel(16, 1, 28, 8) and _uses_panel(16, 3, 32, 8)


@pytest.mark.parametrize("channels", [2, 8])
def test_two_plans_of_one_geometry_agree_bit_for_bit(channels):
    x, weight, bias = make_case(4, channels, 3, seed=3)
    taps = taps_of(weight)
    first = build_plan(x, 3, 1).run(x, taps, bias).copy()
    second = build_plan(x, 3, 1).run(x, taps, bias)
    assert np.array_equal(first, second)


def test_narrow_plan_never_allocates_the_halo():
    """A plan allocates only its own kernel's scratch: a 3-channel plan
    only ever runs the panel."""
    x, weight, bias = make_case(2, 3, 3)
    plan = build_plan(x, 3, 1)
    plan.run(x, taps_of(weight), bias)
    assert plan._halo_flat is None


def test_no_timer_picks_the_kernel(monkeypatch):
    """Building and running a plan of a geometry no other test uses must
    not read the clock: the kernel is a function of the geometry."""

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
