"""Exactness oracle for the ANN conv and pooling layers.

Every workload trains its DNN before converting it, and the float64 goldens
hold only if training is bit-identical to the seed.  This module keeps the
seed's ``im2col`` / ``col2im`` and its ``Conv2D``, ``AvgPool2D`` and
``MaxPool2D`` forward/backward formulas verbatim as the oracle, and asserts
``np.array_equal`` between them and the shipped layers on outputs, weight,
bias and input gradients and pooled gradients.

The geometries go beyond what the goldens train: kernels 1/3/5, strides 1/2,
paddings 0/1/2, 1 to 32 channels, batches 1 to 32, odd sizes such as 9×11,
and products with a dimension of 1.  A three-step ``Sequential.fit`` of a small CNN must
also produce the same weight bytes as a copy built from the oracle layers.
"""

from typing import Tuple

import numpy as np
import pytest

from repro.ann.im2col import col2im, conv_output_size, im2col
from repro.ann.layers import AvgPool2D, Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.ann.model import Sequential
from repro.ann.optimizers import Adam


# -- the seed formulas, verbatim --------------------------------------------

def oracle_im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ValueError(f"im2col expects (N, C, H, W), got shape {x.shape}")
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)

    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant")

    # Strided sliding-window view: (N, C, out_h, out_w, kernel_h, kernel_w)
    stride_n, stride_c, stride_h, stride_w = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel_h, kernel_w),
        strides=(stride_n, stride_c, stride_h * stride, stride_w * stride, stride_h, stride_w),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kernel_h * kernel_w)
    return np.ascontiguousarray(cols), out_h, out_w


def oracle_col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    padded_h = h + 2 * padding
    padded_w = w + 2 * padding

    cols_reshaped = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w).transpose(0, 3, 4, 5, 1, 2)
    x_padded = np.zeros((n, c, padded_h, padded_w), dtype=np.float64)
    for ky in range(kernel_h):
        y_max = ky + stride * out_h
        for kx in range(kernel_w):
            x_max = kx + stride * out_w
            x_padded[:, :, ky:y_max:stride, kx:x_max:stride] += cols_reshaped[:, :, ky, kx, :, :]
    if padding > 0:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded


class OracleConv2D(Conv2D):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        n = x.shape[0]
        cols, out_h, out_w = oracle_im2col(x, self.kernel_size, self.kernel_size, self.stride, self.padding)
        weight_matrix = self.params["weight"].reshape(self.out_channels, -1)
        out = cols @ weight_matrix.T
        if self.use_bias:
            out = out + self.params["bias"]
        out = out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        if training:
            self._cols = cols
            self._input_shape = x.shape
            self._out_hw = (out_h, out_w)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        n = grad_output.shape[0]
        out_h, out_w = self._out_hw
        grad_cols_out = grad_output.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, self.out_channels)
        weight_matrix = self.params["weight"].reshape(self.out_channels, -1)
        self.grads["weight"] = (grad_cols_out.T @ self._cols).reshape(self.params["weight"].shape)
        if self.use_bias:
            self.grads["bias"] = grad_cols_out.sum(axis=0)
        grad_cols_in = grad_cols_out @ weight_matrix
        return oracle_col2im(
            grad_cols_in,
            self._input_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
        )


class OracleAvgPool2D(AvgPool2D):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        n, c, h, w = x.shape
        cols, out_h, out_w = oracle_im2col(
            x.reshape(n * c, 1, h, w), self.pool_size, self.pool_size, self.stride, 0
        )
        out = cols.mean(axis=1).reshape(n, c, out_h, out_w)
        if training:
            self._input_shape = x.shape
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        n, c, h, w = self._input_shape
        out_h = conv_output_size(h, self.pool_size, self.stride, 0)
        out_w = conv_output_size(w, self.pool_size, self.stride, 0)
        area = self.pool_size * self.pool_size
        grad_cols = np.repeat(
            grad_output.reshape(n * c * out_h * out_w, 1) / area, area, axis=1
        )
        grad_input = oracle_col2im(
            grad_cols, (n * c, 1, h, w), self.pool_size, self.pool_size, self.stride, 0
        )
        return grad_input.reshape(n, c, h, w)


class OracleMaxPool2D(MaxPool2D):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        n, c, h, w = x.shape
        cols, out_h, out_w = oracle_im2col(
            x.reshape(n * c, 1, h, w), self.pool_size, self.pool_size, self.stride, 0
        )
        argmax = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), argmax].reshape(n, c, out_h, out_w)
        if training:
            self._input_shape = x.shape
            self._argmax = argmax
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        n, c, h, w = self._input_shape
        area = self.pool_size * self.pool_size
        flat = grad_output.reshape(-1)
        grad_cols = np.zeros((flat.shape[0], area), dtype=np.float64)
        grad_cols[np.arange(flat.shape[0]), self._argmax] = flat
        grad_input = oracle_col2im(
            grad_cols, (n * c, 1, h, w), self.pool_size, self.pool_size, self.stride, 0
        )
        return grad_input.reshape(n, c, h, w)


# -- comparisons --------------------------------------------------------------

def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    """Equal values, shapes and bytes (``array_equal`` alone lets -0.0 == 0.0)."""
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


CONV_GEOMETRIES = [
    # (n, c, h, w, out_c, kernel, stride, padding)
    (1, 1, 9, 11, 1, 1, 1, 0),  # every product dimension 1 or tiny
    (1, 3, 9, 11, 8, 3, 1, 1),
    (1, 32, 6, 6, 16, 3, 1, 1),  # deep but small: OpenBLAS's small-matrix range
    (1, 32, 8, 8, 32, 3, 1, 1),
    (7, 3, 9, 11, 8, 3, 2, 1),
    (7, 8, 9, 11, 16, 5, 1, 2),
    (7, 8, 9, 11, 1, 3, 1, 1),  # one output channel: GEMV-shaped products
    (7, 32, 9, 11, 32, 3, 1, 1),  # large product, 693 rows (not a multiple of 16)
    (28, 16, 9, 11, 32, 5, 2, 2),
    (28, 8, 16, 16, 16, 3, 1, 1),
    (32, 1, 9, 11, 8, 1, 1, 0),  # one input channel, 1×1 kernel: depth 1
    (32, 3, 11, 9, 32, 1, 2, 0),
    (32, 1, 28, 28, 8, 3, 1, 1),  # the MNIST CNN's conv_0
    (32, 3, 32, 32, 8, 3, 1, 1),  # the VGG's conv_0
    (32, 32, 8, 8, 32, 3, 1, 1),  # the VGG's conv_5/conv_6
]

POOL_GEOMETRIES = [
    # (n, c, h, w, pool, stride)
    (1, 1, 4, 4, 2, 2),
    (7, 3, 9, 11, 2, 2),  # odd sizes leave a row and a column unpooled
    (7, 3, 9, 11, 3, 2),  # overlapping windows
    (28, 8, 16, 16, 2, 2),
    (32, 32, 8, 8, 2, 2),
    (7, 8, 9, 11, 2, 1),
    (7, 8, 9, 9, 3, 3),
]


def conv_pair(n, c, h, w, out_c, kernel, stride, padding) -> Tuple[Conv2D, OracleConv2D]:
    shipped = Conv2D(c, out_c, kernel, stride=stride, padding=padding, seed=3)
    oracle = OracleConv2D(c, out_c, kernel, stride=stride, padding=padding, seed=3)
    rng = np.random.default_rng(4)
    bias = rng.normal(size=out_c)
    shipped.params["bias"][...] = bias
    oracle.params["bias"][...] = bias
    return shipped, oracle


class TestColumnKernels:
    @pytest.mark.parametrize("geometry", CONV_GEOMETRIES)
    def test_im2col_matches_oracle(self, geometry):
        n, c, h, w, _, kernel, stride, padding = geometry
        x = np.random.default_rng(0).normal(size=(n, c, h, w))
        expected, out_h, out_w = oracle_im2col(x, kernel, kernel, stride, padding)
        cols, cols_h, cols_w = im2col(x, kernel, kernel, stride, padding)
        assert (cols_h, cols_w) == (out_h, out_w)
        assert cols.flags.c_contiguous
        assert_same_bits(cols, expected)

    @pytest.mark.parametrize("geometry", CONV_GEOMETRIES)
    def test_col2im_matches_oracle(self, geometry):
        n, c, h, w, _, kernel, stride, padding = geometry
        out_h = conv_output_size(h, kernel, stride, padding)
        out_w = conv_output_size(w, kernel, stride, padding)
        cols = np.random.default_rng(1).normal(size=(n * out_h * out_w, c * kernel * kernel))
        folded = col2im(cols, (n, c, h, w), kernel, kernel, stride, padding)
        assert folded.flags.c_contiguous
        assert_same_bits(folded, oracle_col2im(cols, (n, c, h, w), kernel, kernel, stride, padding))


class TestConv2DExactness:
    @pytest.mark.parametrize("geometry", CONV_GEOMETRIES)
    def test_forward_and_gradients_match_oracle(self, geometry):
        n, c, h, w, out_c, kernel, stride, padding = geometry
        shipped, oracle = conv_pair(*geometry)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(n, c, h, w))
        out = shipped.forward(x, training=True)
        expected = oracle.forward(x, training=True)
        assert_same_bits(out, expected)
        # the seed's memory layout: (rows, out_c) row-major viewed as NCHW
        assert out.transpose(0, 2, 3, 1).flags.c_contiguous
        grad = rng.normal(size=out.shape)
        # the gradient arrives through a ReLU in training, in the layout of
        # the forward output; feed both layers that layout
        grad = np.ascontiguousarray(grad.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        grad_input = shipped.backward(grad)
        expected_grad_input = oracle.backward(grad)
        assert_same_bits(grad_input, expected_grad_input)
        assert_same_bits(shipped.grads["weight"], oracle.grads["weight"])
        assert_same_bits(shipped.grads["bias"], oracle.grads["bias"])


class TestPoolingExactness:
    @pytest.mark.parametrize("geometry", POOL_GEOMETRIES)
    @pytest.mark.parametrize(
        "shipped_cls, oracle_cls",
        [(AvgPool2D, OracleAvgPool2D), (MaxPool2D, OracleMaxPool2D)],
        ids=["avg", "max"],
    )
    def test_forward_and_backward_match_oracle(self, geometry, shipped_cls, oracle_cls):
        n, c, h, w, pool, stride = geometry
        shipped = shipped_cls(pool, stride=stride)
        oracle = oracle_cls(pool, stride=stride)
        rng = np.random.default_rng(5)
        # rounded values make max-pool ties, which must break the same way
        x = np.round(rng.normal(size=(n, c, h, w)), 1)
        out = shipped.forward(x, training=True)
        assert out.flags.c_contiguous
        assert_same_bits(out, oracle.forward(x, training=True))
        grad = rng.normal(size=out.shape)
        assert_same_bits(shipped.backward(grad), oracle.backward(grad))


def small_cnn(conv=Conv2D, avg_pool=AvgPool2D, max_pool=MaxPool2D) -> Sequential:
    return Sequential(
        [
            conv(3, 16, 3, padding=1, seed=10, name="conv_0"),
            ReLU(name="relu_0"),
            avg_pool(2, name="pool_0"),
            conv(16, 16, 3, stride=2, padding=1, seed=11, name="conv_1"),
            ReLU(name="relu_1"),
            max_pool(2, name="pool_1"),
            Flatten(name="flatten"),
            Dense(16 * 3 * 3, 10, seed=12, name="fc"),
        ],
        input_shape=(3, 24, 24),
        name="exactness-cnn",
    )


def test_three_step_fit_matches_oracle_weights():
    """Three Adam steps (batches of 12, 12 and 7 images) give the same
    weight bytes through the shipped layers as through the oracle layers."""
    rng = np.random.default_rng(6)
    x = rng.normal(size=(31, 3, 24, 24))
    y = rng.integers(0, 10, size=31)
    shipped = small_cnn()
    oracle = small_cnn(OracleConv2D, OracleAvgPool2D, OracleMaxPool2D)
    for model in (shipped, oracle):
        model.fit(x, y, epochs=1, batch_size=12, optimizer=Adam(learning_rate=1e-2), seed=0)
    moved = False
    for trained, expected, initial in zip(
        shipped.get_weights(), oracle.get_weights(), small_cnn().get_weights()
    ):
        for key, value in expected.items():
            assert_same_bits(trained[key], value)
            moved = moved or not np.array_equal(value, initial[key])
    assert moved
