"""Tests for the ANN layers, including numerical gradient checks."""

import numpy as np
import pytest

from repro.ann.layers import (
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ReLU,
)


def _loss_and_grad(output):
    """A simple quadratic 'loss' and its gradient used for gradient checks."""
    return 0.5 * float(np.sum(output**2)), output


class TestDense:
    def test_forward_shape(self):
        layer = Dense(4, 3, seed=0)
        assert layer.forward(np.zeros((2, 4))).shape == (2, 3)

    def test_output_shape(self):
        assert Dense(4, 3, seed=0).output_shape((4,)) == (3,)

    def test_output_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dense(4, 3, seed=0).output_shape((5,))

    def test_forward_matches_manual(self):
        layer = Dense(2, 2, seed=0)
        layer.params["weight"] = np.array([[1.0, 2.0], [3.0, 4.0]])
        layer.params["bias"] = np.array([0.5, -0.5])
        out = layer.forward(np.array([[1.0, 1.0]]))
        assert np.allclose(out, [[4.5, 5.5]])

    def test_no_bias(self):
        layer = Dense(3, 2, use_bias=False, seed=0)
        assert "bias" not in layer.params
        assert layer.forward(np.zeros((1, 3))).shape == (1, 2)

    def test_bad_input_shape_raises(self):
        with pytest.raises(ValueError):
            Dense(3, 2, seed=0).forward(np.zeros((2, 4)))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            Dense(3, 2, seed=0).backward(np.zeros((2, 2)))

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Dense(0, 2)

    def test_num_params(self):
        assert Dense(4, 3, seed=0).num_params() == 4 * 3 + 3

    def test_weight_gradient_numeric(self, grad_checker):
        rng = np.random.default_rng(0)
        layer = Dense(4, 3, seed=1)
        x = rng.normal(size=(5, 4))

        def forward_loss():
            return _loss_and_grad(layer.forward(x, training=True))[0]

        out = layer.forward(x, training=True)
        _, grad_out = _loss_and_grad(out)
        layer.backward(grad_out)
        numeric_w = grad_checker(forward_loss, layer.params["weight"])
        numeric_b = grad_checker(forward_loss, layer.params["bias"])
        assert np.allclose(layer.grads["weight"], numeric_w, atol=1e-5)
        assert np.allclose(layer.grads["bias"], numeric_b, atol=1e-5)

    def test_input_gradient_numeric(self, grad_checker):
        rng = np.random.default_rng(1)
        layer = Dense(3, 2, seed=2)
        x = rng.normal(size=(4, 3))
        out = layer.forward(x, training=True)
        _, grad_out = _loss_and_grad(out)
        grad_in = layer.backward(grad_out)
        numeric = grad_checker(
            lambda: _loss_and_grad(layer.forward(x, training=True))[0], x
        )
        assert np.allclose(grad_in, numeric, atol=1e-5)


class TestReLULayer:
    def test_forward(self):
        layer = ReLU()
        assert np.array_equal(layer.forward(np.array([[-1.0, 2.0]])), [[0.0, 2.0]])

    def test_backward_masks_negative(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 2.0]]), training=True)
        grad = layer.backward(np.array([[5.0, 5.0]]))
        assert np.array_equal(grad, [[0.0, 5.0]])

    def test_shape_preserved(self):
        assert ReLU().output_shape((3, 4, 4)) == (3, 4, 4)


class TestConv2D:
    def test_forward_shape(self):
        layer = Conv2D(3, 8, kernel_size=3, padding=1, seed=0)
        assert layer.forward(np.zeros((2, 3, 10, 10))).shape == (2, 8, 10, 10)

    def test_output_shape_stride(self):
        layer = Conv2D(1, 4, kernel_size=3, stride=2, padding=1, seed=0)
        assert layer.output_shape((1, 8, 8)) == (4, 4, 4)

    def test_wrong_channels(self):
        with pytest.raises(ValueError):
            Conv2D(3, 4, 3, seed=0).forward(np.zeros((1, 2, 8, 8)))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Conv2D(1, 1, kernel_size=0)
        with pytest.raises(ValueError):
            Conv2D(1, 1, kernel_size=3, padding=-1)

    def test_known_convolution_value(self):
        layer = Conv2D(1, 1, kernel_size=2, use_bias=False, seed=0)
        layer.params["weight"] = np.ones((1, 1, 2, 2))
        x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        out = layer.forward(x)
        # sum of each 2x2 window
        assert np.allclose(out[0, 0], [[0 + 1 + 3 + 4, 1 + 2 + 4 + 5], [3 + 4 + 6 + 7, 4 + 5 + 7 + 8]])

    def test_gradients_numeric(self, grad_checker):
        rng = np.random.default_rng(2)
        layer = Conv2D(2, 3, kernel_size=3, stride=1, padding=1, seed=3)
        x = rng.normal(size=(2, 2, 5, 5))

        def forward_loss():
            return _loss_and_grad(layer.forward(x, training=True))[0]

        out = layer.forward(x, training=True)
        _, grad_out = _loss_and_grad(out)
        grad_in = layer.backward(grad_out)

        numeric_w = grad_checker(forward_loss, layer.params["weight"])
        numeric_b = grad_checker(forward_loss, layer.params["bias"])
        numeric_x = grad_checker(forward_loss, x)
        assert np.allclose(layer.grads["weight"], numeric_w, atol=1e-4)
        assert np.allclose(layer.grads["bias"], numeric_b, atol=1e-4)
        assert np.allclose(grad_in, numeric_x, atol=1e-4)


class TestPooling:
    def test_avg_pool_values(self):
        layer = AvgPool2D(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        assert np.allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_values(self):
        layer = MaxPool2D(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        assert np.allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_pool_output_shapes(self):
        assert AvgPool2D(2).output_shape((3, 8, 8)) == (3, 4, 4)
        assert MaxPool2D(2).output_shape((3, 8, 8)) == (3, 4, 4)

    def test_avg_pool_gradient_numeric(self, grad_checker):
        rng = np.random.default_rng(3)
        layer = AvgPool2D(2)
        x = rng.normal(size=(1, 2, 4, 4))
        out = layer.forward(x, training=True)
        _, grad_out = _loss_and_grad(out)
        grad_in = layer.backward(grad_out)
        numeric = grad_checker(
            lambda: _loss_and_grad(layer.forward(x, training=True))[0], x
        )
        assert np.allclose(grad_in, numeric, atol=1e-5)

    def test_max_pool_gradient_numeric(self, grad_checker):
        rng = np.random.default_rng(4)
        layer = MaxPool2D(2)
        # well-separated values avoid ties that break the numerical gradient
        x = rng.permutation(np.arange(32, dtype=float)).reshape(1, 2, 4, 4)
        out = layer.forward(x, training=True)
        _, grad_out = _loss_and_grad(out)
        grad_in = layer.backward(grad_out)
        numeric = grad_checker(
            lambda: _loss_and_grad(layer.forward(x, training=True))[0], x
        )
        assert np.allclose(grad_in, numeric, atol=1e-4)

    def test_invalid_pool_size(self):
        with pytest.raises(ValueError):
            AvgPool2D(0)
        with pytest.raises(ValueError):
            MaxPool2D(0)

    @pytest.mark.parametrize("pool_cls", [AvgPool2D, MaxPool2D])
    def test_input_smaller_than_window_raises(self, pool_cls):
        with pytest.raises(ValueError):
            pool_cls(2).forward(np.ones((1, 1, 1, 4)))


class TestFlattenDropout:
    def test_flatten_roundtrip(self):
        layer = Flatten()
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 4))
        out = layer.forward(x, training=True)
        assert out.shape == (2, 48)
        assert layer.backward(out).shape == x.shape

    def test_flatten_output_shape(self):
        assert Flatten().output_shape((3, 4, 4)) == (48,)

    def test_dropout_inference_identity(self):
        layer = Dropout(0.5, seed=0)
        x = np.ones((4, 10))
        assert np.array_equal(layer.forward(x, training=False), x)

    def test_dropout_training_scales(self):
        layer = Dropout(0.5, seed=0)
        x = np.ones((2000, 10))
        out = layer.forward(x, training=True)
        # inverted dropout keeps the expectation at 1
        assert abs(out.mean() - 1.0) < 0.05
        assert set(np.unique(out)).issubset({0.0, 2.0})

    def test_dropout_backward_uses_mask(self):
        layer = Dropout(0.5, seed=1)
        x = np.ones((10, 10))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(out))
        assert np.array_equal(grad == 0.0, out == 0.0)

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestBatchNorm:
    def test_training_normalises(self):
        layer = BatchNorm(4)
        x = np.random.default_rng(0).normal(3.0, 2.0, size=(256, 4))
        out = layer.forward(x, training=True)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-3)

    def test_running_stats_updated(self):
        layer = BatchNorm(2, momentum=0.0)
        x = np.random.default_rng(1).normal(5.0, 1.0, size=(64, 2))
        layer.forward(x, training=True)
        assert np.allclose(layer.running_mean, x.mean(axis=0))

    def test_inference_uses_running_stats(self):
        layer = BatchNorm(2, momentum=0.0)
        x = np.random.default_rng(2).normal(size=(32, 2))
        layer.forward(x, training=True)
        out = layer.forward(x, training=False)
        expected = (x - layer.running_mean) / np.sqrt(layer.running_var + layer.eps)
        assert np.allclose(out, expected)

    def test_conv_input_shape(self):
        layer = BatchNorm(3)
        x = np.random.default_rng(3).normal(size=(4, 3, 5, 5))
        assert layer.forward(x, training=True).shape == x.shape

    def test_gradients_numeric(self, grad_checker):
        rng = np.random.default_rng(4)
        layer = BatchNorm(3)
        x = rng.normal(size=(8, 3))

        def forward_loss():
            return _loss_and_grad(layer.forward(x, training=True))[0]

        out = layer.forward(x, training=True)
        _, grad_out = _loss_and_grad(out)
        grad_in = layer.backward(grad_out)
        numeric_gamma = grad_checker(forward_loss, layer.params["gamma"])
        numeric_beta = grad_checker(forward_loss, layer.params["beta"])
        numeric_x = grad_checker(forward_loss, x)
        assert np.allclose(layer.grads["gamma"], numeric_gamma, atol=1e-4)
        assert np.allclose(layer.grads["beta"], numeric_beta, atol=1e-4)
        assert np.allclose(grad_in, numeric_x, atol=1e-4)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BatchNorm(0)
        with pytest.raises(ValueError):
            BatchNorm(3, momentum=1.5)


class TestPickling:
    @pytest.mark.parametrize(
        "layer, x, cache",
        [
            (Dense(6, 3, seed=0), np.ones((4, 6)), "_input"),
            (ReLU(), np.ones((4, 6)), "_pre_activation"),
            (Conv2D(2, 3, 3, seed=0), np.ones((2, 2, 5, 5)), "_cols"),
            (MaxPool2D(2), np.ones((2, 2, 4, 4)), "_argmax"),
            (Dropout(0.5, seed=0), np.ones((4, 6)), "_mask"),
            (BatchNorm(6), np.arange(24.0).reshape(4, 6), "_cache"),
        ],
    )
    def test_backward_caches_are_not_pickled(self, layer, x, cache):
        """Shard workers receive layers by pickle: the training-time caches
        stay behind, the parameters and the inference output travel."""
        import pickle

        layer.forward(x, training=True)
        assert getattr(layer, cache) is not None
        clone = pickle.loads(pickle.dumps(layer))
        assert getattr(clone, cache) is None
        assert getattr(layer, cache) is not None
        for name, value in layer.params.items():
            assert np.array_equal(clone.params[name], value)
        assert np.array_equal(clone.forward(x), layer.forward(x))

    def test_conv_pickle_does_not_grow_after_training_forward(self):
        """The cached columns (``_cols``) stay out of the pickle shard
        workers receive: a training forward adds only the recorded input
        and output shapes, not the 590 kB column matrix."""
        import pickle

        layer = Conv2D(8, 16, 3, padding=1, seed=0)
        before = len(pickle.dumps(layer))
        layer.forward(np.ones((4, 8, 16, 16)), training=True)
        assert layer._cols.nbytes > 50 * before
        assert len(pickle.dumps(layer)) <= before + 64
