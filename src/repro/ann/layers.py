"""Layers of the numpy ANN framework.

Every layer implements ``forward`` / ``backward`` and exposes its parameters
and gradients through dictionaries so the optimizers can update them in place.
Layers also implement ``output_shape`` so models can be shape-checked before
training and so the DNN→SNN converter can pre-allocate neuron state.

Shape conventions
-----------------
* Dense layers operate on ``(N, D)`` matrices.
* Convolution / pooling layers operate on channel-first ``(N, C, H, W)``
  batches.
* ``Flatten`` bridges the two.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.ann.activations import relu, relu_grad
from repro.ann.im2col import col2im, conv_output_size, im2col
from repro.ann.initializers import get_initializer
from repro.utils.rng import SeedLike, as_rng


#: per-batch caches that ``forward(training=True)`` keeps for ``backward``
_BACKWARD_CACHES = ("_input", "_pre_activation", "_cols", "_argmax", "_mask", "_cache")


class Layer:
    """Base class for all layers.

    Attributes
    ----------
    params:
        Mapping of parameter name to array (empty for parameter-free layers).
    grads:
        Mapping of parameter name to gradient array, filled by ``backward``.
    trainable:
        Whether the optimizer should update this layer's parameters.
    """

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or type(self).__name__
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self.trainable = True

    # -- interface -------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for input ``x``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_output`` and return the gradient w.r.t. input."""
        raise NotImplementedError

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Per-sample output shape given a per-sample ``input_shape``."""
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------
    @property
    def has_params(self) -> bool:
        return bool(self.params)

    def num_params(self) -> int:
        """Total number of scalar parameters in the layer."""
        return int(sum(p.size for p in self.params.values()))

    def __getstate__(self) -> Dict[str, object]:
        # activations cached by ``forward(training=True)`` for ``backward``
        # are most of a trained model's pickle (tens of MB for the VGG, sent
        # to every shard worker); an unpickled layer needs a forward first
        state = self.__dict__.copy()
        for name in _BACKWARD_CACHES:
            if name in state:
                state[name] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    use_bias:
        Whether to learn an additive bias (conversion methods such as
        Cao et al. [10] drop biases; Rueckauer et al. [12] keep them).
    weight_init:
        Name of the initialiser from :mod:`repro.ann.initializers`.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        use_bias: bool = True,
        weight_init: str = "he_normal",
        seed: SeedLike = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"in_features and out_features must be positive, got "
                f"{in_features}, {out_features}"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.use_bias = use_bias
        init = get_initializer(weight_init)
        self.params["weight"] = init((in_features, out_features), seed=seed)
        if use_bias:
            self.params["bias"] = np.zeros(out_features, dtype=np.float64)
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected input of shape (N, {self.in_features}), got {x.shape}"
            )
        if training:
            self._input = x
        out = x @ self.params["weight"]
        if self.use_bias:
            out = out + self.params["bias"]
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError(f"{self.name}: backward called before forward(training=True)")
        self.grads["weight"] = self._input.T @ grad_output
        if self.use_bias:
            self.grads["bias"] = grad_output.sum(axis=0)
        return grad_output @ self.params["weight"].T

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 1 or input_shape[0] != self.in_features:
            raise ValueError(
                f"{self.name}: expected per-sample shape ({self.in_features},), got {input_shape}"
            )
        return (self.out_features,)


class ReLU(Layer):
    """Rectified linear activation; converted to IF-neuron firing in the SNN."""

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.trainable = False
        self._pre_activation: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if training:
            self._pre_activation = x
        return relu(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._pre_activation is None:
            raise RuntimeError(f"{self.name}: backward called before forward(training=True)")
        return grad_output * relu_grad(self._pre_activation)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(input_shape)


class Conv2D(Layer):
    """2-D convolution over channel-first images, implemented with im2col.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts of input and output.
    kernel_size:
        Square kernel side length.
    stride, padding:
        Convolution stride and symmetric zero padding.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        use_bias: bool = True,
        weight_init: str = "he_normal",
        seed: SeedLike = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        for label, value in (
            ("in_channels", in_channels),
            ("out_channels", out_channels),
            ("kernel_size", kernel_size),
            ("stride", stride),
        ):
            if value <= 0:
                raise ValueError(f"{label} must be positive, got {value}")
        if padding < 0:
            raise ValueError(f"padding must be non-negative, got {padding}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.use_bias = use_bias
        init = get_initializer(weight_init)
        self.params["weight"] = init(
            (out_channels, in_channels, kernel_size, kernel_size), seed=seed
        )
        if use_bias:
            self.params["bias"] = np.zeros(out_channels, dtype=np.float64)
        self._cols: Optional[np.ndarray] = None
        self._input_shape: Optional[Tuple[int, int, int, int]] = None
        self._out_hw: Optional[Tuple[int, int]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"{self.name}: expected input (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n = x.shape[0]
        cols, out_h, out_w = im2col(x, self.kernel_size, self.kernel_size, self.stride, self.padding)
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
        if self._cols is None or self._input_shape is None or self._out_hw is None:
            raise RuntimeError(f"{self.name}: backward called before forward(training=True)")
        n = grad_output.shape[0]
        out_h, out_w = self._out_hw
        grad_cols_out = grad_output.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, self.out_channels)
        weight_matrix = self.params["weight"].reshape(self.out_channels, -1)
        self.grads["weight"] = (grad_cols_out.T @ self._cols).reshape(self.params["weight"].shape)
        if self.use_bias:
            self.grads["bias"] = grad_cols_out.sum(axis=0)
        grad_cols_in = grad_cols_out @ weight_matrix
        return col2im(
            grad_cols_in,
            self._input_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
        )

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 3 or input_shape[0] != self.in_channels:
            raise ValueError(
                f"{self.name}: expected per-sample shape ({self.in_channels}, H, W), "
                f"got {input_shape}"
            )
        _, h, w = input_shape
        out_h = conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (self.out_channels, out_h, out_w)


class AvgPool2D(Layer):
    """Average pooling.

    Average pooling is the pooling operation used in converted SNNs because it
    is linear and therefore maps exactly onto spike-rate averaging (Cao et
    al. [10]); the converter offers to replace max pooling with it.
    """

    def __init__(self, pool_size: int = 2, stride: Optional[int] = None, name: Optional[str] = None) -> None:
        super().__init__(name)
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        self.pool_size = pool_size
        self.stride = stride if stride is not None else pool_size
        if self.stride <= 0:
            raise ValueError(f"stride must be positive, got {self.stride}")
        self.trainable = False
        self._input_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4:
            raise ValueError(f"{self.name}: expected (N, C, H, W), got {x.shape}")
        n, c, h, w = x.shape
        cols, out_h, out_w = im2col(
            x.reshape(n * c, 1, h, w), self.pool_size, self.pool_size, self.stride, 0
        )
        out = cols.mean(axis=1).reshape(n, c, out_h, out_w)
        if training:
            self._input_shape = x.shape
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError(f"{self.name}: backward called before forward(training=True)")
        n, c, h, w = self._input_shape
        out_h = conv_output_size(h, self.pool_size, self.stride, 0)
        out_w = conv_output_size(w, self.pool_size, self.stride, 0)
        area = self.pool_size * self.pool_size
        grad_cols = np.repeat(
            grad_output.reshape(n * c * out_h * out_w, 1) / area, area, axis=1
        )
        grad_input = col2im(
            grad_cols, (n * c, 1, h, w), self.pool_size, self.pool_size, self.stride, 0
        )
        return grad_input.reshape(n, c, h, w)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 3:
            raise ValueError(f"{self.name}: expected per-sample (C, H, W), got {input_shape}")
        c, h, w = input_shape
        out_h = conv_output_size(h, self.pool_size, self.stride, 0)
        out_w = conv_output_size(w, self.pool_size, self.stride, 0)
        return (c, out_h, out_w)


class MaxPool2D(Layer):
    """Max pooling (used in the original DNN; replaced or spiked at conversion)."""

    def __init__(self, pool_size: int = 2, stride: Optional[int] = None, name: Optional[str] = None) -> None:
        super().__init__(name)
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        self.pool_size = pool_size
        self.stride = stride if stride is not None else pool_size
        if self.stride <= 0:
            raise ValueError(f"stride must be positive, got {self.stride}")
        self.trainable = False
        self._input_shape: Optional[Tuple[int, int, int, int]] = None
        self._argmax: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4:
            raise ValueError(f"{self.name}: expected (N, C, H, W), got {x.shape}")
        n, c, h, w = x.shape
        cols, out_h, out_w = im2col(
            x.reshape(n * c, 1, h, w), self.pool_size, self.pool_size, self.stride, 0
        )
        argmax = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), argmax].reshape(n, c, out_h, out_w)
        if training:
            self._input_shape = x.shape
            self._argmax = argmax
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None or self._argmax is None:
            raise RuntimeError(f"{self.name}: backward called before forward(training=True)")
        n, c, h, w = self._input_shape
        area = self.pool_size * self.pool_size
        flat = grad_output.reshape(-1)
        grad_cols = np.zeros((flat.shape[0], area), dtype=np.float64)
        grad_cols[np.arange(flat.shape[0]), self._argmax] = flat
        grad_input = col2im(
            grad_cols, (n * c, 1, h, w), self.pool_size, self.pool_size, self.stride, 0
        )
        return grad_input.reshape(n, c, h, w)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 3:
            raise ValueError(f"{self.name}: expected per-sample (C, H, W), got {input_shape}")
        c, h, w = input_shape
        out_h = conv_output_size(h, self.pool_size, self.stride, 0)
        out_w = conv_output_size(w, self.pool_size, self.stride, 0)
        return (c, out_h, out_w)


class Flatten(Layer):
    """Reshape ``(N, C, H, W)`` activations to ``(N, C*H*W)`` rows."""

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.trainable = False
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if training:
            self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError(f"{self.name}: backward called before forward(training=True)")
        return grad_output.reshape(self._input_shape)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        size = 1
        for dim in input_shape:
            size *= dim
        return (size,)


class Dropout(Layer):
    """Inverted dropout; identity at inference (and therefore in the SNN)."""

    def __init__(self, rate: float = 0.5, seed: SeedLike = None, name: Optional[str] = None) -> None:
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.trainable = False
        self._rng = as_rng(seed)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.uniform(size=x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(input_shape)


class BatchNorm(Layer):
    """Batch normalisation over the channel (or feature) dimension.

    The converter folds BatchNorm parameters into the preceding Dense/Conv2D
    weights before building the SNN (see
    :func:`repro.conversion.converter.fold_batch_norm`), so spiking networks
    never contain an explicit BatchNorm layer.
    """

    def __init__(
        self,
        num_features: int,
        momentum: float = 0.9,
        eps: float = 1e-5,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        if num_features <= 0:
            raise ValueError(f"num_features must be positive, got {num_features}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.params["gamma"] = np.ones(num_features, dtype=np.float64)
        self.params["beta"] = np.zeros(num_features, dtype=np.float64)
        self.running_mean = np.zeros(num_features, dtype=np.float64)
        self.running_var = np.ones(num_features, dtype=np.float64)
        self._cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def _moments_axes(self, x: np.ndarray) -> Tuple[int, ...]:
        if x.ndim == 2:
            return (0,)
        if x.ndim == 4:
            return (0, 2, 3)
        raise ValueError(f"{self.name}: expected 2-D or 4-D input, got shape {x.shape}")

    def _broadcast(self, values: np.ndarray, ndim: int) -> np.ndarray:
        if ndim == 2:
            return values.reshape(1, -1)
        return values.reshape(1, -1, 1, 1)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        axes = self._moments_axes(x)
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean = self.running_mean
            var = self.running_var
        mean_b = self._broadcast(mean, x.ndim)
        var_b = self._broadcast(var, x.ndim)
        x_hat = (x - mean_b) / np.sqrt(var_b + self.eps)
        if training:
            self._cache = (x_hat, var_b, x - mean_b)
        gamma = self._broadcast(self.params["gamma"], x.ndim)
        beta = self._broadcast(self.params["beta"], x.ndim)
        return gamma * x_hat + beta

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward(training=True)")
        x_hat, var_b, centered = self._cache
        axes = self._moments_axes(grad_output)
        m = float(np.prod([grad_output.shape[a] for a in axes]))
        gamma = self._broadcast(self.params["gamma"], grad_output.ndim)

        self.grads["gamma"] = (grad_output * x_hat).sum(axis=axes)
        self.grads["beta"] = grad_output.sum(axis=axes)

        std_inv = 1.0 / np.sqrt(var_b + self.eps)
        grad_x_hat = grad_output * gamma
        grad_var = (-0.5 * (grad_x_hat * centered).sum(axis=axes, keepdims=True)) * std_inv**3
        grad_mean = (-grad_x_hat * std_inv).sum(axis=axes, keepdims=True) + grad_var * (
            -2.0 * centered.mean(axis=axes, keepdims=True)
        )
        return grad_x_hat * std_inv + grad_var * 2.0 * centered / m + grad_mean / m

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(input_shape)
