"""Sequential model container with training, evaluation and activation capture.

The converter needs two things beyond plain inference:

* access to the ordered list of layers and their weights, and
* the per-layer *activations* over a calibration set, which drive the
  data-based weight normalisation of Diehl et al. [11] and the outlier-robust
  percentile variant of Rueckauer et al. [12, 13].

``Sequential.forward_collect`` provides the latter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ann.layers import Layer
from repro.ann.losses import Loss, SoftmaxCrossEntropy
from repro.ann.metrics import accuracy
from repro.ann.optimizers import Optimizer, SGD
from repro.data.dataset import iterate_minibatches
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike
from repro.utils.threads import single_blas_thread

logger = get_logger("ann.model")


@dataclass
class TrainingHistory:
    """Per-epoch training curves recorded by :meth:`Sequential.fit`."""

    loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)

    def last(self) -> Dict[str, float]:
        """Return the most recent value of each recorded curve."""
        summary: Dict[str, float] = {}
        if self.loss:
            summary["loss"] = self.loss[-1]
        if self.train_accuracy:
            summary["train_accuracy"] = self.train_accuracy[-1]
        if self.val_accuracy:
            summary["val_accuracy"] = self.val_accuracy[-1]
        return summary


class Sequential:
    """An ordered stack of layers trained with backpropagation.

    Parameters
    ----------
    layers:
        Layers applied in order.  The final layer should produce class logits;
        the softmax lives inside :class:`~repro.ann.losses.SoftmaxCrossEntropy`.
    input_shape:
        Per-sample input shape, e.g. ``(1, 28, 28)`` or ``(784,)``.  Providing
        it enables shape validation of the whole stack at construction time.
    name:
        Identifier used in logs.
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        input_shape: Optional[Tuple[int, ...]] = None,
        name: str = "model",
    ) -> None:
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers: List[Layer] = list(layers)
        self.name = name
        self.input_shape = tuple(input_shape) if input_shape is not None else None
        if self.input_shape is not None:
            self.validate_shapes(self.input_shape)

    # -- structure -------------------------------------------------------
    def validate_shapes(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Propagate ``input_shape`` through every layer, raising on mismatch."""
        shape = tuple(input_shape)
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    def layer_shapes(self, input_shape: Optional[Tuple[int, ...]] = None) -> List[Tuple[int, ...]]:
        """Per-layer output shapes (index 0 is the first layer's output)."""
        shape = tuple(input_shape or self.input_shape or ())
        if not shape:
            raise ValueError("input_shape required (pass it or set it on the model)")
        shapes = []
        for layer in self.layers:
            shape = layer.output_shape(shape)
            shapes.append(shape)
        return shapes

    def num_params(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(layer.num_params() for layer in self.layers)

    def summary(self) -> str:
        """Human-readable per-layer summary (name, output shape, #params)."""
        lines = [f"Sequential {self.name!r}"]
        shape = self.input_shape
        for layer in self.layers:
            if shape is not None:
                shape = layer.output_shape(shape)
                shape_text = str(shape)
            else:
                shape_text = "?"
            lines.append(f"  {layer.name:<20} out={shape_text:<20} params={layer.num_params()}")
        lines.append(f"  total params: {self.num_params()}")
        return "\n".join(lines)

    # -- inference -------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the full stack and return the final-layer output (logits)."""
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def predict(self, x: np.ndarray, batch_size: int = 128) -> np.ndarray:
        """Predict class indices for ``x`` in batches."""
        scores = self.predict_scores(x, batch_size=batch_size)
        return scores.argmax(axis=1)

    def predict_scores(self, x: np.ndarray, batch_size: int = 128) -> np.ndarray:
        """Return raw logits for ``x`` in batches."""
        x = np.asarray(x, dtype=np.float64)
        outputs = []
        for start in range(0, x.shape[0], batch_size):
            outputs.append(self.forward(x[start : start + batch_size], training=False))
        return np.concatenate(outputs, axis=0) if outputs else np.empty((0, 0))

    def forward_collect(self, x: np.ndarray) -> List[np.ndarray]:
        """Run inference and return the output of *every* layer.

        Used by the data-based weight normalisation: the maximum (or a high
        percentile) of each layer's activation over a calibration set becomes
        the layer's normalisation factor.
        """
        out = np.asarray(x, dtype=np.float64)
        activations = []
        for layer in self.layers:
            out = layer.forward(out, training=False)
            activations.append(out)
        return activations

    # -- training --------------------------------------------------------
    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Back-propagate a gradient through the stack (training use only)."""
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    @single_blas_thread()
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 10,
        batch_size: int = 32,
        loss: Optional[Loss] = None,
        optimizer: Optional[Optimizer] = None,
        validation_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        shuffle: bool = True,
        seed: SeedLike = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train with minibatch SGD and return the training history.

        Runs with OpenBLAS pinned to one thread, so trained float64 weights
        do not depend on the machine's BLAS thread count.

        Parameters
        ----------
        x, y:
            Training inputs and integer labels.
        loss:
            Loss object; defaults to softmax cross-entropy.
        optimizer:
            Optimizer; defaults to SGD with momentum 0.9.
        validation_data:
            Optional ``(x_val, y_val)`` evaluated after every epoch.
        """
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        loss = loss or SoftmaxCrossEntropy()
        optimizer = optimizer or SGD(learning_rate=0.01, momentum=0.9)
        history = TrainingHistory()
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)

        for epoch in range(epochs):
            epoch_losses = []
            correct = 0
            seen = 0
            for bx, by in iterate_minibatches(x, y, batch_size, shuffle=shuffle, seed=seed):
                logits = self.forward(bx, training=True)
                value, grad = loss(logits, by)
                self.backward(grad)
                optimizer.step(self.layers)
                epoch_losses.append(value)
                correct += int((logits.argmax(axis=1) == by).sum())
                seen += bx.shape[0]
            epoch_loss = float(np.mean(epoch_losses)) if epoch_losses else 0.0
            train_acc = correct / max(seen, 1)
            history.loss.append(epoch_loss)
            history.train_accuracy.append(train_acc)
            if validation_data is not None:
                val_acc = self.evaluate(*validation_data, batch_size=batch_size)
                history.val_accuracy.append(val_acc)
                if verbose:
                    logger.info(
                        "%s epoch %d/%d loss=%.4f train_acc=%.4f val_acc=%.4f",
                        self.name, epoch + 1, epochs, epoch_loss, train_acc, val_acc,
                    )
            elif verbose:
                logger.info(
                    "%s epoch %d/%d loss=%.4f train_acc=%.4f",
                    self.name, epoch + 1, epochs, epoch_loss, train_acc,
                )
        return history

    def evaluate(self, x: np.ndarray, y: np.ndarray, batch_size: int = 128) -> float:
        """Top-1 accuracy of the model on ``(x, y)``."""
        scores = self.predict_scores(x, batch_size=batch_size)
        return accuracy(scores, y)

    # -- persistence helpers ---------------------------------------------
    def get_weights(self) -> List[Dict[str, np.ndarray]]:
        """Copy of each layer's parameter dictionary (empty for no-param layers)."""
        return [{k: v.copy() for k, v in layer.params.items()} for layer in self.layers]

    def set_weights(self, weights: List[Dict[str, np.ndarray]]) -> None:
        """Load parameters previously produced by :meth:`get_weights`."""
        if len(weights) != len(self.layers):
            raise ValueError(
                f"expected weights for {len(self.layers)} layers, got {len(weights)}"
            )
        for layer, layer_weights in zip(self.layers, weights):
            for key, value in layer_weights.items():
                if key not in layer.params:
                    raise KeyError(f"layer {layer.name} has no parameter {key!r}")
                if layer.params[key].shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {layer.name}.{key}: "
                        f"{layer.params[key].shape} vs {value.shape}"
                    )
                layer.params[key] = value.copy()
