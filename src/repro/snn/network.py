"""Time-stepped SNN simulation engine.

A :class:`SpikingNetwork` is an ordered list of spiking layers terminated by
an :class:`~repro.snn.layers.OutputAccumulator`, together with an input
encoder.  ``run`` simulates the network for a fixed number of time steps on a
batch of static inputs and returns a :class:`SimulationResult` containing the
accumulated class scores over time and the recorded spiking activity.

The simulation itself lives in the layered engine: ``run`` delegates to
:func:`repro.engine.run.simulate` (plan preparation in
:mod:`repro.engine.plan`, the step loop in :mod:`repro.engine.run`), so this
module only defines the network structure, the configuration and the result
container.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.numpy_backend import check_backend_name
from repro.snn.encoding import InputEncoder
from repro.snn.layers import OutputAccumulator, SpikingLayer
from repro.snn.recording import SpikeRecord
from repro.utils.config import FrozenConfig, validate_positive
from repro.utils.dtypes import resolve_dtype


@dataclass(frozen=True)
class SimulationConfig(FrozenConfig):
    """Parameters of one SNN simulation run.

    Attributes
    ----------
    time_steps:
        Number of discrete simulation steps (the paper's "latency" axis).
    record_outputs_every:
        Store the accumulated output scores every this many steps (1 gives the
        full inference curve of Fig. 4; larger values save memory).
    record_trains:
        Record full spike trains for a sampled subset of neurons (needed by
        the ISI / firing-pattern analyses).
    sample_fraction:
        Fraction of neurons per layer whose trains are recorded (paper: 10%).
    seed:
        Seed for neuron sampling (and stochastic encoders if any).
    dtype:
        Simulation precision: ``"float32"``, ``"float64"`` or ``None`` to use
        the project dtype policy (float32 by default; see
        :mod:`repro.utils.dtypes`).  Float64 runs reproduce the original
        engine's outputs bit for bit.
    backend:
        ``None`` or ``"numpy"``, the only compute backend; anything else
        raises :class:`ValueError`.  Kept so a serving config can be copied
        into a simulation config field for field; the plan ignores it.
    early_exit_patience:
        Converged-image early exit: freeze an image once its output argmax
        has been stable for this many consecutive steps, dropping it from the
        simulated batch (its spikes stop; its recorded scores repeat the
        converged values for the rest of the run).  ``None`` (default)
        disables the mechanism entirely, leaving results identical to the
        seed engine.
    early_exit_margin:
        Adaptive early exit: additionally require the image's *per-step
        output margin* — the gap between its top-two accumulated class
        scores, divided by the steps simulated so far — to stay at or above
        this threshold throughout the ``early_exit_patience`` window, so
        images only freeze once the decision is confidently separated rather
        than merely unchanged.  Requires ``early_exit_patience``; ``None``
        (default) keeps the pure argmax-stability criterion, leaving results
        identical to runs without the mechanism.
    """

    time_steps: int = 100
    record_outputs_every: int = 1
    record_trains: bool = False
    sample_fraction: float = 0.1
    seed: int = 0
    dtype: Optional[str] = None
    backend: Optional[str] = None
    early_exit_patience: Optional[int] = None
    early_exit_margin: Optional[float] = None

    def __post_init__(self) -> None:
        validate_positive("time_steps", self.time_steps)
        validate_positive("record_outputs_every", self.record_outputs_every)
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError(
                f"sample_fraction must be in (0, 1], got {self.sample_fraction}"
            )
        if self.early_exit_patience is not None:
            validate_positive("early_exit_patience", self.early_exit_patience)
        if self.early_exit_margin is not None:
            validate_positive("early_exit_margin", self.early_exit_margin)
            if self.early_exit_patience is None:
                raise ValueError(
                    "early_exit_margin requires early_exit_patience (the margin "
                    "must hold for a patience window to freeze an image)"
                )
        resolve_dtype(self.dtype)  # fail fast on unsupported dtypes
        check_backend_name(self.backend)


@dataclass
class SimulationResult:
    """Outcome of one :meth:`SpikingNetwork.run` call.

    Attributes
    ----------
    output_history:
        Accumulated class scores at the recorded steps, shape
        ``(num_records, batch, classes)``.
    recorded_steps:
        1-based time steps at which ``output_history`` snapshots were taken.
    record:
        The :class:`~repro.snn.recording.SpikeRecord` with per-layer activity.
    """

    output_history: np.ndarray
    recorded_steps: np.ndarray
    record: SpikeRecord
    time_steps: int
    batch_size: int
    num_neurons: int
    labels: Optional[np.ndarray] = None
    #: per-image step at which early exit froze the image (-1 = never frozen;
    #: None when early exit was disabled)
    frozen_at: Optional[np.ndarray] = None

    @property
    def final_outputs(self) -> np.ndarray:
        """Accumulated class scores after the final step, shape (batch, classes)."""
        return self.output_history[-1]

    def predictions(self, step_index: int = -1) -> np.ndarray:
        """Predicted class per sample at a recorded step (default: last)."""
        return self.output_history[step_index].argmax(axis=1)

    def accuracy(self, labels: Optional[np.ndarray] = None, step_index: int = -1) -> float:
        """Top-1 accuracy at a recorded step against ``labels``."""
        labels = self._resolve_labels(labels)
        predicted = self.predictions(step_index)
        if labels.size == 0:
            return 0.0
        return float(np.mean(predicted == labels))

    def accuracy_curve(self, labels: Optional[np.ndarray] = None) -> np.ndarray:
        """Accuracy at every recorded step, shape ``(num_records,)``."""
        labels = self._resolve_labels(labels)
        if labels.size == 0:
            return np.zeros(self.output_history.shape[0])
        predicted = self.output_history.argmax(axis=2)
        return (predicted == labels[None, :]).mean(axis=1)

    def total_spikes(self, include_input: bool = True) -> int:
        """Total spikes emitted across the whole run."""
        return self.record.total_spikes(include_input=include_input)

    def spikes_per_sample(self, include_input: bool = True) -> float:
        """Average number of spikes per input sample."""
        if self.batch_size == 0:
            return 0.0
        return self.total_spikes(include_input=include_input) / self.batch_size

    def spiking_density(self, latency: Optional[int] = None, include_input: bool = True) -> float:
        """Spiking density as defined in Table 2 of the paper.

        ``density = spikes per image / (num_neurons · latency)`` — the expected
        number of spikes a neuron emits per time step.
        """
        latency = self.time_steps if latency is None else latency
        neurons = self.record.total_neurons(include_input=include_input)
        if latency <= 0 or neurons <= 0:
            return 0.0
        cumulative = self.record.cumulative_spikes(include_input=include_input)
        upto = int(min(latency, len(cumulative)))
        spikes = float(cumulative[upto - 1]) if upto > 0 else 0.0
        return spikes / self.batch_size / (neurons * latency)

    def _resolve_labels(self, labels: Optional[np.ndarray]) -> np.ndarray:
        if labels is None:
            labels = self.labels
        if labels is None:
            raise ValueError("labels are required (pass them or set result.labels)")
        return np.asarray(labels)


class SpikingNetwork:
    """A converted spiking network plus its input encoder.

    Parameters
    ----------
    layers:
        Ordered spiking layers; the last one must be an
        :class:`~repro.snn.layers.OutputAccumulator`.
    encoder:
        The input-layer :class:`~repro.snn.encoding.InputEncoder`.
    input_shape:
        Per-sample input shape (used for validation and neuron counting).
    """

    def __init__(
        self,
        layers: Sequence[SpikingLayer],
        encoder: InputEncoder,
        input_shape: Tuple[int, ...],
        name: str = "snn",
    ) -> None:
        if not layers:
            raise ValueError("SpikingNetwork requires at least one layer")
        if not isinstance(layers[-1], OutputAccumulator):
            raise ValueError("the final layer must be an OutputAccumulator")
        self.layers: List[SpikingLayer] = list(layers)
        self.encoder = encoder
        self.input_shape = tuple(int(v) for v in input_shape)
        self.name = name
        self.validate_shapes()

    # -- structure -------------------------------------------------------
    def validate_shapes(self) -> Tuple[int, ...]:
        """Propagate the input shape through every layer, raising on mismatch."""
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    @property
    def output_layer(self) -> OutputAccumulator:
        return self.layers[-1]  # type: ignore[return-value]

    @property
    def num_classes(self) -> int:
        return self.output_layer.num_classes

    def num_input_neurons(self) -> int:
        size = 1
        for dim in self.input_shape:
            size *= dim
        return size

    def num_neurons(self, include_input: bool = True) -> int:
        """Total IF neurons per sample (the paper's "# of neurons" column)."""
        total = sum(layer.num_neurons for layer in self.layers if layer.is_spiking)
        if include_input:
            total += self.num_input_neurons()
        return int(total)

    def summary(self) -> str:
        """Human-readable per-layer summary."""
        lines = [f"SpikingNetwork {self.name!r} (encoder={self.encoder.describe()})"]
        shape = self.input_shape
        lines.append(f"  input               shape={shape} neurons={self.num_input_neurons()}")
        for layer in self.layers:
            shape = layer.output_shape(shape)
            lines.append(
                f"  {layer.name:<20} shape={str(shape):<18} neurons={layer.num_neurons}"
            )
        lines.append(f"  total spiking neurons: {self.num_neurons()}")
        return "\n".join(lines)

    # -- simulation ------------------------------------------------------
    def run(
        self,
        x: np.ndarray,
        config: Optional[SimulationConfig] = None,
        labels: Optional[np.ndarray] = None,
    ) -> SimulationResult:
        """Simulate the network on a batch of static inputs.

        Delegates to the layered engine — :func:`repro.engine.run.simulate`
        (plan + step loop); callers serving many batches should hold a
        :class:`repro.engine.session.InferenceSession` instead, which reuses
        the plan across requests.

        Parameters
        ----------
        x:
            Input batch of shape ``(N,) + input_shape`` with values in [0, 1].
        config:
            Simulation parameters (defaults to ``SimulationConfig()``).
        labels:
            Optional ground-truth labels stored on the result for convenience.
        """
        from repro.engine.run import simulate

        return simulate(self, x, config=config, labels=labels)

    def simulate(
        self,
        x: np.ndarray,
        config: Optional[SimulationConfig] = None,
        labels: Optional[np.ndarray] = None,
    ) -> SimulationResult:
        """Alias of :meth:`run`, matching the engine's build/plan/run vocabulary."""
        return self.run(x, config=config, labels=labels)
