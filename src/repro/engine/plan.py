"""Plan stage: per-network preparation shared by every simulation run.

Everything that must happen *before* the first time step lives here,
pulled out of ``SpikingNetwork.run``:

* the simulation **dtype** is resolved once through the project policy
  (float32 default, float64 opt-in bit-identical to the seed engine),
* every layer is reset onto the numpy kernels
  (:class:`~repro.backends.numpy_backend.NumpyBackend`, the only backend),
  unless :attr:`SimulationPlan.backend` holds a stand-in such as the
  counting :class:`~repro.backends.instrument.InstrumentedBackend`,
* the **snapshot schedule** (which steps record output scores) is computed
  once per configuration — it does not depend on the batch,
* per-batch **preparation** (:meth:`SimulationPlan.prepare`) resets the
  encoder and every layer — which is where the weight casts, cached
  im2col/direct-conv plans, empty-step bias responses and scratch
  buffers are (re)built, all keyed inside the layers so repeated batches of
  the same geometry reuse them — registers the spike records, and enables
  per-phase input caching for periodic encoders.

A :class:`SimulationPlan` is cheap and reusable: the
:class:`~repro.engine.session.InferenceSession` builds one per configuration
and serves every subsequent batch through it, amortising the expensive parts
(which live in the network's layers) across requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.snn.network import SimulationConfig, SpikingNetwork
from repro.snn.recording import LayerRecord, SpikeRecord
from repro.utils.dtypes import resolve_dtype


def recorded_step_schedule(config: SimulationConfig) -> List[int]:
    """The 1-based steps at which output scores are snapshotted.

    Knowing the schedule up front lets the run stage fill one preallocated
    output-history block instead of stacking copies.
    """
    return [
        t + 1
        for t in range(config.time_steps)
        if (t + 1) % config.record_outputs_every == 0 or t == config.time_steps - 1
    ]


@dataclass
class PreparedBatch:
    """One input batch, bound to a plan and ready for the run stage.

    Produced by :meth:`SimulationPlan.prepare`; consumed (once) by
    :func:`repro.engine.run.execute`.  The encoder and layers have been reset
    for this batch and the spike records preallocated for the full horizon.
    """

    plan: "SimulationPlan"
    batch_size: int
    record: SpikeRecord
    input_record: LayerRecord
    layer_records: List[LayerRecord]


@dataclass
class SimulationPlan:
    """Reusable per-(network, config) preparation for simulation runs.

    ``backend`` is ``None`` (the numpy kernels) or a kernel object standing in
    for them, such as an :class:`~repro.backends.instrument.InstrumentedBackend`.
    """

    network: SpikingNetwork
    config: SimulationConfig
    dtype: np.dtype
    backend: Optional[object] = None
    recorded_steps: List[int] = field(default_factory=list)

    def prepare(self, x: np.ndarray) -> PreparedBatch:
        """Bind an input batch: validate, reset state, register recording.

        Layer ``reset`` re-initialises all dynamic state and (re)builds the
        per-geometry plans and buffers — cached inside the layers, so
        repeated batches of the same shape and dtype reuse them.
        """
        network = self.network
        x = np.asarray(x, dtype=self.dtype)
        if x.shape[1:] != network.input_shape:
            raise ValueError(
                f"input shape {x.shape[1:]} does not match network input {network.input_shape}"
            )
        batch_size = x.shape[0]
        if batch_size == 0:
            raise ValueError("input batch is empty")

        config = self.config
        record = SpikeRecord(
            sample_fraction=config.sample_fraction,
            record_trains=config.record_trains,
            seed=config.seed,
        )
        input_record = record.register_input(network.num_input_neurons())
        layer_records = [
            record.register_layer(layer.name, layer.num_neurons, layer.is_spiking)
            for layer in network.layers
        ]
        record.preallocate(config.time_steps, batch_size)

        network.encoder.reset(x, dtype=self.dtype)
        for layer in network.layers:
            layer.reset(batch_size, dtype=self.dtype, backend=self.backend)
        # A periodic input drive (phase / real / TTFS coding) lets the first
        # layer cache its synaptic input per phase — bit-exact in every dtype.
        first = network.layers[0]
        if hasattr(first, "enable_input_caching"):
            first.enable_input_caching(getattr(network.encoder, "steady_period", None))
        return PreparedBatch(
            plan=self,
            batch_size=batch_size,
            record=record,
            input_record=input_record,
            layer_records=layer_records,
        )


def plan_simulation(
    network: SpikingNetwork, config: Optional[SimulationConfig] = None
) -> SimulationPlan:
    """Build the (batch-independent) simulation plan for ``network``."""
    config = config or SimulationConfig()
    return SimulationPlan(
        network=network,
        config=config,
        dtype=resolve_dtype(config.dtype),
        recorded_steps=recorded_step_schedule(config),
    )
