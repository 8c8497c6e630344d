"""Reusable serving session: prepare once, serve many batches.

An :class:`InferenceSession` pins down a converted network and one simulation
configuration, then serves any number of input batches through the layered
engine.  The expensive work happens once and is amortised across requests:

* **build** — the DNN→SNN conversion (when constructed via
  :meth:`InferenceSession.from_model`) happens once per session,
* **plan** — the dtype and compute-backend resolution and the snapshot
  schedule are computed once, and the per-geometry kernel plans, weight
  casts and scratch buffers cached inside the network's layers survive
  across batches (all kernel hot paths run on the plan's resolved
  :class:`~repro.backends.base.KernelBackend`),
* **run** — every :meth:`run` call only pays the per-batch state reset and
  the step loop.

Results are bit-identical to fresh one-shot simulations of an identically
built network in both dtypes (for deterministic encoders; a stochastic
Poisson input encoder advances its RNG stream across requests, exactly as it
would across sequential batches).  The pipeline serves every batch of
``run_scheme`` through a session, and the CLI / experiments route through
the pipeline.

Thread safety
-------------
A session is **single-flight**: the network's layers hold shared plan
buffers, scratch arrays and recording state, so only one simulation may be
in flight per session at any time.  :meth:`InferenceSession.run` enforces
this with an internal lock — concurrent callers (e.g. the serving engine's
batcher threads, or user threads sharing one session) serialise instead of
corrupting each other's buffers.  For *parallel* execution build one session
per thread (each owns its own converted network) — or a whole pool in one
call with :meth:`InferenceSession.replica_pool`, which shares the float64
weight masters across replicas (per-replica plan/scratch buffers, so
replicas never contend on plan state) —
or use the sharded evaluation path.

Each :meth:`InferenceSession.run` executes its step loop with the loaded
OpenBLAS pinned to one thread (:func:`repro.engine.run.execute` takes
:func:`repro.utils.threads.single_blas_thread`).  The pin is process-wide
while any run is in flight: BLAS work in other threads runs single-threaded
meanwhile.  When the last concurrent run returns (or raises), the caller's
thread count is restored.
"""

from __future__ import annotations

import threading
from typing import List, Optional

import numpy as np

from repro.ann.model import Sequential
from repro.conversion.converter import ConversionConfig
from repro.conversion.normalization import NormalizationResult, normalize_weights
from repro.core.hybrid import HybridCodingScheme
from repro.engine.build import build_network
from repro.engine.plan import SimulationPlan, plan_simulation
from repro.engine.run import execute
from repro.snn.network import SimulationConfig, SimulationResult, SpikingNetwork
from repro.utils.rng import SeedLike

#: float64 master arrays shared across replica networks (read-only during
#: simulation: runs cast them into per-replica buffers, never write them)
_SHARED_MASTER_ATTRS = ("weight", "bias", "_weight_matrix", "_tap_master")


def _share_weight_masters(primary: SpikingNetwork, replica: SpikingNetwork) -> None:
    """Alias ``replica``'s weight masters to ``primary``'s arrays.

    Replicas are built from the same model and normalisation, so the values
    are already identical — aliasing just deduplicates the float64 masters in
    memory.  Per-replica state (cast caches, kernel plans, scratch buffers,
    neuron state) stays owned by each replica's own layers.
    """
    for p_layer, r_layer in zip(primary.layers, replica.layers):
        for attr in _SHARED_MASTER_ATTRS:
            master = getattr(p_layer, attr, None)
            if master is not None and getattr(r_layer, attr, None) is not None:
                setattr(r_layer, attr, master)


class InferenceSession:
    """Serve repeated inference requests over one converted network.

    Parameters
    ----------
    network:
        The converted :class:`~repro.snn.network.SpikingNetwork` (build it
        with :func:`repro.engine.build.build_network`, or use
        :meth:`from_model`).
    config:
        Simulation parameters shared by every request (defaults to
        :class:`~repro.snn.network.SimulationConfig`).
    """

    def __init__(
        self, network: SpikingNetwork, config: Optional[SimulationConfig] = None
    ) -> None:
        self.network = network
        self.config = config or SimulationConfig()
        self._plan: Optional[SimulationPlan] = None
        # the network's layers hold shared plan buffers and scratch arrays;
        # one simulation at a time per session (see "Thread safety" above)
        self._run_lock = threading.RLock()
        #: number of batches served so far
        self.batches_served = 0
        #: number of images served so far
        self.images_served = 0
        #: position of this session inside a :meth:`replica_pool` (0 for a
        #: standalone session and for the pool's primary)
        self.replica_index = 0

    @classmethod
    def from_model(
        cls,
        model: Sequential,
        scheme: HybridCodingScheme,
        *,
        config: Optional[SimulationConfig] = None,
        conversion: Optional[ConversionConfig] = None,
        normalization: Optional[NormalizationResult] = None,
        calibration_x: Optional[np.ndarray] = None,
        seed: SeedLike = None,
    ) -> "InferenceSession":
        """Build (convert) and wrap a network for ``scheme`` in one call."""
        network = build_network(
            model,
            scheme,
            conversion=conversion,
            normalization=normalization,
            calibration_x=calibration_x,
            seed=seed,
        )
        return cls(network, config)

    @classmethod
    def replica_pool(
        cls,
        model: Sequential,
        scheme: HybridCodingScheme,
        *,
        count: int,
        config: Optional[SimulationConfig] = None,
        conversion: Optional[ConversionConfig] = None,
        normalization: Optional[NormalizationResult] = None,
        calibration_x: Optional[np.ndarray] = None,
        seed: SeedLike = None,
    ) -> List["InferenceSession"]:
        """Build ``count`` independently runnable sessions over one model.

        Every replica is converted from the same model with the same (shared,
        computed-once) weight normalisation and identical configuration, so a
        float64 batch answers bit-identically on any replica.  The float64
        weight masters are aliased across replicas (one copy in memory);
        everything mutable — plan buffers, kernel plans, cast caches, neuron
        state — is per-replica, so replicas never contend on shared plan
        state.

        Note: a stochastic (Poisson) input encoder owns one RNG stream *per
        replica* — deterministic encoders (phase, TTFS, real amplitudes) are
        unaffected and keep the pool's bit-identity guarantee.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if normalization is None:
            if calibration_x is None:
                raise ValueError(
                    "replica_pool needs a shared normalization or calibration_x "
                    "to compute one"
                )
            shared_conversion = conversion or ConversionConfig()
            normalization = normalize_weights(
                model,
                calibration_x=calibration_x,
                percentile=shared_conversion.percentile,
                method=shared_conversion.normalization,
            )
        sessions: List[InferenceSession] = []
        for index in range(count):
            session = cls.from_model(
                model,
                scheme,
                config=config,
                conversion=conversion,
                normalization=normalization,
                seed=seed,
            )
            session.replica_index = index
            if index > 0:
                _share_weight_masters(sessions[0].network, session.network)
            sessions.append(session)
        return sessions

    @property
    def plan(self) -> SimulationPlan:
        """The session's (lazily built, reused) simulation plan."""
        if self._plan is None:
            self._plan = plan_simulation(self.network, self.config)
        return self._plan

    def run(
        self, x: np.ndarray, labels: Optional[np.ndarray] = None
    ) -> SimulationResult:
        """Simulate one input batch and return its result.

        Safe to call from multiple threads: calls serialise on the session's
        internal lock (the prepare/execute pair mutates shared layer state,
        so overlapping runs would corrupt each other's buffers).  The step
        loop runs with OpenBLAS pinned to one thread (see "Thread safety"
        above).
        """
        with self._run_lock:
            result = execute(self.plan.prepare(x), labels=labels)
            self.batches_served += 1
            self.images_served += result.batch_size
        return result

    def describe(self) -> str:
        """One-line summary used in logs."""
        return (
            f"InferenceSession({self.network.name!r}, dtype={self.plan.dtype}, "
            f"time_steps={self.config.time_steps}, batches_served={self.batches_served})"
        )
