"""The layered inference engine: build → plan → run.

The paper's coding schemes are interchangeable policies over one
conversion + simulation substrate; this package is that substrate, factored
into three explicit stages so every scheme — built-in or registered through
:mod:`repro.core.registry` — inherits it unchanged:

* :mod:`repro.engine.build` — ANN → converted SNN (weight normalisation,
  encoder / threshold resolution through the scheme registry),
* :mod:`repro.engine.plan` — per-network preparation: dtype resolution, the
  snapshot schedule, per-batch state reset driving the cached kernel plans,
  weight casts and buffer preallocation inside the layers,
* :mod:`repro.engine.run` — the time-stepped simulation loop with recording
  and converged-image early exit, plus shard orchestration across worker
  processes.

:mod:`repro.engine.session` stacks the three into a reusable
:class:`InferenceSession` — prepare once, serve many batches — which the
pipeline, the experiments and the CLI all route through.
"""

from repro.engine.build import build_network
from repro.engine.plan import (
    PreparedBatch,
    SimulationPlan,
    plan_simulation,
    recorded_step_schedule,
)
from repro.engine.run import (
    execute,
    resolve_worker_count,
    run_sharded,
    shard_ranges,
    simulate,
)
from repro.engine.session import InferenceSession

__all__ = [
    "build_network",
    "PreparedBatch",
    "SimulationPlan",
    "plan_simulation",
    "recorded_step_schedule",
    "execute",
    "simulate",
    "resolve_worker_count",
    "run_sharded",
    "shard_ranges",
    "InferenceSession",
]
