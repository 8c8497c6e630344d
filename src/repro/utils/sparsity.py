"""Empty-step dispatch for the SNN engine's synaptic and pooling layers.

The engine's synaptic work per step is ``W · incoming`` where ``incoming``
holds the spike amplitudes of the previous layer.  Phase/burst hybrid coding
makes those amplitude tensors sparse (Table 2's spiking-density metric), and
a whole step of them is often silent.  An all-zero incoming tensor
contributes exactly ``0`` in any summation order, so a layer can answer it
with a precomputed response (the bias, or zeros for pooling) bit for bit.

Every dense, conv, average-pool and max-pool layer owns one
:class:`SparsityDispatcher` with a single policy for every dtype: **empty**
when the step's exact nonzero count is 0, **dense** otherwise.  The count is
the producing layer's ``incoming_nonzero`` hint when the engine supplies one,
or one ``count_nonzero`` scan of the input when it does not.  Nothing is
timed, so the choice (and every result) is the same in every process.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

__all__ = ["SparsityDispatcher"]

#: dispatcher decision labels
DENSE = "dense"
EMPTY = "empty"


class SparsityDispatcher:
    """Per-layer empty-or-dense selector with decision counters.

    ``decisions`` counts the choices since the last :meth:`reset`
    (diagnostics, tests and the benchmark's dispatch shares).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.decisions: Dict[str, int] = {DENSE: 0, EMPTY: 0}

    def reset(self) -> None:
        """Start a simulation: clear the decision counters."""
        self.decisions = {DENSE: 0, EMPTY: 0}

    def choose(self, ops, incoming: np.ndarray, nonzero: Optional[int] = None) -> str:
        """``EMPTY`` when ``incoming`` is all zero, ``DENSE`` otherwise.

        ``nonzero`` is the exact nonzero count of ``incoming`` when the caller
        knows it; otherwise the backend ``ops`` counts it.
        """
        if nonzero is None:
            nonzero = ops.count_nonzero(incoming)
        decision = EMPTY if nonzero == 0 else DENSE
        self.decisions[decision] += 1
        return decision

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SparsityDispatcher(name={self.name!r}, decisions={self.decisions})"
