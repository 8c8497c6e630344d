"""Project-wide floating-point precision policy for the simulation engine.

The SNN hot path (membrane updates, im2col fills, GEMMs) is memory-bandwidth
bound, so simulating in ``float32`` roughly halves the bytes moved per step
and is the default.  ``float64`` remains a first-class opt-in — it is the
precision the ANN is trained and normalised in, and the engine's float64
results are kept bit-identical to the original (pre-optimisation) engine so
golden references stay valid.

Resolution order for the effective simulation dtype:

1. an explicit ``dtype=`` argument on the API being called
   (e.g. ``SimulationConfig(dtype="float64")`` or ``IFNeuronState(dtype=...)``);
2. a process-wide override installed via :func:`set_simulation_dtype` or the
   :func:`simulation_precision` context manager;
3. the ``REPRO_SIM_DTYPE`` environment variable (``float32`` / ``float64``);
4. the project default, ``float32``.

Everything outside the simulation engine (ANN training, weight normalisation,
analysis) stays in float64; weights are kept in float64 master copies and cast
once per simulation run, never per step.  The float64 bit-identity
guarantee is carried by the one compute backend,
:class:`~repro.backends.numpy_backend.NumpyBackend`.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator, Optional, Union

import numpy as np

DTypeLike = Union[str, type, np.dtype, None]

#: project default simulation precision
DEFAULT_SIMULATION_DTYPE = np.dtype(np.float32)

#: supported simulation dtypes (the engine is a 2-precision system on purpose:
#: anything below float32 breaks the spike-count semantics of small v_th)
_SUPPORTED = {
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}
_ALIASES = {
    "f32": "float32",
    "single": "float32",
    "f64": "float64",
    "double": "float64",
}

_override: Optional[np.dtype] = None


def _canonical(value: DTypeLike) -> np.dtype:
    if isinstance(value, np.dtype):
        key = value.name
    elif isinstance(value, str):
        key = value.strip().lower()
    else:
        key = np.dtype(value).name
    key = _ALIASES.get(key, key)
    if key not in _SUPPORTED:
        raise ValueError(
            f"unsupported simulation dtype {value!r}; expected one of "
            f"{sorted(_SUPPORTED)} (aliases: {sorted(_ALIASES)})"
        )
    return _SUPPORTED[key]


def simulation_dtype() -> np.dtype:
    """The currently effective simulation dtype (without an explicit override)."""
    if _override is not None:
        return _override
    env = os.environ.get("REPRO_SIM_DTYPE")
    if env:
        return _canonical(env)
    return DEFAULT_SIMULATION_DTYPE


def resolve_dtype(dtype: DTypeLike = None) -> np.dtype:
    """Resolve an optional explicit dtype against the policy default."""
    if dtype is None:
        return simulation_dtype()
    return _canonical(dtype)


def set_simulation_dtype(dtype: DTypeLike) -> np.dtype:
    """Install a process-wide simulation dtype override (``None`` clears it)."""
    global _override
    _override = None if dtype is None else _canonical(dtype)
    return simulation_dtype()


@contextlib.contextmanager
def simulation_precision(dtype: DTypeLike) -> Iterator[np.dtype]:
    """Temporarily override the simulation dtype::

        with simulation_precision("float64"):
            result = snn.run(x, config)
    """
    global _override
    previous = _override
    _override = _canonical(dtype)
    try:
        yield _override
    finally:
        _override = previous
