"""The compute kernels of the simulation engine.

The engine's per-step math — GEMMs, the max-pool winner gather, im2col /
direct-convolution plans, slab pooling and the elementwise integrate-and-fire
/ burst-threshold updates — is the numpy code in
:class:`~repro.backends.numpy_backend.NumpyBackend`, float64 bit-identical to
the seed engine.  It is the only backend: :func:`resolve_backend` returns the
shared instance (``SimulationConfig.backend`` and ``ServingConfig.backend``
accept only ``None`` or ``"numpy"``).

Each layer reaches the kernels through its ``ops`` attribute, so
:class:`~repro.backends.instrument.InstrumentedBackend` can wrap them to
count and time every call (the seam-contract tests and the traced benchmark
replay).
"""

from repro.backends.instrument import InstrumentedBackend, KernelCallRecorder
from repro.backends.numpy_backend import NumpyBackend, resolve_backend

__all__ = [
    "InstrumentedBackend",
    "KernelCallRecorder",
    "NumpyBackend",
    "resolve_backend",
]
