"""Build stage: turn a trained ANN into a converted spiking network.

The build stage is pure construction — it owns no simulation state.  Given a
trained :class:`~repro.ann.model.Sequential` and a
:class:`~repro.core.hybrid.HybridCodingScheme` it

1. resolves the scheme's input encoder and hidden-layer threshold dynamics
   through the coding registry (:mod:`repro.core.registry`),
2. normalises the weights (or reuses a shared
   :class:`~repro.conversion.normalization.NormalizationResult` so every
   scheme sees identical weights, as in the paper), and
3. runs the DNN→SNN converter.

The resulting :class:`~repro.snn.network.SpikingNetwork` keeps float64 weight
masters; casting to the simulation dtype, plan construction and buffer
preallocation are the *plan* stage's job (:mod:`repro.engine.plan`), and the
step loop is the *run* stage's (:mod:`repro.engine.run`).  The layers bind
the numpy kernels (:mod:`repro.backends`) at each reset, not at build time.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.ann.model import Sequential
from repro.conversion.converter import ConversionConfig, convert_to_snn
from repro.conversion.normalization import NormalizationResult
from repro.core.hybrid import HybridCodingScheme
from repro.snn.network import SpikingNetwork
from repro.utils.rng import SeedLike


def build_network(
    model: Sequential,
    scheme: HybridCodingScheme,
    *,
    conversion: Optional[ConversionConfig] = None,
    normalization: Optional[NormalizationResult] = None,
    calibration_x: Optional[np.ndarray] = None,
    seed: SeedLike = None,
    input_shape: Optional[Tuple[int, ...]] = None,
    name: Optional[str] = None,
) -> SpikingNetwork:
    """Convert ``model`` into a spiking network configured for ``scheme``.

    Parameters
    ----------
    model:
        The trained ANN.
    scheme:
        The coding scheme; its encoder / threshold factories are resolved
        through the registry, so registered extensions (e.g. TTFS) convert
        without any engine changes.
    conversion:
        DNN→SNN conversion options (defaults to :class:`ConversionConfig`).
    normalization:
        Pre-computed weight normalisation, e.g. shared across schemes.
        When ``None``, normalisation is computed from ``calibration_x``.
    calibration_x:
        Calibration inputs for data-based normalisation (ignored when
        ``normalization`` is given).
    seed:
        Seed forwarded to stochastic encoders (Poisson rate input coding).
    """
    encoder = scheme.make_encoder(seed=seed)
    return convert_to_snn(
        model,
        encoder=encoder,
        threshold_factory=scheme.make_threshold_factory(),
        config=conversion,
        calibration_x=calibration_x,
        normalization_result=normalization,
        input_shape=input_shape,
        name=name or f"{model.name}-{scheme.notation}",
    )
