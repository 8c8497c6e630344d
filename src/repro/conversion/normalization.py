"""Weight normalisation for DNN→SNN conversion.

An IF neuron driven by reset-by-subtraction transmits at most ``V_th`` per
time step, so a converted network only approximates the original DNN if every
ReLU activation is rescaled below the firing threshold.  The classic recipe
(Diehl et al. [11]) is *data-based weight normalisation*:

1. run the trained DNN over a calibration set and record, for every weight
   layer ``l``, the maximum activation ``λ_l`` of the ReLU that follows it;
2. rescale ``W_l ← W_l · λ_{l-1} / λ_l`` and ``b_l ← b_l / λ_l``
   (with ``λ_0 = 1`` because inputs live in [0, 1]).

Rueckauer et al. [12, 13] observed that a single outlier activation can make
the scale far too conservative and proposed using a high *percentile* instead
of the maximum ("outlier-robust" normalisation).  Both variants are provided,
plus a purely *model-based* bound that needs no data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.ann.layers import BatchNorm, Conv2D, Dense, Layer, ReLU
from repro.ann.model import Sequential
from repro.utils.logging import get_logger
from repro.utils.threads import single_blas_thread

logger = get_logger("conversion.normalization")

#: Layers that carry convertible weights.
WEIGHT_LAYER_TYPES = (Dense, Conv2D)


@dataclass
class NormalizationResult:
    """Outcome of weight normalisation.

    Attributes
    ----------
    weights:
        Per-ANN-layer dictionaries of rescaled parameters (same structure as
        :meth:`repro.ann.model.Sequential.get_weights`).
    scales:
        Mapping ANN-layer index → activation scale ``λ_l`` used for that
        weight layer.
    percentile:
        The percentile used (100.0 means the plain maximum).
    method:
        ``"data"``, ``"robust"``, ``"model"`` or ``"none"``.
    """

    weights: List[Dict[str, np.ndarray]]
    scales: Dict[int, float] = field(default_factory=dict)
    percentile: float = 100.0
    method: str = "data"


def _weight_layer_indices(model: Sequential) -> List[int]:
    return [i for i, layer in enumerate(model.layers) if isinstance(layer, WEIGHT_LAYER_TYPES)]


def _activation_index_for(model: Sequential, layer_index: int) -> int:
    """Index of the activation that represents weight layer ``layer_index``.

    If the weight layer is immediately followed by a ReLU (possibly with a
    BatchNorm in between), the ReLU output is the activation whose maximum
    matters; otherwise the layer's own output is used.
    """
    index = layer_index
    j = layer_index + 1
    while j < len(model.layers) and isinstance(model.layers[j], (BatchNorm,)):
        index = j
        j += 1
    if j < len(model.layers) and isinstance(model.layers[j], ReLU):
        return j
    return index


def activation_scales(
    model: Sequential,
    calibration_x: np.ndarray,
    percentile: float = 100.0,
    batch_size: int = 64,
    eps: float = 1e-9,
) -> Dict[int, float]:
    """Per-weight-layer activation scales ``λ_l`` from a calibration set.

    Parameters
    ----------
    model:
        The trained ANN.
    calibration_x:
        Calibration inputs (a subset of the training set is typical).
    percentile:
        100.0 reproduces Diehl et al.'s max-based normalisation; values such
        as 99.9 give the outlier-robust variant of Rueckauer et al.
    """
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    calibration_x = np.asarray(calibration_x, dtype=np.float64)
    if calibration_x.shape[0] == 0:
        raise ValueError("calibration set is empty")

    indices = _weight_layer_indices(model)
    # Collect per-batch percentiles and reduce with the max over batches, which
    # is exact for percentile=100 and a close, memory-friendly approximation
    # otherwise.
    collected: Dict[int, List[float]] = {i: [] for i in indices}
    for start in range(0, calibration_x.shape[0], batch_size):
        batch = calibration_x[start : start + batch_size]
        activations = model.forward_collect(batch)
        for layer_index in indices:
            act_index = _activation_index_for(model, layer_index)
            values = activations[act_index]
            if percentile >= 100.0:
                scale = float(np.max(values)) if values.size else 0.0
            else:
                scale = float(np.percentile(values, percentile)) if values.size else 0.0
            collected[layer_index].append(scale)

    scales: Dict[int, float] = {}
    for layer_index in indices:
        batch_scales = collected[layer_index]
        scale = max(batch_scales) if batch_scales else 0.0
        scales[layer_index] = max(scale, eps)
    return scales


def model_based_scales(model: Sequential, eps: float = 1e-9) -> Dict[int, float]:
    """Data-free activation bounds derived from the weights alone.

    For inputs in [0, 1] the output of a ReLU neuron is bounded by the sum of
    its positive incoming weights (scaled by the previous layer's bound) plus
    its positive bias.  This is very conservative but needs no data.
    """
    scales: Dict[int, float] = {}
    previous_scale = 1.0
    for index, layer in enumerate(model.layers):
        if not isinstance(layer, WEIGHT_LAYER_TYPES):
            continue
        weight = layer.params["weight"]
        bias = layer.params.get("bias")
        if isinstance(layer, Dense):
            positive = np.clip(weight, 0.0, None).sum(axis=0)
        else:  # Conv2D: sum over in_channels and kernel
            positive = np.clip(weight, 0.0, None).sum(axis=(1, 2, 3))
        bound = positive * previous_scale
        if bias is not None:
            bound = bound + np.clip(bias, 0.0, None)
        scale = float(np.max(bound)) if bound.size else eps
        scale = max(scale, eps)
        scales[index] = scale
        previous_scale = scale
    return scales


@single_blas_thread()
def normalize_weights(
    model: Sequential,
    scales: Optional[Dict[int, float]] = None,
    calibration_x: Optional[np.ndarray] = None,
    percentile: float = 100.0,
    method: str = "data",
) -> NormalizationResult:
    """Produce rescaled weights implementing the chosen normalisation.

    Parameters
    ----------
    model:
        The trained ANN (not modified).
    scales:
        Pre-computed activation scales; if omitted they are derived from
        ``calibration_x`` (data/robust) or from the weights (model).
    method:
        ``"data"`` (max), ``"robust"`` (percentile), ``"model"`` (weight
        bound) or ``"none"`` (copy weights unchanged).

    The calibration forward pass runs with OpenBLAS pinned to one thread,
    so float64 scales do not depend on the machine's BLAS thread count.
    """
    method = method.lower()
    if method not in ("data", "robust", "model", "none"):
        raise ValueError(f"unknown normalisation method {method!r}")

    weights = model.get_weights()
    if method == "none":
        return NormalizationResult(weights=weights, scales={}, percentile=percentile, method=method)

    if scales is None:
        if method == "model":
            scales = model_based_scales(model)
        else:
            if calibration_x is None:
                raise ValueError(f"{method!r} normalisation requires calibration_x or scales")
            effective_percentile = 100.0 if method == "data" else percentile
            scales = activation_scales(model, calibration_x, percentile=effective_percentile)
            percentile = effective_percentile

    previous_scale = 1.0
    for index, layer in enumerate(model.layers):
        if not isinstance(layer, WEIGHT_LAYER_TYPES):
            continue
        if index not in scales:
            raise KeyError(f"no activation scale for weight layer index {index} ({layer.name})")
        scale = float(scales[index])
        if scale <= 0:
            raise ValueError(f"activation scale for layer {layer.name} must be positive, got {scale}")
        layer_weights = weights[index]
        layer_weights["weight"] = layer_weights["weight"] * (previous_scale / scale)
        if "bias" in layer_weights:
            layer_weights["bias"] = layer_weights["bias"] / scale
        previous_scale = scale
        logger.debug("normalised %s with scale %.4f", layer.name, scale)

    return NormalizationResult(weights=weights, scales=dict(scales), percentile=percentile, method=method)
