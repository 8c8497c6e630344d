"""repro — reproduction of "Fast and Efficient Information Transmission with
Burst Spikes in Deep Spiking Neural Networks" (Park, Kim, Choe, Yoon — DAC 2019).

The package is organised bottom-up:

* :mod:`repro.ann` — numpy DNN framework used to train the source networks,
* :mod:`repro.data` — synthetic MNIST/CIFAR-like datasets,
* :mod:`repro.models` — MLP / CNN / VGG-16 builders,
* :mod:`repro.conversion` — DNN→SNN weight normalisation and conversion,
* :mod:`repro.backends` — the numpy compute kernels behind every hot path
  (GEMM, conv plans, pooling, IF/threshold updates), one backend,
* :mod:`repro.snn` — the discrete-time spiking simulator (IF neurons,
  threshold dynamics, weighted spikes, encoders),
* :mod:`repro.core` — the paper's contribution: burst coding and the
  layer-wise hybrid coding scheme, the pluggable coding-scheme registry
  (:mod:`repro.core.registry`), plus the end-to-end pipeline,
* :mod:`repro.engine` — the layered inference engine (build / plan / run)
  and the reusable :class:`~repro.engine.session.InferenceSession`,
* :mod:`repro.analysis` — ISI / burst / firing-pattern / latency analyses,
* :mod:`repro.energy` — TrueNorth / SpiNNaker normalized-energy model,
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart
----------
>>> from repro import (
...     make_mnist_like, build_mlp, SNNInferencePipeline, PipelineConfig,
...     HybridCodingScheme,
... )
>>> data = make_mnist_like(samples_per_class=20, seed=0)
>>> model = build_mlp(data.input_shape, [64], data.num_classes, seed=0)
>>> _ = model.fit(data.train.x, data.train.y, epochs=5)
>>> pipeline = SNNInferencePipeline(model, data, PipelineConfig(time_steps=60))
>>> run = pipeline.run_scheme(HybridCodingScheme.from_notation("phase-burst"))
>>> 0.0 <= run.accuracy <= 1.0
True
"""

from repro.core import (
    AggregatedRun,
    CodingParams,
    HybridCodingScheme,
    NeuralCoding,
    PipelineConfig,
    SNNInferencePipeline,
    standard_schemes,
    table1_schemes,
)
from repro.backends import resolve_backend
from repro.conversion import ConversionConfig, convert_to_snn, normalize_weights
from repro.data import (
    DataSplit,
    Dataset,
    load_dataset,
    make_cifar10_like,
    make_cifar100_like,
    make_mnist_like,
)
from repro.models import build_cnn, build_mlp, build_small_cnn, build_vgg16, build_vgg_small
from repro.engine import InferenceSession, build_network
from repro.snn import (
    BurstThreshold,
    ConstantThreshold,
    PhaseThreshold,
    SimulationConfig,
    SpikingNetwork,
    TTFSEncoder,
    make_encoder,
    make_threshold,
)
from repro.energy import SPINNAKER, TRUENORTH, EnergyWorkload, estimate_energy, normalized_energy
from repro.utils.serialization import load_model_weights, save_model_weights
from repro.analysis.information import compare_codings, transmission_efficiency, transmission_trace

__version__ = "1.0.0"

__all__ = [
    "load_model_weights",
    "save_model_weights",
    "compare_codings",
    "transmission_efficiency",
    "transmission_trace",
    "AggregatedRun",
    "CodingParams",
    "HybridCodingScheme",
    "NeuralCoding",
    "PipelineConfig",
    "SNNInferencePipeline",
    "standard_schemes",
    "table1_schemes",
    "resolve_backend",
    "ConversionConfig",
    "convert_to_snn",
    "normalize_weights",
    "DataSplit",
    "Dataset",
    "load_dataset",
    "make_cifar10_like",
    "make_cifar100_like",
    "make_mnist_like",
    "build_cnn",
    "build_mlp",
    "build_small_cnn",
    "build_vgg16",
    "build_vgg_small",
    "BurstThreshold",
    "ConstantThreshold",
    "PhaseThreshold",
    "SimulationConfig",
    "SpikingNetwork",
    "TTFSEncoder",
    "InferenceSession",
    "build_network",
    "make_encoder",
    "make_threshold",
    "SPINNAKER",
    "TRUENORTH",
    "EnergyWorkload",
    "estimate_energy",
    "normalized_energy",
    "__version__",
]
