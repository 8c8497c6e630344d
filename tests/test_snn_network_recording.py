"""Tests for the SNN engine (SpikingNetwork) and spike recording."""

import numpy as np
import pytest

from repro.snn.encoding import RateEncoder, RealEncoder
from repro.snn.layers import OutputAccumulator, SpikingDense
from repro.snn.network import SimulationConfig, SpikingNetwork
from repro.snn.recording import LayerRecord, SpikeRecord
from repro.snn.thresholds import ConstantThreshold


def _toy_network(encoder=None, v_th=0.5):
    """Input(2) -> spiking dense(3) -> output(2)."""
    rng = np.random.default_rng(0)
    hidden_weight = rng.uniform(0.2, 0.8, size=(2, 3))
    output_weight = rng.uniform(-0.5, 0.5, size=(3, 2))
    layers = [
        SpikingDense(hidden_weight, None, ConstantThreshold(v_th), name="hidden"),
        OutputAccumulator(output_weight, None, name="out"),
    ]
    return SpikingNetwork(layers, encoder or RealEncoder(), input_shape=(2,), name="toy")


class TestSimulationConfig:
    def test_defaults_valid(self):
        SimulationConfig()

    def test_invalid_time_steps(self):
        with pytest.raises(ValueError):
            SimulationConfig(time_steps=0)

    def test_invalid_sample_fraction(self):
        with pytest.raises(ValueError):
            SimulationConfig(sample_fraction=0.0)

    def test_numpy_is_the_only_backend(self):
        SimulationConfig(backend="numpy")
        SimulationConfig(backend=None)
        for name in ("torch", "blocked", "nmpy"):
            with pytest.raises(ValueError, match="the only backend is 'numpy'"):
                SimulationConfig(backend=name)


class TestSpikingNetworkStructure:
    def test_requires_output_accumulator_last(self):
        layer = SpikingDense(np.ones((2, 2)), None, ConstantThreshold())
        with pytest.raises(ValueError):
            SpikingNetwork([layer], RealEncoder(), input_shape=(2,))

    def test_requires_layers(self):
        with pytest.raises(ValueError):
            SpikingNetwork([], RealEncoder(), input_shape=(2,))

    def test_neuron_count(self):
        net = _toy_network()
        assert net.num_input_neurons() == 2
        assert net.num_neurons(include_input=True) == 5
        assert net.num_neurons(include_input=False) == 3

    def test_num_classes(self):
        assert _toy_network().num_classes == 2

    def test_summary_text(self):
        text = _toy_network().summary()
        assert "hidden" in text and "total spiking neurons" in text


class TestSpikingNetworkRun:
    def test_rejects_wrong_input_shape(self):
        net = _toy_network()
        with pytest.raises(ValueError):
            net.run(np.zeros((1, 3)), SimulationConfig(time_steps=2))

    def test_rejects_empty_batch(self):
        net = _toy_network()
        with pytest.raises(ValueError):
            net.run(np.zeros((0, 2)), SimulationConfig(time_steps=2))

    def test_output_history_shape(self):
        net = _toy_network()
        result = net.run(np.full((3, 2), 0.5), SimulationConfig(time_steps=10))
        assert result.output_history.shape == (10, 3, 2)
        assert result.recorded_steps[-1] == 10
        assert result.batch_size == 3

    def test_record_outputs_every(self):
        net = _toy_network()
        result = net.run(np.full((1, 2), 0.5), SimulationConfig(time_steps=10, record_outputs_every=4))
        assert list(result.recorded_steps) == [4, 8, 10]

    def test_outputs_accumulate_monotonically_in_steps(self):
        net = _toy_network()
        result = net.run(np.full((1, 2), 0.9), SimulationConfig(time_steps=20))
        # the output accumulator never resets, so the history at later steps
        # is the running sum (here just check it changes over time)
        assert not np.allclose(result.output_history[0], result.output_history[-1])

    def test_deterministic_given_seed(self):
        net1 = _toy_network(RateEncoder())
        net2 = _toy_network(RateEncoder())
        x = np.full((2, 2), 0.4)
        r1 = net1.run(x, SimulationConfig(time_steps=15, seed=1))
        r2 = net2.run(x, SimulationConfig(time_steps=15, seed=1))
        assert np.allclose(r1.output_history, r2.output_history)
        assert r1.total_spikes() == r2.total_spikes()

    def test_accuracy_and_labels(self):
        net = _toy_network()
        x = np.full((4, 2), 0.5)
        result = net.run(x, SimulationConfig(time_steps=5), labels=np.array([0, 0, 1, 1]))
        curve = result.accuracy_curve()
        assert curve.shape == (5,)
        assert 0.0 <= result.accuracy() <= 1.0

    def test_accuracy_requires_labels(self):
        net = _toy_network()
        result = net.run(np.full((1, 2), 0.5), SimulationConfig(time_steps=3))
        with pytest.raises(ValueError):
            result.accuracy()

    def test_spike_statistics(self):
        net = _toy_network(RateEncoder())
        result = net.run(np.full((2, 2), 0.8), SimulationConfig(time_steps=30))
        assert result.total_spikes() > 0
        assert result.spikes_per_sample() == pytest.approx(result.total_spikes() / 2)
        density = result.spiking_density()
        assert 0.0 < density <= 1.0

    def test_density_with_partial_latency(self):
        net = _toy_network(RateEncoder())
        result = net.run(np.full((1, 2), 0.8), SimulationConfig(time_steps=30))
        early = result.spiking_density(latency=5)
        late = result.spiking_density(latency=30)
        assert early >= 0.0 and late >= 0.0

    def test_spike_trains_recorded_when_requested(self):
        net = _toy_network(RateEncoder())
        config = SimulationConfig(time_steps=12, record_trains=True, sample_fraction=1.0)
        result = net.run(np.full((2, 2), 0.7), config)
        hidden = result.record.layers[0]
        trains = hidden.spike_trains()
        assert trains.shape == (12, 2, 3)  # (T, batch, neurons)
        assert trains.sum() == hidden.total_spikes

    def test_real_coding_input_emits_no_spikes(self):
        net = _toy_network(RealEncoder())
        result = net.run(np.full((1, 2), 0.9), SimulationConfig(time_steps=10))
        assert result.record.input_record.total_spikes == 0


class TestSpikeRecord:
    def test_invalid_sample_fraction(self):
        with pytest.raises(ValueError):
            SpikeRecord(sample_fraction=0.0)

    def test_register_and_totals(self):
        record = SpikeRecord(record_trains=False)
        record.register_input(4)
        layer = record.register_layer("hidden", 3, is_spiking=True)
        layer.record_step(np.array([[True, False, True]]), record_trains=False)
        record.input_record.record_step(np.array([[True, False, False, False]]), False)
        record.advance()
        assert record.total_spikes() == 3
        assert record.total_spikes(include_input=False) == 2
        assert record.total_neurons() == 7

    def test_spikes_per_step_and_cumulative(self):
        record = SpikeRecord()
        record.register_input(2)
        layer = record.register_layer("l", 2, is_spiking=True)
        for count in (1, 2, 0):
            layer.record_step(np.array([[True] * count + [False] * (2 - count)]), False)
            record.input_record.record_step(None, False)
            record.advance()
        assert list(record.spikes_per_step()) == [1, 2, 0]
        assert list(record.cumulative_spikes()) == [1, 3, 3]

    def test_per_layer_totals(self):
        record = SpikeRecord()
        record.register_input(1)
        record.register_layer("a", 1, is_spiking=True)
        totals = record.per_layer_totals()
        assert set(totals) == {"input", "a"}

    def test_non_spiking_layer_has_no_sample_indices(self):
        record = SpikeRecord(record_trains=True)
        layer = record.register_layer("pool", 0, is_spiking=False)
        assert layer.sampled_indices is None

    def test_sampling_fraction(self):
        record = SpikeRecord(sample_fraction=0.5, record_trains=True, seed=0)
        layer = record.register_layer("big", 100, is_spiking=True)
        assert len(layer.sampled_indices) == 50


class TestLayerRecord:
    def test_empty_trains(self):
        record = LayerRecord(name="x", num_neurons=3, is_spiking=True)
        assert record.spike_trains().shape == (0, 0, 0)
        assert record.spike_trains_flat().shape == (0, 0)

    def test_record_none_spikes(self):
        record = LayerRecord(name="x", num_neurons=3, is_spiking=False)
        record.record_step(None, record_trains=False)
        assert record.spike_counts == [0]

    def test_none_spikes_placeholder_uses_batch_size(self):
        """The non-spiking placeholder train must match the (batch, n_sampled)
        shape of the real train steps, also for batch > 1."""
        record = LayerRecord(name="x", num_neurons=4, is_spiking=True)
        record.sampled_indices = np.array([0, 2])
        record.batch_size = 3
        record.record_step(np.zeros((3, 4), dtype=bool), record_trains=True)
        record.record_step(None, record_trains=True)
        trains = record.spike_trains()
        assert trains.shape == (2, 3, 2)

    def test_preallocated_matches_fallback(self):
        """Preallocated and growable storage record identical data."""
        rng = np.random.default_rng(0)
        steps = [rng.random((2, 5)) > 0.5 for _ in range(4)]
        pre = LayerRecord(name="a", num_neurons=5, is_spiking=True)
        pre.sampled_indices = np.array([1, 3])
        pre.preallocate(time_steps=4, batch_size=2, record_trains=True)
        fall = LayerRecord(name="b", num_neurons=5, is_spiking=True)
        fall.sampled_indices = np.array([1, 3])
        for spikes in steps:
            pre.record_step(spikes, record_trains=True)
            fall.record_step(spikes, record_trains=True)
        assert np.array_equal(np.asarray(pre.spike_counts), np.asarray(fall.spike_counts))
        assert pre.total_spikes == fall.total_spikes
        assert np.array_equal(pre.spike_trains(), fall.spike_trains())

    def test_preallocated_partial_run_views(self):
        record = LayerRecord(name="a", num_neurons=2, is_spiking=True)
        record.preallocate(time_steps=10, batch_size=1, record_trains=False)
        record.record_step(np.array([[True, True]]), record_trains=False)
        record.record_step(np.array([[True, False]]), record_trains=False)
        assert list(record.spike_counts) == [2, 1]
        assert record.total_spikes == 3

    def test_preallocated_overflow_rejected(self):
        record = LayerRecord(name="a", num_neurons=1, is_spiking=True)
        record.preallocate(time_steps=1, batch_size=1, record_trains=False)
        record.record_step(np.array([[True]]), record_trains=False)
        with pytest.raises(RuntimeError):
            record.record_step(np.array([[True]]), record_trains=False)

    def test_preallocate_validates_arguments(self):
        record = LayerRecord(name="a", num_neurons=1, is_spiking=True)
        with pytest.raises(ValueError):
            record.preallocate(time_steps=0, batch_size=1, record_trains=False)
        with pytest.raises(ValueError):
            record.preallocate(time_steps=1, batch_size=0, record_trains=False)
