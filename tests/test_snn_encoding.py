"""Tests for the input encoders (real / rate / phase / burst input coding)."""

import numpy as np
import pytest

from repro.snn.encoding import (
    BurstEncoder,
    PhaseEncoder,
    PoissonRateEncoder,
    RateEncoder,
    RealEncoder,
    make_encoder,
)


def _run_encoder(encoder, x, steps):
    encoder.reset(x)
    values = np.zeros((steps,) + x.shape)
    spikes = np.zeros((steps,) + x.shape, dtype=bool)
    for t in range(steps):
        step = encoder.step(t)
        values[t] = step.values
        spikes[t] = step.spikes
    return values, spikes


class TestEncoderValidation:
    def test_requires_reset(self):
        with pytest.raises(RuntimeError):
            RealEncoder().step(0)

    def test_rejects_out_of_range_inputs(self):
        encoder = RealEncoder()
        with pytest.raises(ValueError):
            encoder.reset(np.array([[1.5]]))
        with pytest.raises(ValueError):
            encoder.reset(np.array([[-0.2]]))


class TestRealEncoder:
    def test_transmits_exact_value_every_step(self):
        x = np.array([[0.3, 0.7]])
        values, spikes = _run_encoder(RealEncoder(), x, 5)
        assert np.allclose(values, np.broadcast_to(x, values.shape))
        assert not spikes.any()

    def test_zero_spike_count(self):
        encoder = RealEncoder()
        encoder.reset(np.array([[0.5]]))
        assert encoder.step(0).spike_count == 0


class TestRateEncoder:
    def test_total_transmission_matches_value(self):
        """Over T steps the deterministic rate encoder transmits ≈ x·T."""
        x = np.array([[0.3, 0.65, 0.05]])
        steps = 200
        values, _ = _run_encoder(RateEncoder(v_th=1.0), x, steps)
        totals = values.sum(axis=0)[0]
        assert np.allclose(totals, x[0] * steps, atol=1.0)

    def test_spike_rate_proportional_to_value(self):
        x = np.array([[0.25]])
        _, spikes = _run_encoder(RateEncoder(), x, 400)
        assert spikes.sum() == pytest.approx(100, abs=1)

    def test_amplitude_equals_v_th(self):
        values, spikes = _run_encoder(RateEncoder(v_th=0.5), np.array([[1.0]]), 4)
        assert set(np.unique(values[spikes])) == {0.5}

    def test_zero_input_never_spikes(self):
        _, spikes = _run_encoder(RateEncoder(), np.zeros((1, 3)), 50)
        assert not spikes.any()


class TestPoissonRateEncoder:
    def test_expected_rate(self):
        x = np.full((1, 500), 0.3)
        _, spikes = _run_encoder(PoissonRateEncoder(seed=0), x, 100)
        rate = spikes.mean()
        assert abs(rate - 0.3) < 0.02

    def test_seeded_reproducibility(self):
        x = np.array([[0.4, 0.6]])
        a, _ = _run_encoder(PoissonRateEncoder(seed=3), x, 20)
        b, _ = _run_encoder(PoissonRateEncoder(seed=3), x, 20)
        assert np.array_equal(a, b)

    def test_extremes(self):
        x = np.array([[0.0, 1.0]])
        _, spikes = _run_encoder(PoissonRateEncoder(seed=1), x, 50)
        assert spikes[:, 0, 0].sum() == 0
        assert spikes[:, 0, 1].sum() == 50

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_draws_follow_the_seeded_uniform_stream(self, dtype):
        """Spikes equal ``rng.uniform(size=...) < x`` from an identically
        seeded generator, step after step and across a batch shrink."""
        x = np.random.default_rng(7).random((6, 1, 5, 4))
        encoder = PoissonRateEncoder(v_th=0.5, seed=11)
        encoder.reset(x, dtype=dtype)
        reference = np.random.default_rng(11)
        x_sim = np.asarray(x, dtype=dtype)
        for t in range(12):
            if t == 5:
                keep = np.array([0, 2, 5])
                encoder.shrink_batch(keep)
                x_sim = x_sim[keep]
            step = encoder.step(t)
            expected = reference.uniform(size=x_sim.shape) < x_sim
            assert np.array_equal(step.spikes, expected)
            assert np.array_equal(step.values, expected * np.asarray(0.5, dtype=dtype))


class TestPhaseEncoder:
    def test_one_period_transmits_quantized_value(self):
        """The amplitudes of one period sum to the k-bit quantisation of x."""
        period = 8
        x = np.array([[0.3, 0.7, 0.5, 1.0, 0.0]])
        encoder = PhaseEncoder(v_th=1.0, period=period)
        values, _ = _run_encoder(encoder, x, period)
        per_period = values.sum(axis=0)[0]
        quantised = np.round(x[0] * 2**period) / 2**period
        quantised = np.clip(quantised, 0, 1 - 2.0**-period)
        assert np.allclose(per_period, quantised, atol=2.0**-period)

    def test_amplitudes_follow_oscillation(self):
        encoder = PhaseEncoder(v_th=1.0, period=4)
        values, spikes = _run_encoder(encoder, np.array([[0.9375]]), 4)  # 0.1111 in binary
        expected = [0.5, 0.25, 0.125, 0.0625]
        assert np.allclose(values[:, 0, 0], expected)
        assert spikes.all()

    def test_periodicity(self):
        encoder = PhaseEncoder(period=4)
        values, _ = _run_encoder(encoder, np.array([[0.6]]), 12)
        assert np.allclose(values[0:4], values[4:8])
        assert np.allclose(values[0:4], values[8:12])

    def test_throughput_factor(self):
        assert PhaseEncoder(period=8).throughput_factor == pytest.approx(1 / 8)

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            PhaseEncoder(period=0)
        with pytest.raises(ValueError):
            PhaseEncoder(period=40)


class TestBurstEncoder:
    def test_total_transmission_close_to_value(self):
        """Burst transmission tracks x·T up to the size of one in-flight burst."""
        x = np.array([[0.4, 0.8]])
        steps = 100
        values, _ = _run_encoder(BurstEncoder(v_th=0.125, beta=2.0), x, steps)
        totals = values.sum(axis=0)[0]
        assert np.allclose(totals, x[0] * steps, rtol=0.1)

    def test_bright_pixels_produce_bursts(self):
        _, spikes = _run_encoder(BurstEncoder(v_th=0.125), np.array([[1.0]]), 30)
        train = spikes[:, 0, 0]
        # at least one pair of consecutive spikes (a burst)
        assert np.any(train[1:] & train[:-1])


class TestMakeEncoder:
    @pytest.mark.parametrize(
        "coding,cls",
        [("real", RealEncoder), ("rate", RateEncoder), ("phase", PhaseEncoder), ("burst", BurstEncoder)],
    )
    def test_types(self, coding, cls):
        assert isinstance(make_encoder(coding), cls)

    def test_stochastic_rate(self):
        assert isinstance(make_encoder("rate", stochastic=True), PoissonRateEncoder)

    def test_custom_threshold(self):
        assert make_encoder("rate", v_th=0.5).v_th == 0.5

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_encoder("morse")
