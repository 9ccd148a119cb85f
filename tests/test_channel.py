"""Unit tests for the channel and hardware models."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.channel import (
    Adc,
    PaNonlinearity,
    Scene,
    SceneConfig,
    apply_channel,
    awgn,
    backscatter_roundtrip_loss_db,
    channel_gain_db,
    circulator_leakage_gain,
    exponential_pdp_channel,
    friis_pathloss_db,
    iq_imbalance,
    log_distance_pathloss_db,
    los_channel,
    noise_power_mw,
    rician_channel,
    thermal_noise_dbm,
)
from repro.channel.hardware import (
    ar1_drift_params,
    ar1_filter,
    coherence_impairment,
    draw_ar1_innovations,
)
from repro.utils.conversions import power
from dsp_oracle import ar1_loop


class TestPathloss:
    def test_friis_at_1m_2_4ghz(self):
        # ~40 dB at 1 m for 2.4 GHz.
        assert friis_pathloss_db(1.0) == pytest.approx(40.2, abs=0.5)

    def test_friis_slope(self):
        assert friis_pathloss_db(10.0) - friis_pathloss_db(1.0) == \
            pytest.approx(20.0)

    def test_friis_invalid(self):
        with pytest.raises(ValueError):
            friis_pathloss_db(0.0)

    def test_log_distance_anchored_to_friis(self):
        assert log_distance_pathloss_db(1.0, exponent=3.0) == \
            pytest.approx(friis_pathloss_db(1.0))

    def test_log_distance_slope(self):
        d10 = log_distance_pathloss_db(10.0, exponent=2.5)
        d1 = log_distance_pathloss_db(1.0, exponent=2.5)
        assert d10 - d1 == pytest.approx(25.0)

    def test_log_distance_near_region_uses_friis(self):
        assert log_distance_pathloss_db(0.5, exponent=3.0) == \
            pytest.approx(friis_pathloss_db(0.5))

    def test_roundtrip_loss_composition(self):
        loss = backscatter_roundtrip_loss_db(
            2.0, exponent=2.0, tag_loss_db=5.0, tag_gain_dbi=0.0
        )
        assert loss == pytest.approx(2 * friis_pathloss_db(2.0) + 5.0)


class TestMultipath:
    def test_exponential_pdp_energy_normalised(self, rng):
        gains = [
            channel_gain_db(exponential_pdp_channel(50e-9, rng=rng))
            for _ in range(300)
        ]
        assert np.mean(10 ** (np.asarray(gains) / 10)) == \
            pytest.approx(1.0, rel=0.2)

    def test_exponential_pdp_decay(self, rng):
        h = exponential_pdp_channel(50e-9, n_taps=8, rng=rng)
        assert h.size == 8

    def test_invalid_delay_spread(self):
        with pytest.raises(ValueError):
            exponential_pdp_channel(0.0)

    def test_los_channel(self):
        h = los_channel(-6.0, phase_rad=np.pi / 2, delay_samples=3)
        assert h.size == 4
        assert np.abs(h[3]) == pytest.approx(10 ** (-0.3), rel=1e-6)
        assert np.all(h[:3] == 0)

    def test_rician_k_controls_los_fraction(self, rng):
        strong_k = [
            np.abs(rician_channel(0.0, 20.0, 40e-9, rng=rng)[0]) ** 2
            for _ in range(100)
        ]
        # With K=20 dB nearly all energy is in the first (LoS) tap.
        assert np.median(strong_k) > 0.8

    def test_rician_total_gain(self, rng):
        gains = [
            10 ** (channel_gain_db(
                rician_channel(-10.0, 9.0, 40e-9, rng=rng)) / 10)
            for _ in range(300)
        ]
        assert np.mean(gains) == pytest.approx(0.1, rel=0.25)

    def test_apply_channel_identity(self):
        x = np.arange(5, dtype=complex)
        assert np.allclose(apply_channel(np.array([1.0]), x), x)

    def test_apply_channel_keeps_length(self, rng):
        x = rng.standard_normal(100) + 0j
        h = exponential_pdp_channel(100e-9, rng=rng)
        assert apply_channel(h, x).size == 100

    def test_channel_gain_of_zero(self):
        assert channel_gain_db(np.zeros(3)) == -np.inf


class TestNoise:
    def test_thermal_floor_value(self):
        # kTB for 20 MHz = -101 dBm, +6 dB NF = -95 dBm.
        assert thermal_noise_dbm() == pytest.approx(-95.0, abs=0.5)

    def test_noise_power_consistency(self):
        assert 10 * np.log10(noise_power_mw()) == \
            pytest.approx(thermal_noise_dbm())

    def test_awgn_power(self, rng):
        n = awgn(100_000, 2.0, rng)
        assert power(n) == pytest.approx(2.0, rel=0.05)

    def test_awgn_zero_power(self, rng):
        assert np.all(awgn(10, 0.0, rng) == 0)

    def test_awgn_invalid(self, rng):
        with pytest.raises(ValueError):
            awgn(10, -1.0, rng)

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            thermal_noise_dbm(bandwidth_hz=0)


class TestHardware:
    def test_pa_distortion_level(self, rng):
        x = rng.standard_normal(50_000) + 1j * rng.standard_normal(50_000)
        pa = PaNonlinearity(ip3_backoff_db=30.0)
        d = pa.distortion_only(x)
        ratio_db = 10 * np.log10(power(d) / power(x))
        assert ratio_db == pytest.approx(-30.0, abs=1.0)

    def test_pa_zero_signal(self):
        pa = PaNonlinearity()
        z = np.zeros(8, dtype=complex)
        assert np.array_equal(pa.apply(z), z)

    def test_adc_quantisation_noise(self, rng):
        # sigma small enough that clipping at +-1 full scale never occurs
        x = 0.15 * (rng.standard_normal(10_000)
                    + 1j * rng.standard_normal(10_000))
        adc = Adc(bits=12, full_scale=1.0)
        err = adc.quantize(x) - x
        # 12-bit quantisation over +-1: step = 2/4096, err var = step^2/6
        # per axis.
        expect = 2 * (2.0 / 4096) ** 2 / 12
        assert power(err) == pytest.approx(expect, rel=0.2)

    def test_adc_clips(self):
        adc = Adc(bits=8, full_scale=1.0)
        y = adc.quantize(np.array([10.0 + 10.0j]))
        assert abs(y[0].real) <= 1.0 and abs(y[0].imag) <= 1.0

    def test_adc_for_signal_scales(self, rng):
        x = 100 * (rng.standard_normal(1000) + 0j)
        adc = Adc().for_signal(x)
        assert adc.full_scale > 100

    def test_adc_invalid_bits(self):
        with pytest.raises(ValueError):
            Adc(bits=0).quantize(np.ones(4, dtype=complex))

    def test_circulator_gain(self):
        g = circulator_leakage_gain(20.0)
        assert abs(g) == pytest.approx(0.1)

    def test_iq_imbalance_identity(self, rng):
        x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        assert np.allclose(iq_imbalance(x, 0.0, 0.0), x)

    def test_iq_imbalance_creates_image(self, rng):
        n = np.arange(4096)
        x = np.exp(2j * np.pi * 0.1 * n)
        y = iq_imbalance(x, gain_db=1.0, phase_deg=5.0)
        spec = np.abs(np.fft.fft(y))
        tone_bin = int(0.1 * n.size)
        image_bin = n.size - tone_bin
        assert spec[image_bin] > 0.01 * spec[tone_bin]

    def test_coherence_impairment_stats(self, rng):
        g = coherence_impairment(200_000, 0.1, 1000, rng)
        delta = g - 1.0
        assert np.sqrt(power(delta)) == pytest.approx(0.1, rel=0.25)

    def test_coherence_impairment_disabled(self, rng):
        assert np.all(coherence_impairment(100, 0.0, 10, rng) == 1.0)

    def test_coherence_impairment_validation(self, rng):
        with pytest.raises(ValueError):
            coherence_impairment(-1, 0.1, 10, rng)
        with pytest.raises(ValueError):
            coherence_impairment(10, -0.1, 10, rng)


class TestAr1Filter:
    """The two-plane SciPy recursion against the Python-loop oracle."""

    def _w(self, shape):
        rng = np.random.default_rng(99)
        return (rng.standard_normal(shape)
                + 1j * rng.standard_normal(shape))

    def test_scalar_bit_identity(self):
        w = self._w(500)
        assert np.array_equal(ar1_filter(w, 0.97, 0.3 - 0.1j),
                              ar1_loop(w, 0.97, 0.3 - 0.1j))

    def test_batched_rows_match_scalar_calls(self):
        w = self._w((6, 300))
        prev = self._w(6)
        for fn in (ar1_filter, ar1_loop):
            batched = fn(w, 0.9, prev)
            rows = np.stack([fn(w[i], 0.9, prev[i]) for i in range(6)])
            assert np.array_equal(batched, rows), fn.__name__
        assert np.array_equal(ar1_filter(w, 0.9, prev),
                              ar1_loop(w, 0.9, prev))

    def test_recursion_matches_definition(self):
        w = self._w(64)
        out = ar1_filter(w, 0.8, 1.0 + 0j)
        acc, expect = 1.0 + 0j, []
        for wi in w:
            acc = wi + 0.8 * acc
            expect.append(acc)
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_coherence_impairment_matches_oracle_loop(self):
        n, rms, coherence = 2048, 5e-3, 400.0
        got = coherence_impairment(n, rms, coherence,
                                   np.random.default_rng(7))
        rho, scale = ar1_drift_params(rms, coherence)
        w, prev = draw_ar1_innovations(n, rms, scale,
                                       np.random.default_rng(7))
        assert np.array_equal(got, 1.0 + ar1_loop(w, rho, prev))


class TestScene:
    def test_build_produces_all_channels(self, rng):
        scene = Scene.build(tag_distance_m=2.0, rng=rng)
        for h in (scene.h_env, scene.h_f, scene.h_b,
                  scene.h_ap_client, scene.h_tag_client):
            assert h.size >= 1
            assert np.any(h != 0)

    def test_leakage_dominates_h_env(self, rng):
        scene = Scene.build(tag_distance_m=2.0, rng=rng)
        # Circulator leakage (-20 dB) should dwarf reflections (-45 dB).
        assert np.abs(scene.h_env[0]) ** 2 > 0.5 * 10 ** (-2.0)

    def test_forward_gain_tracks_distance(self, rng):
        g1 = np.median([
            channel_gain_db(Scene.build(tag_distance_m=1.0, rng=rng).h_f)
            for _ in range(30)
        ])
        g4 = np.median([
            channel_gain_db(Scene.build(tag_distance_m=4.0, rng=rng).h_f)
            for _ in range(30)
        ])
        cfg = SceneConfig()
        expect = 10 * cfg.pathloss_exponent * np.log10(4.0)
        assert g1 - g4 == pytest.approx(expect, abs=3.0)

    def test_invalid_distance(self, rng):
        with pytest.raises(ValueError):
            Scene.build(tag_distance_m=0.0, rng=rng)

    def test_reciprocal_channel_option(self, rng):
        cfg = SceneConfig(reciprocal_tag_channel=True)
        scene = Scene.build(tag_distance_m=1.0, config=cfg, rng=rng)
        assert np.array_equal(scene.h_f, scene.h_b)

    def test_expected_snr_monotone_in_distance(self, rng):
        rng2 = np.random.default_rng(1)
        cfg = SceneConfig(rician_k_db=30.0)  # nearly deterministic
        s1 = Scene.build(tag_distance_m=1.0, config=cfg, rng=rng2)
        s5 = Scene.build(tag_distance_m=5.0, config=cfg, rng=rng2)
        assert s1.expected_backscatter_snr_db() > \
            s5.expected_backscatter_snr_db() + 20

    def test_expected_snr_mrc_gain(self, rng):
        scene = Scene.build(tag_distance_m=2.0, rng=rng)
        base = scene.expected_backscatter_snr_db(mrc_samples=1)
        combined = scene.expected_backscatter_snr_db(mrc_samples=10)
        assert combined == pytest.approx(base + 10.0, abs=1e-6)

    def test_tx_power_mw(self, rng):
        scene = Scene.build(tag_distance_m=1.0, rng=rng)
        assert scene.tx_power_mw == pytest.approx(
            10 ** (scene.config.tx_power_dbm / 10)
        )
