"""Unit tests for the repro.dsp building blocks."""

import numpy as np
import pytest

from repro.dsp import (
    design_lowpass,
    evm_rms,
    find_correlation_peak,
    fir_filter,
    fractional_delay_filter,
    moving_average,
    normalized_cross_correlation,
    occupied_bandwidth_hz,
    papr_db,
    residual_power_db,
    schmidl_cox_metric,
    sliding_correlation,
    symbol_snr_db,
)


class TestFilters:
    def test_lowpass_dc_gain(self):
        h = design_lowpass(0.2, 63)
        assert np.sum(h) == pytest.approx(1.0)

    def test_lowpass_attenuates_high_freq(self):
        h = design_lowpass(0.1, 127)
        n = np.arange(4096)
        low = np.cos(2 * np.pi * 0.02 * n)
        high = np.cos(2 * np.pi * 0.4 * n)
        out_low = fir_filter(h, low)[200:]
        out_high = fir_filter(h, high)[200:]
        assert np.std(out_low) > 10 * np.std(out_high)

    def test_lowpass_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            design_lowpass(0.6)
        with pytest.raises(ValueError):
            design_lowpass(0.1, num_taps=10)

    def test_fir_filter_identity(self):
        x = np.arange(10, dtype=float)
        assert np.allclose(fir_filter(np.array([1.0]), x), x)

    def test_fir_filter_delay(self):
        x = np.arange(10, dtype=float)
        y = fir_filter(np.array([0.0, 1.0]), x)
        assert np.allclose(y[1:], x[:-1])

    def test_fir_filter_empty(self):
        assert fir_filter(np.array([1.0]), np.array([])).size == 0

    def test_fractional_delay_integer(self):
        h = fractional_delay_filter(3.0, 21)
        x = np.zeros(64)
        x[10] = 1.0
        y = fir_filter(h, x)
        assert int(np.argmax(np.abs(y))) == 13

    def test_fractional_delay_half_sample(self):
        h = fractional_delay_filter(2.5, 21)
        n = np.arange(256, dtype=float)
        x = np.sin(2 * np.pi * 0.05 * n)
        y = fir_filter(h, x)
        expect = np.sin(2 * np.pi * 0.05 * (n - 2.5))
        assert np.allclose(y[30:-30], expect[30:-30], atol=0.05)

    def test_fractional_delay_bounds(self):
        with pytest.raises(ValueError):
            fractional_delay_filter(25.0, 21)

    def test_moving_average_constant(self):
        x = np.ones(32)
        assert np.allclose(moving_average(x, 4), 1.0)

    def test_moving_average_window_one(self):
        x = np.arange(8, dtype=float)
        assert np.allclose(moving_average(x, 1), x)

    def test_moving_average_invalid(self):
        with pytest.raises(ValueError):
            moving_average(np.ones(4), 0)


class TestCorrelation:
    def test_sliding_correlation_peak_at_offset(self):
        rng = np.random.default_rng(7)
        t = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        x = np.concatenate([np.zeros(100, complex), t,
                            np.zeros(50, complex)])
        c = np.abs(sliding_correlation(x, t))
        assert int(np.argmax(c)) == 100

    def test_sliding_correlation_short_signal(self):
        assert sliding_correlation(np.ones(3), np.ones(5)).size == 0

    def test_sliding_correlation_dtype_consistent(self):
        # The empty (template-longer-than-signal) result must carry the
        # same dtype as the normal case, even for real-valued inputs.
        full = sliding_correlation(np.ones(8), np.ones(3))
        empty = sliding_correlation(np.ones(3), np.ones(5))
        assert full.dtype == np.complex128
        assert empty.dtype == np.complex128

    def test_sliding_correlation_length_one_template(self):
        x = np.arange(5, dtype=float)
        c = sliding_correlation(x, np.array([2.0]))
        assert np.allclose(c, 2.0 * x)

    def test_sliding_correlation_odd_sizes(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(101) + 1j * rng.standard_normal(101)
        t = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        ref = np.correlate(x, t, mode="valid")
        assert np.allclose(sliding_correlation(x, t), ref)

    def test_empty_template_rejected(self):
        with pytest.raises(ValueError):
            sliding_correlation(np.ones(4), np.empty(0))
        with pytest.raises(ValueError):
            normalized_cross_correlation(np.ones(4), np.empty(0))

    def test_ncc_dtype_consistent(self):
        full = normalized_cross_correlation(np.ones(8), np.ones(3))
        empty = normalized_cross_correlation(np.ones(3), np.ones(5))
        assert full.dtype == np.float64
        assert empty.dtype == np.float64 and empty.size == 0

    def test_ncc_is_bounded(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        t = x[100:150]
        ncc = normalized_cross_correlation(x, t)
        assert np.all(ncc <= 1.0 + 1e-9)
        assert ncc[100] == pytest.approx(1.0)

    def test_find_peak(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        x = np.concatenate([0.01 * rng.standard_normal(80), t])
        assert find_correlation_peak(x, t, threshold=0.8) == 80

    def test_find_peak_none_below_threshold(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(200)
        t = rng.standard_normal(50)
        assert find_correlation_peak(x, t, threshold=0.99) is None

    def test_schmidl_cox_detects_periodicity(self):
        rng = np.random.default_rng(11)
        period = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        x = np.concatenate([
            0.05 * (rng.standard_normal(64) + 1j * rng.standard_normal(64)),
            np.tile(period, 6),
        ])
        m = schmidl_cox_metric(x, 16)
        assert np.max(m[60:]) > 0.9
        assert np.max(m[:30]) < 0.7

    def test_schmidl_cox_short_input(self):
        assert schmidl_cox_metric(np.ones(10, complex), 16).size == 0


class TestMeasurements:
    def test_papr_of_constant(self):
        assert papr_db(np.ones(64, complex)) == pytest.approx(0.0)

    def test_papr_positive_for_ofdm_like(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        assert papr_db(x) > 5.0

    def test_evm_and_snr(self):
        ref = np.ones(100, dtype=complex)
        meas = ref + 0.1
        assert evm_rms(meas, ref) == pytest.approx(0.1)
        assert symbol_snr_db(meas, ref) == pytest.approx(20.0)

    def test_evm_shape_mismatch(self):
        with pytest.raises(ValueError):
            evm_rms(np.ones(3), np.ones(4))

    def test_occupied_bandwidth(self):
        n = np.arange(4096)
        tone = np.exp(2j * np.pi * 0.1 * n)
        bw = occupied_bandwidth_hz(tone, sample_rate=20e6, fraction=0.99)
        assert bw < 1e6

    def test_residual_power_db(self):
        before = np.ones(100)
        after = np.ones(100) * 0.1
        assert residual_power_db(before, after) == pytest.approx(-20.0)
