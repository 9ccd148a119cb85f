"""Tests for self-interference cancellation at the reader."""

import numpy as np
import pytest

from repro.channel import Adc, awgn, exponential_pdp_channel, apply_channel
from repro.dsp.fastpath import stacked_convolve
from repro.reader import (
    AnalogCanceller,
    DigitalCanceller,
    SelfInterferenceCanceller,
    convolution_matrix,
    ls_channel_estimate,
)
from repro.utils.conversions import power


def _wideband(rng, n=4000, p=1.0):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x * np.sqrt(p / 2)


class TestConvolutionMatrix:
    def test_matches_convolution(self, rng):
        x = _wideband(rng, 50)
        h = np.array([1.0, 0.5 - 0.2j, 0.1j])
        a = convolution_matrix(x, 3)
        direct = np.convolve(x, h)[:50]
        assert np.allclose(a @ h, direct)

    def test_row_selection(self, rng):
        x = _wideband(rng, 30)
        rows = np.array([5, 10, 20])
        full = convolution_matrix(x, 4)
        sel = convolution_matrix(x, 4, rows)
        assert np.allclose(sel, full[rows])

    def test_invalid_taps(self):
        with pytest.raises(ValueError):
            convolution_matrix(np.ones(5), 0)

    def test_rows_at_the_capture_start_see_zeros_before_it(self, rng):
        x = _wideband(rng, 30)
        sel = convolution_matrix(x, 4, np.array([2, 0, 1]))
        assert np.array_equal(sel[1], [x[0], 0, 0, 0])
        assert np.array_equal(sel[2], [x[1], x[0], 0, 0])
        assert np.array_equal(sel[0], [x[2], x[1], x[0], 0])

    @pytest.mark.parametrize("row", [-1, -30, 30, 31])
    def test_rows_outside_the_capture_are_refused(self, rng, row):
        # A negative row would otherwise wrap to the end of the capture,
        # and a row past the end would be a bare IndexError.
        x = _wideband(rng, 30)
        with pytest.raises(ValueError, match=f"row {row} is outside"):
            convolution_matrix(x, 3, rows=[5, row, 7])
        with pytest.raises(ValueError, match=f"row {row} is outside"):
            ls_channel_estimate(x, x, 3, rows=np.r_[np.arange(5, 20), row])

    def test_no_rows_is_an_empty_design(self, rng):
        assert convolution_matrix(_wideband(rng, 30), 3, []).shape == (0, 3)


class TestLsEstimate:
    def test_exact_recovery_noiseless(self, rng):
        x = _wideband(rng, 2000)
        h = np.array([0.8, 0.3 - 0.1j, 0.05j, 0.01])
        y = np.convolve(x, h)[:2000]
        # ridge=0: unregularised LS is exact in the noiseless case.
        h_hat = ls_channel_estimate(x, y, 4, ridge=0.0)
        assert np.allclose(h_hat, h, atol=1e-10)
        # The default ridge costs only ~0.1% shrinkage.
        h_reg = ls_channel_estimate(x, y, 4)
        assert np.allclose(h_reg, h, rtol=0.01, atol=1e-6)

    def test_recovery_with_noise(self, rng):
        x = _wideband(rng, 4000)
        h = np.array([1.0, -0.4j])
        y = np.convolve(x, h)[:4000] + awgn(4000, 1e-4, rng)
        h_hat = ls_channel_estimate(x, y, 2)
        assert np.linalg.norm(h_hat - h) < 0.02

    def test_row_restricted_estimate(self, rng):
        x = _wideband(rng, 2000)
        h = np.array([0.5, 0.2])
        y = np.convolve(x, h)[:2000]
        rows = np.arange(100, 400)
        h_hat = ls_channel_estimate(x, y, 2, rows=rows, ridge=0.0)
        assert np.allclose(h_hat, h, atol=1e-9)

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            ls_channel_estimate(np.ones(10), np.ones(11), 2)

    def test_underdetermined_rejected(self, rng):
        with pytest.raises(ValueError):
            ls_channel_estimate(np.ones(4), np.ones(4), 8,
                                rows=np.array([0, 1]))


class TestAnalogCanceller:
    def test_cancellation_depth(self, rng):
        x = _wideband(rng, 8000)
        h_env = exponential_pdp_channel(100e-9, gain_db=-20.0, rng=rng)
        y = apply_channel(h_env, x)
        canc = AnalogCanceller(depth_db=60.0)
        resid = canc.cancel(x, y, h_env, rng=rng)
        depth = 10 * np.log10(power(resid) / power(y))
        assert -70.0 < depth < -50.0

    def test_deeper_setting_cancels_more(self, rng):
        x = _wideband(rng, 8000)
        h_env = exponential_pdp_channel(100e-9, gain_db=-20.0, rng=rng)
        y = apply_channel(h_env, x)
        shallow = AnalogCanceller(depth_db=30.0).cancel(x, y, h_env,
                                                        rng=rng)
        deep = AnalogCanceller(depth_db=70.0).cancel(x, y, h_env, rng=rng)
        assert power(deep) < power(shallow)


class TestDigitalCanceller:
    def test_removes_linear_residue(self, rng):
        x = _wideband(rng, 6000)
        h_resid = 1e-3 * exponential_pdp_channel(100e-9, rng=rng)
        y = apply_channel(h_resid, x) + awgn(6000, 1e-12, rng)
        rows = np.arange(100, 500)
        cleaned, h_hat = DigitalCanceller(n_taps=16).cancel(x, y, rows)
        assert power(cleaned[600:]) < 0.01 * power(y[600:])

    def test_does_not_touch_uncorrelated_signal(self, rng):
        x = _wideband(rng, 6000)
        wanted = _wideband(np.random.default_rng(99), 6000, p=1e-6)
        rows = np.arange(100, 500)
        y = apply_channel(np.array([1e-3]), x).copy()
        y[1000:] += wanted[1000:]  # backscatter appears after training
        cleaned, _ = DigitalCanceller(n_taps=8).cancel(x, y, rows)
        # The wanted signal must survive nearly intact.
        resid_wanted = cleaned[1000:] - wanted[1000:]
        assert power(resid_wanted) < 0.05 * power(wanted[1000:])

    @pytest.mark.parametrize("rows_in_stack", [None, 1, 3])
    def test_subtracts_in_its_own_buffer(self, rng, rows_in_stack):
        # The cleaned signal is residual - recon bit for bit, written
        # into the reconstruction's buffer: the residual is left as it
        # was.
        x = _wideband(rng, 3000)
        y = apply_channel(1e-3 * exponential_pdp_channel(100e-9, rng=rng),
                          x) + awgn(3000, 1e-12, rng)
        if rows_in_stack is not None:
            y = np.stack([y * (1.0 + 0.5j * r) for r in range(rows_in_stack)])
        before = y.copy()
        canceller = DigitalCanceller(n_taps=8)
        cleaned, h = canceller.cancel(x, y, np.arange(100, 500))
        assert y.tobytes() == before.tobytes()
        recon = stacked_convolve(x, h)[..., :y.shape[-1]]
        assert cleaned.shape == y.shape
        assert cleaned.tobytes() == np.ascontiguousarray(y - recon).tobytes()


class TestFullChain:
    def _setup(self, rng):
        x = _wideband(rng, 10_000, p=100.0)
        h_env = np.zeros(12, dtype=complex)
        h_env[0] = 0.1  # -20 dB leak
        h_env[2:] = 1e-3 * (rng.standard_normal(10)
                            + 1j * rng.standard_normal(10))
        noise = awgn(10_000, 1e-9, rng)
        y = apply_channel(h_env, x) + noise
        silent = np.arange(200, 600)
        return x, h_env, y, silent

    def test_total_depth(self, rng):
        x, h_env, y, silent = self._setup(rng)
        out = SelfInterferenceCanceller().cancel(x, y, h_env, silent,
                                                 rng=rng)
        assert out.total_depth_db < -80.0
        assert not out.adc_saturated

    def test_analog_disabled_saturates_or_degrades(self, rng):
        x, h_env, y, silent = self._setup(rng)
        chain = SelfInterferenceCanceller(analog_enabled=False,
                                          adc=Adc(bits=8))
        out = chain.cancel(x, y, h_env, silent, rng=rng)
        full = SelfInterferenceCanceller().cancel(x, y, h_env, silent,
                                                  rng=rng)
        # Without analog cancellation the residual floor is far worse.
        assert power(out.cleaned[silent]) > 10 * power(full.cleaned[silent])

    def test_digital_stage_runs_the_cancellers_cancel(self, rng):
        # The chain's digital stage is DigitalCanceller.cancel itself, so
        # a subclass that overrides it is the stage that runs.
        calls = []

        class Recording(DigitalCanceller):
            def cancel(self, x, residual, silent_rows):
                cleaned, h = super().cancel(x, residual, silent_rows)
                calls.append(cleaned)
                return cleaned, h

        x, h_env, y, silent = self._setup(rng)
        out = SelfInterferenceCanceller(digital=Recording()).cancel(
            x, y, h_env, silent, rng=rng)
        assert len(calls) == 1 and np.shares_memory(calls[0], out.cleaned)

    def test_digital_disabled_leaves_analog_residue(self, rng):
        x, h_env, y, silent = self._setup(rng)
        out = SelfInterferenceCanceller(digital_enabled=False).cancel(
            x, y, h_env, silent, rng=rng)
        full = SelfInterferenceCanceller().cancel(x, y, h_env, silent,
                                                  rng=rng)
        assert out.total_depth_db > full.total_depth_db + 10.0
