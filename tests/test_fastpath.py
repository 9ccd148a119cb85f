"""Equivalence suite for the fast-path DSP kernels.

Every fast kernel must agree with its direct reference form to float64
rounding (rtol <= 1e-10) across the crossover boundary, and the
fine-timing search must pick the identical offset as the per-offset
reference search for generated link scenarios.  The reference forms
live in ``dsp_oracle.py``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))

from dsp_oracle import (
    correlate_valid_direct,
    estimate_combined_channel_svd,
    find_tag_timing_direct,
    normalized_cross_correlation_direct,
    sequence_direct,
)
from repro.coding.convolutional import (
    _PUNCTURE_PATTERNS,
    depuncture,
    puncture,
)
from repro.coding.interleaver import interleave_indices
from repro.coding.scrambler import scrambler_sequence
from repro.dsp.correlation import normalized_cross_correlation
from repro.dsp.fastpath import (
    FFT_MIN_TAPS,
    fast_convolve,
    fast_correlate_valid,
    stacked_convolve,
    use_fft,
)
from repro.reader.cancellation import (
    AnalogCanceller,
    ls_channel_estimate,
)
from repro.reader.fastpath import BatchPreambleSolver
from repro.reader.sync import find_tag_timing
from test_reader_pipeline import _make_link

RTOL = 1e-10


@pytest.fixture
def rng():
    return np.random.default_rng(0xFA57)


def _cnoise(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _assert_close(fast, ref):
    assert fast.shape == ref.shape
    assert fast.dtype == ref.dtype
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    assert float(np.max(np.abs(fast - ref))) <= RTOL * scale


class TestFastConvolve:
    # Operand sizes straddling both crossover thresholds, odd lengths
    # included: below FFT_MIN_TAPS, at it, and far above.
    @pytest.mark.parametrize("n,m", [
        (33, 1), (100, 7), (4096, 95), (4096, 96), (4097, 127),
        (8192, 256), (301, 300), (96, 4096),
    ])
    def test_matches_direct(self, rng, n, m):
        x, h = _cnoise(rng, n), _cnoise(rng, m)
        _assert_close(fast_convolve(x, h), np.convolve(x, h))

    def test_empty_operand(self):
        assert fast_convolve(np.empty(0), np.ones(3)).size == 0
        assert fast_convolve(np.ones(3), np.empty(0)).size == 0

    def test_forced_fft_path_still_exact(self, rng):
        # Drive the overlap-save code even below the crossover.
        from repro.dsp.fastpath import _overlap_save

        x, h = _cnoise(rng, 257), _cnoise(rng, 9)
        _assert_close(_overlap_save(x, h), np.convolve(x, h))


class TestFastCorrelate:
    @pytest.mark.parametrize("n,m", [
        (64, 1), (500, 50), (4096, 96), (8191, 255), (10000, 3000),
    ])
    def test_matches_direct(self, rng, n, m):
        x, t = _cnoise(rng, n), _cnoise(rng, m)
        _assert_close(fast_correlate_valid(x, t),
                      correlate_valid_direct(x, t))

    @pytest.mark.parametrize("shape_x,shape_t", [
        ((500,), (50,)), ((8191,), (255,)), ((3, 4096), (96,)),
    ])
    def test_normalized_matches_direct(self, rng, shape_x, shape_t):
        x, t = _cnoise(rng, shape_x), _cnoise(rng, shape_t)
        _assert_close(normalized_cross_correlation(x, t),
                      normalized_cross_correlation_direct(x, t))

    def test_template_longer_than_signal(self, rng):
        out = fast_correlate_valid(_cnoise(rng, 4), _cnoise(rng, 9))
        assert out.size == 0 and out.dtype == np.complex128

    def test_empty_template_raises(self):
        with pytest.raises(ValueError):
            fast_correlate_valid(np.ones(4), np.empty(0))


class TestBatchAxes:
    """Stacked-batch edge cases for the batched kernel entry points."""

    def _rows_reference(self, kernel, direct, x, h):
        out = kernel(x, h)
        xb = np.broadcast_to(x, out.shape[:-1] + (x.shape[-1],))
        hb = np.broadcast_to(h, out.shape[:-1] + (h.shape[-1],))
        ref = np.stack([direct(xb[i], hb[i])
                        for i in range(out.shape[0])]) \
            if out.shape[:-1] else direct(x, h)
        return out, ref

    @pytest.mark.parametrize("kernel", ["convolve", "stacked"])
    def test_batch_matches_per_row(self, rng, kernel):
        fn = fast_convolve if kernel == "convolve" else stacked_convolve
        x = _cnoise(rng, (5, 300))
        h = _cnoise(rng, (5, 12))
        out, ref = self._rows_reference(fn, np.convolve, x, h)
        _assert_close(out, ref)

    @pytest.mark.parametrize("fn", [fast_convolve, stacked_convolve,
                                    fast_correlate_valid])
    def test_length_one_batch(self, rng, fn):
        x = _cnoise(rng, (1, 200))
        h = _cnoise(rng, (1, 9))
        out = fn(x, h)
        assert out.shape[0] == 1
        scalar = fn(x[0], h[0])
        _assert_close(out[0], scalar)

    @pytest.mark.parametrize("fn", [fast_convolve, stacked_convolve])
    def test_empty_batch(self, rng, fn):
        out = fn(_cnoise(rng, (0, 50)), _cnoise(rng, (0, 5)))
        assert out.shape == (0, 54)
        assert out.dtype == np.complex128

    @pytest.mark.parametrize("fn", [fast_convolve, stacked_convolve,
                                    fast_correlate_valid])
    def test_ragged_batch_rejected(self, fn):
        ragged = np.array([np.ones(3), np.ones(5)], dtype=object)
        with pytest.raises(ValueError, match="ragged"):
            fn(ragged, np.ones((2, 3)))

    @pytest.mark.parametrize("fn", [fast_convolve, stacked_convolve])
    def test_mismatched_batch_axes_rejected(self, rng, fn):
        with pytest.raises(ValueError, match="broadcast"):
            fn(_cnoise(rng, (3, 100)), _cnoise(rng, (4, 5)))

    def test_dtype_complex128_across_backends(self, rng):
        # complex64 input comes back complex128 from both the direct C
        # loop (short filter) and the scipy.fft overlap-save (long one).
        x = _cnoise(rng, (2, 4096)).astype(np.complex64)
        for taps in (8, 256):
            h = _cnoise(rng, (2, taps))
            for fn in (fast_convolve, stacked_convolve,
                       fast_correlate_valid):
                assert fn(x, h).dtype == np.complex128, (taps, fn)

    def test_broadcast_shared_signal(self, rng):
        # One signal against a stack of filters (the sweep-cell shape).
        x = _cnoise(rng, 500)
        h = _cnoise(rng, (4, 7))
        out = fast_convolve(x, h)
        assert out.shape == (4, 506)
        for i in range(4):
            _assert_close(out[i], np.convolve(x, h[i]))


class TestStackedConvolve:
    @pytest.mark.parametrize("shape_x,shape_h", [
        ((6100,), (32, 14)),     # shared signal -> GEMM branch
        ((32, 6100), (32, 4)),   # stacked signals -> windowed matvec
        ((8, 300), (5,)),        # shared filter
        ((3, 1, 200), (4, 9)),   # broadcast batch axes
        ((128,), (64,)),         # scalar delegate
    ])
    def test_matches_fast_convolve(self, rng, shape_x, shape_h):
        x, h = _cnoise(rng, shape_x), _cnoise(rng, shape_h)
        _assert_close(stacked_convolve(x, h), fast_convolve(x, h))

    def test_fft_crossover_delegates(self, rng):
        # Past the crossover both entry points take the same FFT path.
        x = _cnoise(rng, (2, 1 << 14))
        h = _cnoise(rng, (2, 256))
        _assert_close(stacked_convolve(x, h), fast_convolve(x, h))

    @pytest.mark.parametrize("shape_x,shape_h", [
        ((11760,), (1, 24)),     # the digital canceller's one-row fit
        ((11760,), (1, 16)),     # the analog board on a stack of one
        ((1, 3000), (8,)),       # one stacked signal, shared filter
        ((1, 1, 500), (1, 5)),   # one row behind two batch axes
    ])
    def test_one_row_stack_is_fast_convolve_bitwise(self, rng, shape_x,
                                                    shape_h):
        # A stack of one takes fast_convolve's direct form, so it is
        # bit for bit the single-row convolution.
        x, h = _cnoise(rng, shape_x), _cnoise(rng, shape_h)
        out = stacked_convolve(x, h)
        assert np.array_equal(out, fast_convolve(x, h))
        assert np.array_equal(out.reshape(-1),
                              fast_convolve(x.reshape(-1), h.reshape(-1)))


class TestCrossover:
    def test_crossover_predicate(self):
        assert not use_fft(1000, FFT_MIN_TAPS - 1)
        assert not use_fft(100, FFT_MIN_TAPS)  # too little work
        assert use_fft(1 << 16, 256)


class TestNormalEquationEstimate:
    @pytest.mark.parametrize("n_taps,n_rows", [(8, 64), (24, 240),
                                               (48, 240)])
    def test_matches_lstsq(self, rng, n_taps, n_rows):
        n = 2048
        x = _cnoise(rng, n)
        h = _cnoise(rng, n_taps) / n_taps
        y = np.convolve(x, h)[:n] + 1e-6 * _cnoise(rng, n)
        rows = np.arange(500, 500 + n_rows)
        h_fast = ls_channel_estimate(x, y, n_taps, rows=rows,
                                     method="normal")
        h_ref = ls_channel_estimate(x, y, n_taps, rows=rows,
                                    method="lstsq")
        # Same regularised minimiser; conditioning of the normal
        # equations costs a few digits relative to the SVD route.
        assert np.max(np.abs(h_fast - h_ref)) \
            <= 1e-8 * max(np.max(np.abs(h_ref)), 1e-300)

    def test_unknown_method_rejected(self, rng):
        x = _cnoise(rng, 64)
        with pytest.raises(ValueError, match="method"):
            ls_channel_estimate(x, x, 4, method="qr")


def _assert_timing_matches_oracle(offset, noise_mw, seed):
    rng = np.random.default_rng(seed)
    tl, x, y, *_ = _make_link(rng, offset=offset, noise_mw=noise_mw)
    nominal = tl.nominal_preamble_start
    res_fast = find_tag_timing(x, y, nominal, 32.0)
    res_direct = find_tag_timing_direct(x, y, nominal, 32.0)
    res_svd = find_tag_timing_direct(
        x, y, nominal, 32.0, estimator=estimate_combined_channel_svd)
    assert res_fast.offset_samples == res_direct.offset_samples \
        == res_svd.offset_samples
    # The returned estimate comes from the reference estimator on
    # both paths, so downstream decode state is bit-identical.
    assert np.array_equal(res_fast.estimate.h_fb,
                          res_direct.estimate.h_fb)
    assert res_fast.metric == pytest.approx(res_direct.metric, rel=1e-9)


class TestFineTimingEquivalence:
    @pytest.mark.parametrize("offset", [-7, 0, 5, 13])
    @pytest.mark.parametrize("noise_mw", [0.0, 1e-8])
    def test_identical_offset(self, offset, noise_mw):
        _assert_timing_matches_oracle(offset, noise_mw, 100 + abs(offset))

    # The default search spans +-2 us = +-40 samples.
    @settings(deadline=None, max_examples=25)
    @given(offset=st.integers(-40, 40),
           noise_mw=st.sampled_from([0.0, 1e-10, 1e-9, 1e-8]),
           seed=st.integers(0, 2**32 - 1))
    def test_identical_offset_generated(self, offset, noise_mw, seed):
        _assert_timing_matches_oracle(offset, noise_mw, seed)

    def test_solver_metric_matches_reference(self):
        # The batched solver's (residual_power, gain) must reproduce the
        # per-offset reference estimator's metric to float64 rounding.
        from repro.reader.channel_est import estimate_combined_channel

        rng = np.random.default_rng(7)
        tl, x, y, *_ = _make_link(rng, offset=3, noise_mw=1e-9)
        solver = BatchPreambleSolver(x, y[None], 32.0, n_taps=8)
        starts = tl.nominal_preamble_start + np.arange(-10, 11)
        feasible, residual_power, gain = (
            a[0] for a in solver.evaluate(starts))
        for i, start in enumerate(starts):
            est = estimate_combined_channel(x, y, int(start), 32.0,
                                            n_taps=8)
            assert feasible[i]
            assert residual_power[i] == pytest.approx(
                est.residual_power, rel=1e-8)
            assert gain[i] == pytest.approx(est.gain, rel=1e-8)

    def test_solver_rejects_out_of_window_start(self):
        rng = np.random.default_rng(8)
        tl, x, y, *_ = _make_link(rng)
        nominal = tl.nominal_preamble_start
        solver = BatchPreambleSolver(
            x, y[None], 32.0, n_taps=8,
            start_window=(nominal - 10, nominal + 10))
        with pytest.raises(ValueError, match="start_window"):
            solver.evaluate(np.array([nominal + 11]))

    def test_windowed_solver_matches_unwindowed(self):
        rng = np.random.default_rng(9)
        tl, x, y, *_ = _make_link(rng, offset=4, noise_mw=1e-9)
        nominal = tl.nominal_preamble_start
        starts = nominal + np.arange(-6, 7)
        whole = BatchPreambleSolver(x, y[None], 32.0, n_taps=8)
        windowed = BatchPreambleSolver(
            x, y[None], 32.0, n_taps=8,
            start_window=(nominal - 6, nominal + 6))
        for a, b in zip(whole.evaluate(starts), windowed.evaluate(starts)):
            np.testing.assert_allclose(a, b, rtol=1e-9)


class TestAnalogCancellerDeterminism:
    def test_default_rng_is_seeded(self, rng):
        x = _cnoise(rng, 256)
        h_env = np.array([0.9, 0.2 - 0.1j, 0.05j])
        y = np.convolve(x, h_env)[: x.size]
        canceller = AnalogCanceller()
        first = canceller.cancel(x, y, h_env)
        second = canceller.cancel(x, y, h_env)
        # Byte-identical across calls -- an unseeded fallback would make
        # experiment tables differ between runs and job counts.
        assert np.array_equal(first, second)

    def test_explicit_rng_still_controls_realisation(self, rng):
        x = _cnoise(rng, 256)
        h_env = np.array([0.9, 0.2 - 0.1j])
        y = np.convolve(x, h_env)[: x.size]
        canceller = AnalogCanceller()
        a = canceller.cancel(x, y, h_env,
                             rng=np.random.default_rng(1))
        b = canceller.cancel(x, y, h_env,
                             rng=np.random.default_rng(2))
        assert not np.array_equal(a, b)


class TestCodingTables:
    @pytest.mark.parametrize("seed", [0x7F, 1, 0x5D, 93])
    @pytest.mark.parametrize("n", [0, 1, 126, 127, 128, 500])
    def test_scrambler_table_matches_lfsr(self, seed, n):
        assert np.array_equal(scrambler_sequence(n, seed),
                              sequence_direct(n, seed))

    def test_scrambler_seed_still_validated(self):
        with pytest.raises(ValueError):
            scrambler_sequence(8, 0)
        with pytest.raises(ValueError):
            scrambler_sequence(8, 128)

    def test_interleaver_cache_returns_readonly(self):
        idx = interleave_indices(96, 2)
        assert not idx.flags.writeable
        assert interleave_indices(96, 2) is idx  # cached

    def test_puncture_mask_cached_and_correct(self, rng):
        for rate, pattern in _PUNCTURE_PATTERNS.items():
            m = rng.integers(0, 2, 246).astype(np.uint8)
            ref = m[np.resize(pattern, m.size)]
            assert np.array_equal(puncture(m, rate), ref)
            soft = ref.astype(np.float64) * 2 - 1
            rebuilt = depuncture(soft, rate, m.size)
            assert rebuilt.size == m.size

    def test_unknown_rate_rejected(self):
        with pytest.raises(KeyError):
            puncture(np.ones(4, dtype=np.uint8), "5/6")
