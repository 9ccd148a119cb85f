"""Tests for reader channel estimation, sync, MRC, demod and decode."""

import numpy as np
import pytest

from repro.channel import awgn
from repro.coding import ConvolutionalCode
from repro.link.frames import build_frame_bits
from repro.link.protocol import build_ap_transmission
from repro.reader import (
    decode_tag_symbols,
    estimate_combined_channel,
    expected_template,
    find_tag_timing,
    mrc_combine,
    psk_soft_llrs,
)
from repro.reader.channel_est import estimate_combined_channel_group
from repro.reader.demod import estimate_symbol_noise
from repro.reader.mrc import MrcOutput
from repro.tag import TagConfig, tag_preamble_phases
from repro.utils import random_bits
from repro.wifi import random_payload
from repro.wifi.mapper import psk_map


def _make_link(rng, *, h_fb=None, noise_mw=1e-10, offset=0,
               preamble_us=32.0, config=None, payload_bits=200):
    """Synthesise a clean post-cancellation backscatter signal."""
    config = config or TagConfig("qpsk", "1/2", 1e6)
    tl = build_ap_transmission(random_payload(1500, rng), 24,
                               include_cts=False,
                               preamble_us=preamble_us)
    x = tl.samples
    if h_fb is None:
        h_fb = np.array([0.02, 0.008 - 0.004j, 0.002j])
    preamble = tag_preamble_phases(preamble_us)
    code = ConvolutionalCode(config.code_rate)
    frame = build_frame_bits(random_bits(payload_bits, rng))
    coded = code.encode_with_tail(frame)
    nb = config.bits_per_symbol
    if coded.size % nb:
        coded = np.concatenate(
            [coded, np.zeros(nb - coded.size % nb, dtype=np.uint8)]
        )
    symbols = psk_map(coded, config.modulation)

    refl = np.zeros(x.size, dtype=complex)
    pre_start = tl.nominal_preamble_start + offset
    refl[pre_start:pre_start + preamble.size] = preamble
    data_start = pre_start + preamble.size
    sps = config.samples_per_symbol
    wave = np.repeat(symbols, sps)
    end = min(x.size, data_start + wave.size)
    refl[data_start:end] = wave[: end - data_start]

    y = np.convolve(x, h_fb)[: x.size] * refl
    y = y + awgn(x.size, noise_mw, rng)
    return tl, x, y, h_fb, config, symbols, frame, data_start


class TestChannelEstimation:
    def test_recovers_channel_noiseless(self, rng):
        tl, x, y, h_fb, *_ = _make_link(rng, noise_mw=0.0)
        est = estimate_combined_channel(
            x, y, tl.nominal_preamble_start, 32.0, n_taps=6)
        # Exact up to the (0.1%-level) ridge shrinkage.
        assert np.allclose(est.h_fb[:3], h_fb, rtol=0.01, atol=1e-5)

    def test_residual_reflects_noise(self, rng):
        tl, x, y, h_fb, *_ = _make_link(rng, noise_mw=1e-6)
        est = estimate_combined_channel(
            x, y, tl.nominal_preamble_start, 32.0)
        assert est.residual_power == pytest.approx(1e-6, rel=0.5)

    def test_longer_preamble_lowers_error(self, rng):
        errs = {}
        for pre in (32.0, 96.0):
            tl, x, y, h_fb, *_ = _make_link(
                rng, noise_mw=1e-7, preamble_us=pre)
            est = estimate_combined_channel(
                x, y, tl.nominal_preamble_start, pre, n_taps=6)
            errs[pre] = np.linalg.norm(est.h_fb[:3] - h_fb)
        assert errs[96.0] < errs[32.0] * 1.2  # usually strictly better

    def test_preamble_too_short(self, rng):
        tl, x, y, *_ = _make_link(rng)
        with pytest.raises(ValueError):
            estimate_combined_channel(x, y, x.size - 10, 32.0)

    @pytest.mark.parametrize("n_taps", [6, 12])
    def test_preamble_span_matches_full_capture(self, rng, n_taps):
        # The estimator derotates and reconvolves only the preamble
        # span; the interior convolution outputs are the same dot
        # products as over the whole capture, so the fit and residual
        # must match the full-capture form bit for bit -- including
        # starts within n_taps - 1 samples of sample 0 and a preamble
        # cut short by the capture end.
        from repro.reader.cancellation import ls_channel_estimate
        from repro.reader.channel_est import _valid_preamble_rows

        tl, x, y, *_ = _make_link(rng, offset=3, noise_mw=1e-8)
        preamble = tag_preamble_phases(32.0)
        nominal = tl.nominal_preamble_start
        cut = nominal + preamble.size - 100
        for start, xx, yy in [
                (0, x, y), (1, x, y), (n_taps - 1, x, y), (n_taps, x, y),
                (nominal, x, y), (nominal + 3, x, y),
                (nominal, x[:cut], y[:cut])]:
            rows = _valid_preamble_rows(start, 32, n_taps)
            rows = rows[rows < yy.size]
            chip_phase = np.ones(yy.size, dtype=np.complex128)
            span = slice(start, min(start + preamble.size, yy.size))
            chip_phase[span] = preamble[: span.stop - span.start]
            y_derot = yy * np.conj(chip_phase)
            h = ls_channel_estimate(xx, y_derot, n_taps, rows=rows)
            resid = y_derot[rows] - np.convolve(xx, h)[rows]
            est = estimate_combined_channel(xx, yy, start, 32.0,
                                            n_taps=n_taps)
            assert np.array_equal(est.h_fb, h)
            assert est.residual_power == float(np.mean(np.abs(resid) ** 2))
            assert est.n_rows == rows.size

    def test_negative_start_rejected(self, rng):
        tl, x, y, *_ = _make_link(rng)
        with pytest.raises(ValueError, match="before the capture"):
            estimate_combined_channel(x, y, -1, 32.0)
        with pytest.raises(ValueError, match="before the capture"):
            estimate_combined_channel_group(x, np.stack([y, y]), -30, 32.0)


class TestSync:
    @pytest.mark.parametrize("offset", [-20, -5, 0, 7, 20])
    def test_finds_timing_offset(self, rng, offset):
        tl, x, y, *_ = _make_link(rng, offset=offset, noise_mw=1e-9)
        sync = find_tag_timing(x, y, tl.nominal_preamble_start, 32.0,
                               search_us=2.0)
        assert sync.offset_samples == pytest.approx(offset, abs=1)

    def test_gain_normalised_metric(self, rng):
        tl, x, y, *_ = _make_link(rng, noise_mw=1e-9)
        sync = find_tag_timing(x, y, tl.nominal_preamble_start, 32.0)
        assert sync.metric < 0.05


class TestMrc:
    def test_recovers_constant_phase(self, rng):
        tl, x, y, h_fb, config, symbols, frame, data_start = \
            _make_link(rng, noise_mw=1e-10)
        template = expected_template(x, h_fb, x.size)
        out = mrc_combine(y, template, data_start,
                          config.samples_per_symbol, 50, guard=4)
        err = np.abs(out.symbols - symbols[:50])
        assert np.max(err) < 0.01

    def test_noise_var_scales_inverse_energy(self, rng):
        tl, x, y, h_fb, config, *_ , data_start = _make_link(rng)
        template = expected_template(x, h_fb, x.size)
        out = mrc_combine(y, template, data_start,
                          config.samples_per_symbol, 30, guard=4,
                          noise_floor=1e-6)
        assert np.all(out.noise_var > 0)
        assert np.argmax(out.noise_var) == np.argmin(out.template_energy)

    def test_mean_snr_reported(self, rng):
        tl, x, y, h_fb, config, symbols, frame, data_start = \
            _make_link(rng, noise_mw=1e-9)
        template = expected_template(x, h_fb, x.size)
        out = mrc_combine(y, template, data_start,
                          config.samples_per_symbol, 50, guard=4,
                          noise_floor=1e-9)
        assert out.mean_snr_db() > 20.0

    def test_zero_noise_floor_infers_variance(self, rng):
        # Regression: noise_floor=0 used to return all-zero noise_var,
        # collapsing every soft LLR.  The documented fallback infers the
        # per-sample noise power from the post-combine residuals.
        noise_mw = 1e-6
        tl, x, y, h_fb, config, *_ , data_start = \
            _make_link(rng, noise_mw=noise_mw)
        template = expected_template(x, h_fb, x.size)
        inferred = mrc_combine(y, template, data_start,
                               config.samples_per_symbol, 30, guard=4)
        exact = mrc_combine(y, template, data_start,
                            config.samples_per_symbol, 30, guard=4,
                            noise_floor=noise_mw)
        assert np.all(inferred.noise_var > 0)
        # The residual estimate tracks the true floor within a factor ~2.
        ratio = inferred.noise_var / exact.noise_var
        assert np.all(ratio > 0.5) and np.all(ratio < 2.0)

    def test_batched_floors_match_scalar_rows(self, rng):
        # The stacked combine uses each row's measured floor and infers
        # the variance from residuals only for rows without one (zero
        # or NaN), exactly as the scalar path does row by row.
        from repro.reader.mrc import _mrc_combine

        tl, x, y, h_fb, config, *_ , data_start = _make_link(rng)
        template = expected_template(x, h_fb, x.size)
        ys = np.stack([y, 0.5 * y, 2.0 * y])
        sps = config.samples_per_symbol
        for floors in ([1e-6, 2e-6, 3e-6], [1e-6, 0.0, np.nan],
                       [np.nan, 1e-6, 2e-6]):
            out = _mrc_combine(ys, template, data_start, sps, 30, guard=4,
                               noise_floor=np.array(floors))
            for b, floor in enumerate(floors):
                one = _mrc_combine(ys[b], template, data_start, sps, 30,
                                   guard=4, noise_floor=floor)
                assert np.array_equal(out.symbols[b], one.symbols)
                assert np.array_equal(out.template_energy[b],
                                      one.template_energy)
                if floor > 0:
                    assert np.array_equal(out.noise_var[b], one.noise_var)
                else:
                    np.testing.assert_allclose(out.noise_var[b],
                                               one.noise_var, rtol=1e-12)

    def test_mean_snr_never_inf(self):
        # Regression: all-zero noise_var used to yield +inf, which
        # poisoned rate adaptation and experiment tables downstream.
        out = MrcOutput(
            symbols=np.ones(8, dtype=complex),
            noise_var=np.zeros(8),
            template_energy=np.ones(8),
        )
        assert np.isnan(out.mean_snr_db())

    def test_guard_too_large(self, rng):
        tl, x, y, h_fb, config, *_ , data_start = _make_link(rng)
        template = expected_template(x, h_fb, x.size)
        with pytest.raises(ValueError):
            mrc_combine(y, template, data_start, 20, 10, guard=20)

    def test_span_exceeds_signal(self, rng):
        tl, x, y, h_fb, config, *_ , data_start = _make_link(rng)
        template = expected_template(x, h_fb, x.size)
        with pytest.raises(ValueError):
            mrc_combine(y, template, data_start, 20, 10 ** 6)


class TestDemodDecode:
    def test_llr_signs(self):
        bits = random_bits(64)
        sym = psk_map(bits, "qpsk")
        llrs = psk_soft_llrs(sym, "qpsk", 0.01)
        assert np.array_equal((llrs < 0).astype(np.uint8), bits)

    def test_per_symbol_noise_weighting(self):
        sym = psk_map(np.array([0, 0], dtype=np.uint8), "bpsk")
        nv = np.array([0.01, 1.0])
        llrs = psk_soft_llrs(sym, "bpsk", nv)
        assert abs(llrs[0]) > abs(llrs[1])

    def test_blind_noise_estimate(self, rng):
        bits = random_bits(2000, rng)
        sym = psk_map(bits, "qpsk")
        noisy = sym + awgn(sym.size, 0.01, rng)
        est = estimate_symbol_noise(noisy, "qpsk")
        assert est == pytest.approx(0.01, rel=0.3)

    def test_decode_clean_symbols(self, rng):
        config = TagConfig("qpsk", "1/2", 1e6)
        frame = build_frame_bits(random_bits(300, rng))
        code = ConvolutionalCode("1/2")
        coded = code.encode_with_tail(frame)
        symbols = psk_map(coded, "qpsk")
        out = decode_tag_symbols(symbols, np.full(symbols.size, 1e-3),
                                 config)
        assert out.ok
        assert np.array_equal(out.frame.payload_bits,
                              frame[24:-16])

    def test_decode_rate_two_thirds(self, rng):
        config = TagConfig("qpsk", "2/3", 1e6)
        frame = build_frame_bits(random_bits(300, rng))
        code = ConvolutionalCode("2/3")
        coded = code.encode_with_tail(frame)
        if coded.size % 2:
            coded = np.concatenate([coded, np.zeros(1, dtype=np.uint8)])
        symbols = psk_map(coded, "qpsk")
        out = decode_tag_symbols(symbols, np.full(symbols.size, 1e-3),
                                 config)
        assert out.ok

    @pytest.mark.parametrize("pad", [1, 2])
    def test_decode_rate_two_thirds_trims_padding(self, rng, pad):
        # BPSK carries one coded bit per symbol, so tag-side padding can
        # leave an LLR stream whose length is not a multiple of 3; the
        # decoder must trim before depuncturing (3 coded -> 4 mother).
        config = TagConfig("bpsk", "2/3", 1e6)
        frame = build_frame_bits(random_bits(56, rng))  # 96-bit frame
        coded = ConvolutionalCode("2/3").encode_with_tail(frame)
        assert coded.size % 3 == 0  # padding below exercises the trim
        padded = np.concatenate([coded, np.zeros(pad, dtype=np.uint8)])
        symbols = psk_map(padded, "bpsk")
        out = decode_tag_symbols(symbols, np.full(symbols.size, 1e-3),
                                 config)
        assert out.ok
        assert np.array_equal(out.frame.payload_bits, frame[24:-16])

    def test_decode_noisy_symbols_with_coding_gain(self, rng):
        config = TagConfig("bpsk", "1/2", 1e6)
        frame = build_frame_bits(random_bits(200, rng))
        coded = ConvolutionalCode("1/2").encode_with_tail(frame)
        symbols = psk_map(coded, "bpsk") + awgn(coded.size, 0.3, rng)
        out = decode_tag_symbols(symbols, np.full(symbols.size, 0.3),
                                 config)
        assert out.ok  # ~5 dB raw SNR + coding gain

    def test_decode_garbage_fails_cleanly(self, rng):
        config = TagConfig("qpsk", "1/2", 1e6)
        noise = awgn(500, 1.0, rng)
        out = decode_tag_symbols(noise, np.ones(500), config)
        assert not out.ok

    def test_decode_too_short(self):
        config = TagConfig("qpsk", "1/2", 1e6)
        out = decode_tag_symbols(np.ones(2, dtype=complex), np.ones(2),
                                 config)
        assert not out.ok
