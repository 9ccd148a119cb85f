"""Tests for the AP -> tag burst-width downlink."""

import numpy as np
import pytest

from repro.channel import awgn, rician_channel, apply_channel
from repro.link.downlink import (
    DownlinkDetector,
    DownlinkEncoder,
    decode_config_command,
    encode_config_command,
)
from repro.tag import TagConfig
from repro.utils import random_bits


class TestEncoder:
    def test_waveform_structure(self):
        enc = DownlinkEncoder()
        wave = enc.encode(np.array([1, 0], dtype=np.uint8))
        # gap + long + gap + short + gap
        expect = enc.gap * 3 + enc.long + enc.short
        assert wave.size == expect

    def test_rate_near_paper_figure(self):
        # The paper cites ~20 kbps for the downlink.
        rate = DownlinkEncoder().raw_rate_bps()
        assert 15e3 < rate < 40e3

    def test_duration_helper(self, rng):
        enc = DownlinkEncoder()
        n = 24
        wave = enc.encode(random_bits(n, rng))
        # Average-duration estimate within 25% of a random payload.
        assert enc.duration_us(n) == pytest.approx(
            wave.size / 20.0, rel=0.25)

    def test_invalid_widths(self):
        with pytest.raises(ValueError):
            DownlinkEncoder(short_us=30.0, long_us=20.0)
        with pytest.raises(ValueError):
            DownlinkEncoder(gap_us=0.0)


class TestDetector:
    def test_clean_roundtrip(self):
        bits = random_bits(32)
        wave = DownlinkEncoder().encode(bits)
        got = DownlinkDetector().detect(wave)
        assert np.array_equal(got, bits)

    def test_roundtrip_through_channel(self, rng):
        bits = random_bits(24)
        wave = DownlinkEncoder(amplitude=10.0).encode(bits)
        h = rician_channel(-50.0, 12.0, 40e-9, rng=rng)
        rx = apply_channel(h, wave)
        rx = rx + awgn(rx.size, 1e-9, rng)
        got = DownlinkDetector().detect(rx)
        assert np.array_equal(got, bits)

    def test_below_sensitivity(self):
        bits = random_bits(8)
        wave = DownlinkEncoder(amplitude=1e-6).encode(bits)
        assert DownlinkDetector().detect(wave).size == 0

    def test_empty_input(self):
        assert DownlinkDetector().detect(np.array([])).size == 0


class TestConfigCommands:
    @pytest.mark.parametrize("mod,rate,fs", [
        ("bpsk", "1/2", 100e3),
        ("qpsk", "2/3", 1e6),
        ("16psk", "1/2", 2.5e6),
    ])
    def test_roundtrip(self, mod, rate, fs):
        cfg = TagConfig(mod, rate, fs)
        bits = encode_config_command(5, cfg)
        out = decode_config_command(bits)
        assert out is not None
        tag_id, got = out
        assert tag_id == 5
        assert got == cfg

    def test_crc_guards_corruption(self):
        bits = encode_config_command(1, TagConfig())
        bits[2] ^= 1
        assert decode_config_command(bits) is None

    def test_tag_id_range(self):
        with pytest.raises(ValueError):
            encode_config_command(16, TagConfig())

    def test_too_short(self):
        assert decode_config_command(np.ones(10, dtype=np.uint8)) is None

    def test_over_the_air_command(self, rng):
        cfg = TagConfig("16psk", "2/3", 2e6)
        bits = encode_config_command(3, cfg)
        wave = DownlinkEncoder(amplitude=3.0).encode(bits)
        h = rician_channel(-45.0, 12.0, 40e-9, rng=rng)
        rx = apply_channel(h, wave) + awgn(wave.size, 1e-9, rng)
        got = DownlinkDetector().detect(rx)
        out = decode_config_command(got[: bits.size])
        assert out == (3, cfg)
