"""Unit tests for constellation mapping (QAM + tag PSK)."""

import numpy as np
import pytest

from repro.utils import random_bits
from repro.wifi.mapper import (
    BITS_PER_SYMBOL,
    psk_constellation,
    psk_demap_hard,
    psk_demap_llr,
    psk_map,
    qam_demap_hard,
    qam_demap_llr,
    qam_map,
)

QAM_MODS = ("bpsk", "qpsk", "16qam", "64qam")
PSK_MODS = ("bpsk", "qpsk", "16psk")


class TestQamMapping:
    @pytest.mark.parametrize("mod", QAM_MODS)
    def test_unit_average_power(self, mod):
        # Every constellation point once: the exact average, not a
        # sample mean of random bits.
        k = BITS_PER_SYMBOL[mod]
        patterns = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
        symbols = qam_map(patterns.astype(np.uint8).ravel(), mod)
        assert np.unique(symbols).size == 1 << k
        assert abs(np.mean(np.abs(symbols) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("mod", QAM_MODS)
    def test_hard_demap_roundtrip(self, mod):
        bits = random_bits(BITS_PER_SYMBOL[mod] * 64)
        assert np.array_equal(qam_demap_hard(qam_map(bits, mod), mod), bits)

    @pytest.mark.parametrize("mod", QAM_MODS)
    def test_hard_demap_with_small_noise(self, mod):
        rng = np.random.default_rng(3)
        bits = random_bits(BITS_PER_SYMBOL[mod] * 64, rng)
        sym = qam_map(bits, mod)
        noisy = sym + 0.02 * (rng.standard_normal(sym.size)
                              + 1j * rng.standard_normal(sym.size))
        assert np.array_equal(qam_demap_hard(noisy, mod), bits)

    def test_bpsk_values(self):
        sym = qam_map(np.array([0, 1], dtype=np.uint8), "bpsk")
        assert np.allclose(sym, [-1.0, 1.0])

    def test_bit_count_validation(self):
        with pytest.raises(ValueError):
            qam_map(np.ones(3, dtype=np.uint8), "qpsk")

    @pytest.mark.parametrize("mod", QAM_MODS)
    def test_llr_sign_matches_hard_decision(self, mod):
        rng = np.random.default_rng(4)
        bits = random_bits(BITS_PER_SYMBOL[mod] * 128, rng)
        sym = qam_map(bits, mod)
        llrs = qam_demap_llr(sym, mod, noise_var=0.1)
        # Positive LLR = bit 0: sign must agree with the true bit.
        assert np.array_equal((llrs < 0).astype(np.uint8), bits)

    def test_llr_magnitude_scales_with_noise(self):
        bits = random_bits(32)
        sym = qam_map(bits, "qpsk")
        l1 = qam_demap_llr(sym, "qpsk", noise_var=0.1)
        l2 = qam_demap_llr(sym, "qpsk", noise_var=1.0)
        assert np.all(np.abs(l1) > np.abs(l2))


class TestPskMapping:
    @pytest.mark.parametrize("mod", PSK_MODS)
    def test_unit_modulus(self, mod):
        bits = random_bits(BITS_PER_SYMBOL[mod] * 64)
        assert np.allclose(np.abs(psk_map(bits, mod)), 1.0)

    @pytest.mark.parametrize("mod", PSK_MODS)
    def test_hard_demap_roundtrip(self, mod):
        bits = random_bits(BITS_PER_SYMBOL[mod] * 64)
        assert np.array_equal(psk_demap_hard(psk_map(bits, mod), mod), bits)

    @pytest.mark.parametrize("mod", PSK_MODS)
    def test_constellation_size(self, mod):
        const = psk_constellation(mod)
        assert const.size == 1 << BITS_PER_SYMBOL[mod]
        assert np.allclose(np.abs(const), 1.0)

    def test_constellation_is_gray_coded(self):
        # Adjacent phases must differ in exactly one bit label.
        const = psk_constellation("16psk")
        phases = np.angle(const)
        order = np.argsort(phases)
        labels = order  # index in const IS the bit label
        for i in range(16):
            a = labels[i]
            b = labels[(i + 1) % 16]
            assert bin(int(a) ^ int(b)).count("1") == 1

    @pytest.mark.parametrize("mod", PSK_MODS)
    def test_llr_sign_matches_bits(self, mod):
        bits = random_bits(BITS_PER_SYMBOL[mod] * 128)
        sym = psk_map(bits, mod)
        llrs = psk_demap_llr(sym, mod, noise_var=0.05)
        assert np.array_equal((llrs < 0).astype(np.uint8), bits)

    def test_psk_rejects_partial_group(self):
        with pytest.raises(ValueError):
            psk_map(np.ones(3, dtype=np.uint8), "16psk")

    def test_rotated_symbol_decodes_to_neighbour(self):
        const = psk_constellation("16psk")
        rotated = const[0] * np.exp(1j * np.pi / 16 * 0.9)
        bits = psk_demap_hard(np.array([rotated]), "16psk")
        # Still within the decision region of label 0 or its neighbour.
        assert bits.size == 4
