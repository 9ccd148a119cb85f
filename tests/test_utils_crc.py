"""Unit tests for repro.utils.crc."""

import numpy as np
import pytest

from repro.utils import crc as C
from repro.utils.bits import bits_from_bytes, random_bits


class TestCrc32:
    def test_known_vector(self):
        # "123456789" -> 0xCBF43926 is the canonical CRC-32 check value.
        assert C.crc32(b"123456789") == 0xCBF43926

    def test_empty(self):
        assert C.crc32(b"") == 0

    def test_sensitivity(self):
        assert C.crc32(b"hello") != C.crc32(b"hellp")


class TestCrc16:
    def test_known_check_value(self):
        # The catalogue check value over "123456789", bits MSB-first.
        bits = np.unpackbits(np.frombuffer(b"123456789", dtype=np.uint8))
        assert C.crc16_ccitt(bits) == 0x29B1   # CRC-16/CCITT-FALSE

    def test_differs_on_single_bit_flip(self):
        rng = np.random.default_rng(2)
        bits = random_bits(128, rng)
        base = C.crc16_ccitt(bits)
        for i in (0, 63, 127):
            mod = bits.copy()
            mod[i] ^= 1
            assert C.crc16_ccitt(mod) != base


class TestCrc8:
    def test_known_check_value(self):
        bits = np.unpackbits(np.frombuffer(b"123456789", dtype=np.uint8))
        assert C.crc8(bits) == 0xF4            # CRC-8/SMBUS (poly 0x07)

    def test_partial_byte_tail(self):
        # A length that is not a whole number of bytes runs the
        # bit-serial tail: 3 bits 101 shift in as for the byte 0b101.
        bits = np.array([1, 0, 1], dtype=np.uint8)
        padded = np.concatenate([np.zeros(5, dtype=np.uint8), bits])
        assert C.crc8(bits) == C.crc8(padded)


class TestFraming:
    def test_append_check_roundtrip(self):
        rng = np.random.default_rng(3)
        bits = random_bits(200, rng)
        framed = C.append_crc16(bits)
        assert framed.size == 216
        assert C.check_crc16(framed)

    def test_check_fails_on_corruption(self):
        rng = np.random.default_rng(4)
        framed = C.append_crc16(random_bits(64, rng))
        framed[10] ^= 1
        assert not C.check_crc16(framed)

    def test_check_fails_on_crc_corruption(self):
        rng = np.random.default_rng(5)
        framed = C.append_crc16(random_bits(64, rng))
        framed[-1] ^= 1
        assert not C.check_crc16(framed)

    def test_check_too_short(self):
        assert not C.check_crc16(np.ones(8, dtype=np.uint8))

    def test_crc8_range(self):
        v = C.crc8(np.array([1, 0, 1, 1], dtype=np.uint8))
        assert 0 <= v <= 0xFF
