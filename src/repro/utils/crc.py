"""Cyclic redundancy checks used by the tag frame format and WiFi FCS.

The tag-frame CRCs run over bit arrays, MSB-first: whole bytes pass
through a 256-entry table (one Python step per byte) and the trailing
``n % 8`` bits are shifted in one at a time.  The 802.11 FCS is
:func:`zlib.crc32`, the same CRC-32 the streaming service puts on its
chunks.
"""

from __future__ import annotations

import zlib
from functools import lru_cache

import numpy as np

from .bits import bits_from_int

__all__ = ["crc8", "crc16_ccitt", "crc32", "append_crc16", "check_crc16"]


@lru_cache(maxsize=None)
def _crc_table(poly: int, width: int) -> tuple[int, ...]:
    """Register update for each byte shifted into a zero register."""
    top = 1 << (width - 1)
    mask = (1 << width) - 1
    table = []
    for byte in range(256):
        reg = byte << (width - 8)
        for _ in range(8):
            reg = ((reg << 1) ^ poly if reg & top else reg << 1) & mask
        table.append(reg)
    return tuple(table)


def _crc_bits(bits: np.ndarray, poly: int, width: int, init: int,
              xor_out: int) -> int:
    """Generic MSB-first CRC over a bit array (``width >= 8``)."""
    bits = np.asarray(bits, dtype=np.uint8)
    n_whole = bits.size - bits.size % 8
    table = _crc_table(poly, width)
    mask = (1 << width) - 1
    shift = width - 8
    reg = init
    for byte in np.packbits(bits[:n_whole]).tolist():
        reg = ((reg << 8) & mask) ^ table[(reg >> shift) ^ byte]
    for b in bits[n_whole:].tolist():
        fb = ((reg >> (width - 1)) & 1) ^ b
        reg = (reg << 1) & mask
        if fb:
            reg ^= poly
    return reg ^ xor_out


def crc8(bits: np.ndarray) -> int:
    """CRC-8 (poly 0x07), used for the tag frame header."""
    return _crc_bits(bits, poly=0x07, width=8, init=0x00, xor_out=0x00)


def crc16_ccitt(bits: np.ndarray) -> int:
    """CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF), the tag payload check."""
    return _crc_bits(bits, poly=0x1021, width=16, init=0xFFFF, xor_out=0x0000)


def crc32(data: bytes) -> int:
    """IEEE 802.3 CRC-32 as used by the 802.11 FCS, over bytes."""
    return zlib.crc32(data)


def append_crc16(bits: np.ndarray) -> np.ndarray:
    """Return ``bits`` with a 16-bit CRC appended (LSB-first)."""
    bits = np.asarray(bits, dtype=np.uint8)
    crc = crc16_ccitt(bits)
    return np.concatenate([bits, bits_from_int(crc, 16)])


def check_crc16(bits_with_crc: np.ndarray) -> bool:
    """Verify a frame produced by :func:`append_crc16`."""
    bits_with_crc = np.asarray(bits_with_crc, dtype=np.uint8)
    if bits_with_crc.size < 16:
        return False
    body, tail = bits_with_crc[:-16], bits_with_crc[-16:]
    expect = crc16_ccitt(body)
    from .bits import int_from_bits

    return int_from_bits(tail) == expect
