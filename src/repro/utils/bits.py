"""Bit-level utilities: packing, PN sequences and Gray coding.

Throughout the code base a *bit array* is a 1-D ``numpy`` array of dtype
``uint8`` containing only 0/1 values, ordered LSB-first within each byte
(the 802.11 serialisation order).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "bits_from_bytes",
    "bytes_from_bits",
    "bits_from_int",
    "int_from_bits",
    "random_bits",
    "pn_sequence",
    "barker_like_sequence",
    "gray_encode",
    "gray_decode",
    "hamming_distance",
    "bit_errors",
]


def bits_from_bytes(data: bytes | bytearray | np.ndarray) -> np.ndarray:
    """Expand bytes into an LSB-first bit array.

    >>> bits_from_bytes(b"\\x01").tolist()
    [1, 0, 0, 0, 0, 0, 0, 0]
    """
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    return np.unpackbits(arr, bitorder="little")


def bytes_from_bits(bits: np.ndarray) -> bytes:
    """Pack an LSB-first bit array back into bytes.

    The bit array length must be a multiple of 8.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % 8:
        raise ValueError(f"bit count {bits.size} is not a multiple of 8")
    return np.packbits(bits, bitorder="little").tobytes()


def bits_from_int(value: int, width: int) -> np.ndarray:
    """Return ``width`` bits of ``value``, LSB first."""
    if value < 0:
        raise ValueError("value must be non-negative")
    if width < 0:
        raise ValueError("width must be non-negative")
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    return np.array([(value >> i) & 1 for i in range(width)], dtype=np.uint8)


def int_from_bits(bits: np.ndarray) -> int:
    """Inverse of :func:`bits_from_int` (LSB-first)."""
    bits = np.asarray(bits, dtype=np.uint8)
    return int(sum(int(b) << i for i, b in enumerate(bits)))


def random_bits(n: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Return ``n`` uniformly random bits."""
    rng = rng or np.random.default_rng()
    return rng.integers(0, 2, size=n, dtype=np.uint8)


@lru_cache(maxsize=64)
def pn_sequence(n: int, seed: int = 0x5A) -> np.ndarray:
    """Deterministic pseudo-noise bit sequence from a 16-bit Fibonacci LFSR.

    The taps (16, 14, 13, 11) give a maximal-length sequence; the same
    ``seed`` always yields the same sequence, which is how the tag and the
    reader share preamble knowledge.  Sequences are cached, so the array
    is read-only.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    state = seed & 0xFFFF
    if state == 0:
        state = 1  # the all-zero LFSR state is absorbing
    out = np.empty(n, dtype=np.uint8)
    for i in range(n):
        bit = (
            (state >> 0) ^ (state >> 2) ^ (state >> 3) ^ (state >> 5)
        ) & 1
        state = (state >> 1) | (bit << 15)
        out[i] = state & 1
    out.setflags(write=False)
    return out


def barker_like_sequence(n: int, seed: int = 0x35) -> np.ndarray:
    """A +-1 float sequence with high autocorrelation peak, length ``n``.

    Used for the AP's 16-bit OOK identification preamble and the tag's
    synchronisation preamble.
    """
    return 1.0 - 2.0 * pn_sequence(n, seed=seed).astype(np.float64)


def gray_encode(value: np.ndarray | int) -> np.ndarray | int:
    """Binary -> Gray code."""
    v = np.asarray(value)
    g = v ^ (v >> 1)
    return int(g) if np.isscalar(value) or g.ndim == 0 else g


def gray_decode(value: np.ndarray | int) -> np.ndarray | int:
    """Gray code -> binary."""
    v = np.asarray(value).copy()
    shift = 1
    while True:
        shifted = v >> shift
        if not np.any(shifted):
            break
        v = v ^ shifted
        shift <<= 1
    return int(v) if np.isscalar(value) or v.ndim == 0 else v


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Number of differing positions between two equal-length bit arrays."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


def bit_errors(tx: np.ndarray, rx: np.ndarray) -> tuple[int, int]:
    """Return ``(errors, total)`` over the overlapping prefix of two arrays."""
    n = min(len(tx), len(rx))
    return hamming_distance(tx[:n], rx[:n]), n
