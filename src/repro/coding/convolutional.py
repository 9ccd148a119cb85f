"""The 802.11 convolutional code (K=7, g0=133o, g1=171o) with puncturing.

The same code is used twice in this reproduction, exactly as in the paper:
once inside the WiFi OFDM PHY and once as the BackFi tag's channel code
(Sec. 4.1: "rate 1/2 convolutional encoder with constraint length of 7").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CODE_RATES",
    "ConvolutionalCode",
    "conv_encode",
    "puncture",
    "depuncture",
]

G0 = 0o133
G1 = 0o171
CONSTRAINT = 7
N_STATES = 1 << (CONSTRAINT - 1)

# Puncturing patterns from IEEE 802.11-2016 17.3.5.7 (1 = keep).
_PUNCTURE_PATTERNS = {
    "1/2": np.array([1, 1], dtype=bool),
    "2/3": np.array([1, 1, 1, 0], dtype=bool),
    "3/4": np.array([1, 1, 1, 0, 0, 1], dtype=bool),
}

CODE_RATES = tuple(_PUNCTURE_PATTERNS)


def _parity_table() -> np.ndarray:
    """Precomputed parity of (state << 1 | input) & generator for both outputs.

    Returns an array of shape (2, 2*N_STATES): output bit for generator g
    when the shift register holds value ``v`` (7 bits, newest bit is MSB
    of the combined value ``input << 6 | state`` -- see below).
    """
    v = np.arange(1 << CONSTRAINT, dtype=np.uint32)
    out = np.empty((2, v.size), dtype=np.uint8)
    for gi, g in enumerate((G0, G1)):
        masked = v & g
        # popcount parity
        p = masked
        p ^= p >> 16
        p ^= p >> 8
        p ^= p >> 4
        p ^= p >> 2
        p ^= p >> 1
        out[gi] = (p & 1).astype(np.uint8)
    return out


_PARITY = _parity_table()
_PARITY_PAIRS = np.ascontiguousarray(_PARITY.T)
"""``(register, 2)`` view of :data:`_PARITY`: one row per register value
holds both generator outputs in transmission order."""


@dataclass(frozen=True)
class ConvolutionalCode:
    """A K=7 convolutional code at one of the 802.11 puncturing rates."""

    rate: str = "1/2"

    def __post_init__(self) -> None:
        if self.rate not in _PUNCTURE_PATTERNS:
            raise ValueError(
                f"unsupported rate {self.rate!r}; choose from {CODE_RATES}"
            )

    @property
    def rate_fraction(self) -> float:
        """The code rate as a float (1/2, 2/3, 3/4)."""
        num, den = self.rate.split("/")
        return int(num) / int(den)

    def coded_length(self, n_info_bits: int) -> int:
        """Number of coded bits produced for ``n_info_bits`` input bits."""
        mother = 2 * n_info_bits
        pattern = _PUNCTURE_PATTERNS[self.rate]
        full, rem = divmod(mother, pattern.size)
        return int(full * np.count_nonzero(pattern)
                   + np.count_nonzero(pattern[:rem]))

    def encode(self, bits: np.ndarray) -> np.ndarray:
        """Encode (zero-state start, no tail appended) and puncture."""
        mother = conv_encode(bits)
        return puncture(mother, self.rate)

    def encode_with_tail(self, bits: np.ndarray) -> np.ndarray:
        """Append K-1 zero tail bits (trellis termination) then encode."""
        bits = np.asarray(bits, dtype=np.uint8)
        tail = np.zeros(CONSTRAINT - 1, dtype=np.uint8)
        return self.encode(np.concatenate([bits, tail]))


def conv_encode(bits: np.ndarray) -> np.ndarray:
    """Rate-1/2 mother-code encoding of a bit array (zero initial state).

    Output interleaves the two generator streams: ``a0 b0 a1 b1 ...``.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    n = bits.size
    if n == 0:
        return np.empty(0, dtype=np.uint8)
    # The 7-bit register value at each step, x[n], x[n-1], ..., x[n-6]
    # dotted with g: reg = sum_{k=0..6} x[n-k] << (6-k).  The newest bit
    # is the MSB, so the octal generator masks match the 802.11 tap
    # definition.  One shift per tap builds every step's register.
    padded = np.concatenate([np.zeros(CONSTRAINT - 1, dtype=np.uint8), bits])
    reg = padded[:n].copy()
    for k in range(1, CONSTRAINT):
        reg |= padded[k:k + n] << k
    return _PARITY_PAIRS[reg].reshape(-1)


@lru_cache(maxsize=64)
def _keep_mask(rate: str, n_bits: int) -> np.ndarray:
    """Tiled (read-only) puncturing keep-mask for an ``n_bits`` stream.

    Every packet at a given rate and length reuses the same mask, so the
    tiling cost is paid once rather than per puncture/depuncture call.
    """
    mask = np.resize(_PUNCTURE_PATTERNS[rate], n_bits)
    mask.setflags(write=False)
    return mask


def puncture(mother_bits: np.ndarray, rate: str) -> np.ndarray:
    """Remove bits from the rate-1/2 stream per the 802.11 pattern."""
    if rate not in _PUNCTURE_PATTERNS:
        raise KeyError(rate)
    mother_bits = np.asarray(mother_bits)
    keep = _keep_mask(rate, mother_bits.size)
    return mother_bits[keep]


def depuncture(punctured: np.ndarray, rate: str,
               n_mother_bits: int, *, erasure: float = 0.0) -> np.ndarray:
    """Re-insert erasures where bits were punctured (for soft decoding).

    ``punctured`` may be hard bits mapped to +-1 or soft LLRs; erased
    positions are filled with ``erasure`` (zero LLR = no information).
    Leading axes are a stack of streams, depunctured row by row.
    """
    if rate not in _PUNCTURE_PATTERNS:
        raise KeyError(rate)
    punctured = np.asarray(punctured)
    keep = _keep_mask(rate, n_mother_bits)
    n_punctured = punctured.shape[-1] if punctured.ndim else punctured.size
    if np.count_nonzero(keep) != n_punctured:
        raise ValueError(
            f"punctured length {n_punctured} inconsistent "
            f"with {n_mother_bits} mother bits at rate {rate}"
        )
    out = np.full(punctured.shape[:-1] + (n_mother_bits,), erasure,
                  dtype=np.float64)
    out[..., keep] = punctured
    return out
