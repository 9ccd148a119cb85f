"""IEEE 802.11 frame-synchronous scrambler (x^7 + x^4 + 1).

The generator polynomial is primitive, so the 7-bit LFSR visits all 127
non-zero states in one cycle regardless of the seed -- the seed only
selects the starting phase.  One pass over that cycle at import time
replaces the per-bit Python loop with a table lookup: the sequence for
any ``(n, seed)`` is a wrapped slice of the canonical 127-bit period.
The original stepwise LFSR is the test oracle in ``tests/dsp_oracle.py``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["scramble", "descramble", "scrambler_sequence"]

_PERIOD = 127


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """One LFSR period plus the state -> cycle-phase map."""
    cycle = np.empty(_PERIOD, dtype=np.uint8)
    phase = np.zeros(128, dtype=np.intp)
    state = 0x7F
    for i in range(_PERIOD):
        phase[state] = i
        bit = ((state >> 6) ^ (state >> 3)) & 1
        cycle[i] = bit
        state = ((state << 1) | bit) & 0x7F
    cycle.setflags(write=False)
    phase.setflags(write=False)
    return cycle, phase

_CYCLE, _PHASE = _build_tables()


def scrambler_sequence(n: int, seed: int = 0x7F) -> np.ndarray:
    """Output of the 7-bit LFSR (taps x^7, x^4) for ``n`` steps."""
    if not 0 < seed < 128:
        raise ValueError("seed must be a non-zero 7-bit value")
    idx = (_PHASE[seed] + np.arange(n)) % _PERIOD
    return _CYCLE[idx]


def scramble(bits: np.ndarray, seed: int = 0x7F) -> np.ndarray:
    """XOR the data with the scrambler sequence (self-inverse)."""
    bits = np.asarray(bits, dtype=np.uint8)
    return bits ^ scrambler_sequence(bits.size, seed)


def descramble(bits: np.ndarray, seed: int = 0x7F) -> np.ndarray:
    """Alias of :func:`scramble`; the operation is an involution."""
    return scramble(bits, seed)
