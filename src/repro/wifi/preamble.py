"""802.11 OFDM PLCP preamble: short and long training fields.

Frequency-domain sequences from IEEE 802.11-2016 17.3.3; the STF is 10
repetitions of a 16-sample pattern (8 us) and the LTF is a 32-sample CP
followed by two 64-sample long training symbols (8 us).
"""

from __future__ import annotations

from functools import cache

import numpy as np

from ..constants import FFT_SIZE

__all__ = [
    "stf_frequency",
    "ltf_frequency",
    "short_training_field",
    "long_training_field",
    "plcp_preamble",
    "LTF_SYMBOL",
]


def stf_frequency() -> np.ndarray:
    """Frequency-domain STF (logical subcarriers -26..26, 0 = DC)."""
    s = np.zeros(53, dtype=np.complex128)
    mag = np.sqrt(13.0 / 6.0)
    plus = mag * (1 + 1j)
    minus = mag * (-1 - 1j)
    values = {
        -24: plus, -20: minus, -16: plus, -12: minus, -8: minus, -4: plus,
        4: minus, 8: minus, 12: plus, 16: plus, 20: plus, 24: plus,
    }
    for k, v in values.items():
        s[k + 26] = v
    return s


def ltf_frequency() -> np.ndarray:
    """Frequency-domain LTF sequence on subcarriers -26..26."""
    left = [1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1,
            -1, 1, -1, 1, 1, 1, 1]
    right = [1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1,
             -1, 1, -1, 1, -1, 1, 1, 1, 1]
    return np.array(left + [0] + right, dtype=np.complex128)


def _to_time(freq53: np.ndarray) -> np.ndarray:
    """IFFT of a logical-subcarrier vector to one 64-sample symbol."""
    spec = np.zeros(FFT_SIZE, dtype=np.complex128)
    for k in range(-26, 27):
        spec[k % FFT_SIZE] = freq53[k + 26]
    return np.fft.ifft(spec) * FFT_SIZE / np.sqrt(52.0)


LTF_SYMBOL = _to_time(ltf_frequency())
"""One 64-sample time-domain long training symbol."""


def short_training_field() -> np.ndarray:
    """160-sample (8 us) short training field."""
    sym = _to_time(stf_frequency())
    period = sym[:16]
    return np.tile(period, 10)


def long_training_field() -> np.ndarray:
    """160-sample (8 us) long training field: 32-sample CP + 2 symbols."""
    return np.concatenate([LTF_SYMBOL[-32:], LTF_SYMBOL, LTF_SYMBOL])


@cache
def plcp_preamble() -> np.ndarray:
    """The full 320-sample (16 us) PLCP preamble (built once; read-only)."""
    out = np.concatenate([short_training_field(), long_training_field()])
    out.setflags(write=False)
    return out
