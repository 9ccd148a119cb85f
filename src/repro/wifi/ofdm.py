"""OFDM symbol assembly/disassembly shared by transmitter and receiver."""

from __future__ import annotations

import numpy as np

from ..constants import (
    CP_LENGTH,
    DATA_SUBCARRIER_INDICES,
    FFT_SIZE,
    PILOT_SUBCARRIER_INDICES,
)

__all__ = [
    "pilot_polarity_sequence",
    "assemble_symbol",
    "disassemble_symbol",
    "add_cyclic_prefix",
    "remove_cyclic_prefix",
    "PILOT_VALUES",
]

PILOT_VALUES = np.array([1.0, 1.0, 1.0, -1.0])
"""Base pilot values on subcarriers (-21, -7, 7, 21)."""

_DATA_FFT_BINS = np.array([k % FFT_SIZE for k in DATA_SUBCARRIER_INDICES])
_PILOT_FFT_BINS = np.array([k % FFT_SIZE for k in PILOT_SUBCARRIER_INDICES])


def pilot_polarity_sequence(n: int) -> np.ndarray:
    """The 127-periodic pilot polarity sequence p_n (17.3.5.10)."""
    from ..coding.scrambler import scrambler_sequence

    seq = 1.0 - 2.0 * scrambler_sequence(127, seed=0x7F).astype(np.float64)
    return np.resize(seq, n)


def assemble_symbol(data_symbols: np.ndarray,
                    pilot_polarity: float | np.ndarray) -> np.ndarray:
    """Build time-domain OFDM symbols (without CP) from 48 data points each.

    ``data_symbols`` is ``(..., 48)``: leading axes are a stack of
    symbols, transformed in one IFFT, with ``pilot_polarity`` broadcasting
    over them (one polarity per symbol, or one for all).  Each row equals
    its own single-symbol call bit for bit.
    """
    data_symbols = np.asarray(data_symbols, dtype=np.complex128)
    if data_symbols.shape[-1:] != (len(_DATA_FFT_BINS),):
        raise ValueError(
            f"expected 48 data symbols per row, got shape "
            f"{data_symbols.shape}")
    spec = np.zeros(data_symbols.shape[:-1] + (FFT_SIZE,),
                    dtype=np.complex128)
    spec[..., _DATA_FFT_BINS] = data_symbols
    spec[..., _PILOT_FFT_BINS] = \
        PILOT_VALUES * np.asarray(pilot_polarity)[..., np.newaxis]
    return np.fft.ifft(spec, axis=-1) * FFT_SIZE / np.sqrt(52.0)


def disassemble_symbol(time_symbol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """FFT one 64-sample symbol and split into (data, pilot) subcarriers."""
    time_symbol = np.asarray(time_symbol, dtype=np.complex128)
    if time_symbol.size != FFT_SIZE:
        raise ValueError(f"expected {FFT_SIZE} samples, got {time_symbol.size}")
    spec = np.fft.fft(time_symbol) / FFT_SIZE * np.sqrt(52.0)
    return spec[_DATA_FFT_BINS], spec[_PILOT_FFT_BINS]


def add_cyclic_prefix(symbol: np.ndarray) -> np.ndarray:
    """Prepend the last CP_LENGTH samples of each symbol (last axis)."""
    return np.concatenate([symbol[..., -CP_LENGTH:], symbol], axis=-1)


def remove_cyclic_prefix(symbol_with_cp: np.ndarray) -> np.ndarray:
    """Drop the cyclic prefix from an 80-sample symbol."""
    return np.asarray(symbol_with_cp)[CP_LENGTH:]
