"""Unit conversions and power helpers shared across the stack."""

from __future__ import annotations

import numpy as np

__all__ = [
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watt",
    "watt_to_dbm",
    "power",
    "row_power",
    "rms",
    "normalize_power",
    "snr_db",
    "evm_to_snr_db",
    "wavelength",
]


def db_to_linear(db: float | np.ndarray) -> float | np.ndarray:
    """Convert a power ratio in dB to linear scale."""
    return 10.0 ** (np.asarray(db, dtype=np.float64) / 10.0)


def linear_to_db(linear: float | np.ndarray) -> float | np.ndarray:
    """Convert a linear power ratio to dB.  Zero maps to ``-inf``."""
    lin = np.asarray(linear, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(lin)


def dbm_to_watt(dbm: float) -> float:
    """Convert dBm to watts."""
    return 1e-3 * 10.0 ** (dbm / 10.0)


def watt_to_dbm(watt: float) -> float:
    """Convert watts to dBm."""
    if watt <= 0:
        return float("-inf")
    return 10.0 * np.log10(watt / 1e-3)


def power(x: np.ndarray) -> float:
    """Mean power of a complex sample vector."""
    x = np.asarray(x)
    if x.size == 0:
        return 0.0
    return float(np.mean(np.abs(x) ** 2))


def row_power(x: np.ndarray) -> np.ndarray:
    """:func:`power` of each row (last axis) of a stack, bit for bit.

    The squared magnitudes are laid out row-major, so each row is summed
    contiguously -- pairwise, like its own 1-D mean -- whatever the
    layout of ``x`` (a fancy-indexed column selection is column-major).
    """
    x = np.asarray(x)
    n = x.shape[-1]
    if n == 0:
        return np.zeros(x.shape[:-1])
    # np.mean's own arithmetic: the sum, then a true division by n.
    return np.add.reduce(np.abs(x, order="C") ** 2, axis=-1) / n


def rms(x: np.ndarray) -> float:
    """Root-mean-square amplitude."""
    return float(np.sqrt(power(x)))


def normalize_power(x: np.ndarray, target_power: float = 1.0) -> np.ndarray:
    """Scale ``x`` to the requested mean power."""
    p = power(x)
    if p == 0:
        return np.asarray(x).copy()
    return np.asarray(x) * np.sqrt(target_power / p)


def snr_db(signal: np.ndarray, noise: np.ndarray) -> float:
    """SNR between a clean signal vector and a noise/error vector."""
    pn = power(noise)
    if pn == 0:
        return float("inf")
    return float(linear_to_db(power(signal) / pn))


def evm_to_snr_db(evm_rms: float) -> float:
    """Map RMS error-vector magnitude (linear fraction) to SNR in dB."""
    if evm_rms <= 0:
        return float("inf")
    return float(-20.0 * np.log10(evm_rms))


def wavelength(freq_hz: float) -> float:
    """Free-space wavelength for a carrier frequency."""
    from ..constants import SPEED_OF_LIGHT

    if freq_hz <= 0:
        raise ValueError("frequency must be positive")
    return SPEED_OF_LIGHT / freq_hz
