"""Thermal noise: floor computation and AWGN generation.

All simulator powers are in "dBm-referenced" units: a sample stream with
mean power ``p`` represents ``watt_to_dbm(p * 1e-3)``... more precisely we
carry powers directly in milliwatt units so that ``power(x)`` in mW maps
to dBm via ``10 log10``.
"""

from __future__ import annotations

import numpy as np

from ..constants import (
    BOLTZMANN,
    NOISE_FIGURE_DB,
    ROOM_TEMPERATURE_K,
    SAMPLE_RATE,
)

__all__ = ["thermal_noise_dbm", "awgn", "complex_normal",
           "noise_power_mw"]


def thermal_noise_dbm(bandwidth_hz: float = SAMPLE_RATE,
                      noise_figure_db: float = NOISE_FIGURE_DB) -> float:
    """Receiver noise floor kTB + NF in dBm."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    ktb_w = BOLTZMANN * ROOM_TEMPERATURE_K * bandwidth_hz
    return float(10.0 * np.log10(ktb_w / 1e-3) + noise_figure_db)


def noise_power_mw(bandwidth_hz: float = SAMPLE_RATE,
                   noise_figure_db: float = NOISE_FIGURE_DB) -> float:
    """Noise floor in linear milliwatts."""
    return 10.0 ** (thermal_noise_dbm(bandwidth_hz, noise_figure_db) / 10.0)


def complex_normal(shape: int | tuple[int, ...], scale: float,
                   rng: np.random.Generator, *,
                   out: np.ndarray | None = None) -> np.ndarray:
    """``scale * (N + 1j * N')`` for standard normal arrays ``N``, ``N'``.

    Bit for bit the expression ``scale * (rng.standard_normal(shape) +
    1j * rng.standard_normal(shape))`` for any non-zero ``scale`` (a zero
    scale gives zeros that may differ in sign), and it leaves ``rng`` in
    the same state: the real parts are the first ``size`` normals of one
    ``2 * size`` draw, the imaginary parts the rest, each scaled straight
    into its float64 plane of the result, with no complex temporaries.

    ``out`` is where to write: a C-contiguous complex128 array of
    ``shape`` the caller owns, e.g. one row of a batch stack.
    """
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    elif (out.dtype != np.complex128 or not out.flags.c_contiguous
          or out.shape != shape):
        raise ValueError(
            f"out must be a C-contiguous complex128 array of shape {shape}, "
            f"got {out.dtype} {out.shape} "
            f"(contiguous={out.flags.c_contiguous})")
    size = out.size
    z = rng.standard_normal(2 * size)
    planes = out.reshape(-1).view(np.float64).reshape(size, 2)
    np.multiply(z[:size], scale, out=planes[:, 0])
    np.multiply(z[size:], scale, out=planes[:, 1])
    return out


def awgn(n: int | tuple[int, ...], power_mw: float,
         rng: np.random.Generator | None = None, *,
         out: np.ndarray | None = None) -> np.ndarray:
    """Complex white Gaussian noise with the given mean power (mW units).

    ``n`` may be a shape tuple, e.g. ``(batch, n_samples)``, for one
    draw covering a whole stack of captures.  Note the sample stream
    then differs from ``batch`` successive scalar draws (the generator
    is consumed row-major in one call), so batch producers that promise
    bit-identity with a scalar loop must draw per element instead --
    into their own rows with ``out=`` (see :func:`complex_normal`).
    """
    if power_mw < 0:
        raise ValueError("noise power must be non-negative")
    rng = rng or np.random.default_rng()
    return complex_normal(n, np.sqrt(power_mw / 2.0), rng, out=out)
