"""IEEE 802.11 OFDM block interleaver (17.3.5.7).

Operates per OFDM symbol on ``n_cbps`` coded bits with ``n_bpsc`` bits per
subcarrier.  The two-permutation structure spreads adjacent coded bits
across subcarriers and alternates significance within a constellation
point.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["interleave", "deinterleave", "interleave_indices"]


@lru_cache(maxsize=None)
def interleave_indices(n_cbps: int, n_bpsc: int) -> np.ndarray:
    """Return ``idx`` such that ``out[idx[k]] = in[k]``.

    The permutation depends only on ``(n_cbps, n_bpsc)``, so results are
    cached (and returned read-only) -- the per-symbol interleave in the
    WiFi PHY becomes a single fancy-index.  The standard rates are primed
    below at import.
    """
    if n_cbps % 48:
        raise ValueError("n_cbps must be a multiple of 48")
    if n_bpsc * 48 != n_cbps:
        raise ValueError("n_cbps must equal 48 * n_bpsc")
    s = max(n_bpsc // 2, 1)
    k = np.arange(n_cbps)
    i = (n_cbps // 16) * (k % 16) + k // 16
    j = s * (i // s) + (i + n_cbps - (16 * i) // n_cbps) % s
    j.setflags(write=False)
    return j


for _n_bpsc in (1, 2, 4, 6):  # BPSK, QPSK, 16-QAM, 64-QAM
    interleave_indices(48 * _n_bpsc, _n_bpsc)
del _n_bpsc


def interleave(bits: np.ndarray, n_bpsc: int) -> np.ndarray:
    """Interleave OFDM symbols' worth of coded bits (last axis; leading
    axes are a stack of symbols)."""
    bits = np.asarray(bits)
    idx = interleave_indices(bits.shape[-1], n_bpsc)
    out = np.empty_like(bits)
    out[..., idx] = bits
    return out


def deinterleave(bits: np.ndarray, n_bpsc: int) -> np.ndarray:
    """Inverse of :func:`interleave` (works on bits or soft values)."""
    bits = np.asarray(bits)
    idx = interleave_indices(bits.size, n_bpsc)
    return bits[idx]
