"""RF-chain impairments of the reader hardware.

These are the effects that make self-interference cancellation imperfect
in practice (paper Fig. 11a: ~2.3 dB median SNR degradation):

* a memoryless cubic PA nonlinearity that a *linear* digital canceller
  cannot model,
* finite ADC dynamic range (why analog cancellation must come first),
* the circulator's finite TX->RX isolation.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from ..constants import ADC_BITS, CIRCULATOR_ISOLATION_DB
from ..utils.conversions import db_to_linear, power, row_power
from .noise import complex_normal

__all__ = [
    "PaNonlinearity",
    "Adc",
    "ar1_drift_params",
    "ar1_filter",
    "circulator_leakage_gain",
    "coherence_impairment",
    "draw_ar1_innovations",
    "iq_imbalance",
]


@dataclass(frozen=True)
class PaNonlinearity:
    """Memoryless third-order PA model ``y = x + a3 x |x|^2``.

    ``ip3_backoff_db`` sets how far the distortion sits below the linear
    term at the operating point: distortion power ~= signal power -
    2*backoff (per the classic two-tone relation).
    """

    ip3_backoff_db: float = 30.0

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Distort a transmit waveform."""
        x = np.asarray(x, dtype=np.complex128)
        p = power(x)
        if p == 0:
            return x.copy()
        # a3 scaled so mean distortion power = p * 10^(-backoff/10).
        mean_cube = float(np.mean(np.abs(x) ** 6))
        if mean_cube == 0:
            return x.copy()
        a3 = np.sqrt(p * db_to_linear(-self.ip3_backoff_db) / mean_cube)
        return x + a3 * x * np.abs(x) ** 2

    def distortion_only(self, x: np.ndarray) -> np.ndarray:
        """The nonlinear residue alone (for analysis/tests)."""
        return self.apply(x) - np.asarray(x, dtype=np.complex128)


_AGC_HEADROOM_DB = 9.0
"""How far the AGC sets the ADC's full scale above the signal RMS."""


@dataclass(frozen=True)
class Adc:
    """Uniform quantiser with a fixed full-scale and resolution.

    Saturation models the paper's point that without analog cancellation
    the self-interference exceeds the receiver's dynamic range and the
    backscatter signal drowns in quantisation/clipping error.
    """

    bits: int = ADC_BITS
    full_scale: float = 1.0

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Quantise I and Q independently, clipping at full scale."""
        return self._quantize(np.asarray(x, dtype=np.complex128),
                              self.full_scale)

    def _quantize(self, x: np.ndarray, full_scale) -> np.ndarray:
        """:meth:`quantize` at ``full_scale``: a scalar, or an array that
        broadcasts against ``x.shape + (2,)`` (e.g. one per row).

        I and Q quantise alike, so both run as one pass over the
        ``(..., n, 2)`` float64 view of ``x``, and the samples are
        reassembled in that clip buffer: ``q_i * 0.0`` and ``+ 0.0``
        are what ``q_r + 1j * q_i`` adds to each plane, so the result
        carries the same values and signs of zero.
        """
        if self.bits < 1:
            raise ValueError("ADC needs at least 1 bit")
        levels = 1 << self.bits
        step = 2.0 * full_scale / levels
        iq = np.ascontiguousarray(x).view(np.float64).reshape(x.shape + (2,))
        q = np.clip(iq, -full_scale, full_scale - step)
        q /= step
        np.round(q, out=q)
        q *= step
        q_r, q_i = q[..., 0], q[..., 1]
        q_r += q_i * 0.0
        q_i += 0.0
        return q.view(np.complex128).reshape(x.shape)

    def for_signal(self, x: np.ndarray,
                   headroom_db: float = _AGC_HEADROOM_DB) -> "Adc":
        """An ADC whose full scale sits ``headroom_db`` above signal RMS.

        Mimics an AGC that scales the strongest signal component to fit.
        """
        rms = np.sqrt(power(x))
        if rms == 0:
            return self
        fs = rms * db_to_linear(headroom_db / 2.0) * np.sqrt(2.0)
        return Adc(bits=self.bits, full_scale=float(fs))

    def agc_quantize(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """AGC then quantise each capture along the last axis.

        Leading axes are a stack of captures.  Each row gets the full
        scale :meth:`for_signal` picks from that row alone (computed for
        every row at once), then the whole stack is clipped and rounded
        in one pass, so every row equals
        ``self.for_signal(row).quantize(row)`` bit for bit.  Returns
        ``(quantized, saturated)``; ``saturated`` (leading shape) flags
        rows where some I or Q sample exceeded that row's full scale.
        """
        x = np.ascontiguousarray(x, dtype=np.complex128)
        rms = np.sqrt(row_power(x))
        row_scale = np.where(
            rms == 0, self.full_scale,
            rms * db_to_linear(_AGC_HEADROOM_DB / 2.0) * np.sqrt(2.0))
        full_scale = row_scale[..., None, None]
        # Some |I| or |Q| above the row's scale: the largest or the
        # smallest of its interleaved I/Q planes lies outside the scale.
        iq = x.view(np.float64).reshape(x.shape + (2,))
        saturated = ((np.max(iq, axis=(-2, -1)) > row_scale)
                     | (np.min(iq, axis=(-2, -1)) < -row_scale))
        return self._quantize(x, full_scale), saturated


def circulator_leakage_gain(isolation_db: float = CIRCULATOR_ISOLATION_DB) -> complex:
    """Complex gain of the direct TX->RX leakage path."""
    return complex(np.sqrt(db_to_linear(-isolation_db)))


def carrier_frequency_offset(x: np.ndarray, cfo_hz: float,
                             sample_rate: float = 20e6,
                             phase0: float = 0.0) -> np.ndarray:
    """Rotate a baseband signal by a carrier frequency offset.

    Models the oscillator mismatch between two radios (e.g. the AP and a
    WiFi client; 802.11 allows +-20 ppm = +-48 kHz at 2.4 GHz).  The
    BackFi reader itself is immune -- it receives with the same LO it
    transmits with -- which is why the backscatter path needs no CFO
    correction (a structural advantage of the design).
    """
    x = np.asarray(x, dtype=np.complex128)
    if cfo_hz == 0.0 or x.size == 0:
        return x.copy()
    n = np.arange(x.size)
    return x * np.exp(1j * (2.0 * np.pi * cfo_hz / sample_rate * n
                            + phase0))


def ar1_drift_params(rms: float,
                     coherence_samples: float) -> tuple[float, float]:
    """``(rho, innovation_scale)`` of the coherence AR(1) process.

    Shared by :func:`coherence_impairment` and the batched session
    synthesizer so both derive the identical process from the same
    ``(rms, coherence)`` pair.
    """
    rho = float(np.exp(-1.0 / max(coherence_samples, 1.0)))
    innov_scale = rms * np.sqrt((1.0 - rho ** 2) / 2.0)
    return rho, innov_scale


_SIGTOOLS = "scipy.signal._sigtools"


def _linear_filter():
    """SciPy's compiled IIR kernel, ``_linear_filter`` of
    ``scipy.signal._sigtools``, loaded without running the ``scipy`` or
    ``scipy.signal`` package ``__init__``, which loads most of SciPy for
    this one recursion (``docs/PERFORMANCE.md`` has the cost).

    The extension is found in SciPy's directory, which ``find_spec``
    locates without importing anything, and is registered in
    ``sys.modules`` under its own name: that loads it once per process,
    and a later ``import scipy.signal`` reuses it.
    """
    module = sys.modules.get(_SIGTOOLS)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        spec = None if scipy is None else importlib.machinery.FileFinder(
            os.path.join(scipy.submodule_search_locations[0], "signal"),
            (importlib.machinery.ExtensionFileLoader,
             importlib.machinery.EXTENSION_SUFFIXES),
        ).find_spec(_SIGTOOLS)
        if spec is None:
            # Without SciPy, version() raises its own ImportError.
            from importlib.metadata import version
            raise ImportError(
                f"SciPy {version('scipy')} has no extension module "
                f"{_SIGTOOLS} (SciPy >= 1.8 ships it)", name=_SIGTOOLS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_SIGTOOLS] = module
    return module._linear_filter


def ar1_filter(w: np.ndarray, rho: float, prev) -> np.ndarray:
    """The AR(1) recursion ``y[i] = w[i] + rho * y[i-1]``, ``y[-1] = prev``.

    Stacked innovations ``(..., n)`` recurse along the last axis with one
    initial state per row (``prev`` broadcasting over the batch axes), so
    the batched session synthesizer runs every element's drift process
    in one call, each row bit-identical to its own scalar call.

    The recursion is SciPy's compiled direct-form-II-transposed kernel
    called as ``scipy.signal.lfilter([1.0], [1.0, -rho], ...)`` calls it
    (the same coefficient arrays, axis and initial state), so the output
    is ``lfilter``'s bit for bit without importing ``scipy.signal``.
    """
    linear_filter = _linear_filter()
    w = np.asarray(w)
    rho = float(rho)
    b, a = np.array([1.0]), np.array([1.0, -rho])
    zi = np.broadcast_to(
        np.asarray(rho * np.asarray(prev), dtype=np.result_type(w, prev)),
        w.shape[:-1],
    )[..., np.newaxis]
    if w.dtype != np.complex128:
        y, _ = linear_filter(b, a, w, -1, zi.copy())
        return y
    # A real rho never mixes real and imaginary parts, so filter the two
    # float64 planes of the innovations' own buffer (the last axis of its
    # (..., n, 2) view): per sample the same add and multiply as the
    # complex recursion, bit for bit, without its complex arithmetic.
    w = np.ascontiguousarray(w)
    planes = w.view(np.float64).reshape(w.shape + (2,))
    zi_planes = np.stack([zi.real, zi.imag], axis=-1)
    y, _ = linear_filter(b, a, planes, -2, zi_planes)
    return np.ascontiguousarray(y).view(np.complex128).reshape(w.shape)


def draw_ar1_innovations(
    n: int, rms: float, innov_scale: float, rng: np.random.Generator, *,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, complex]:
    """Draw one element's ``(innovations, initial state)`` pair.

    Exactly the draws :func:`coherence_impairment` makes, in the same
    generator order, so a batch producer can interleave these with its
    other per-element draws and stay bit-identical to the scalar loop;
    ``out=`` takes the innovations row it owns (see
    :func:`~repro.channel.noise.complex_normal`).
    """
    w = complex_normal(n, innov_scale, rng, out=out)
    prev = rms / np.sqrt(2.0) * (
        rng.standard_normal() + 1j * rng.standard_normal()
    )
    return w, prev


def coherence_impairment(n: int, rms: float, coherence_samples: float,
                         rng: np.random.Generator | None = None) -> np.ndarray:
    """Multiplicative error process ``g[n] = 1 + delta[n]``.

    ``delta`` is a complex AR(1) (Ornstein-Uhlenbeck-like) process with
    the given RMS and coherence length.  Models tag clock jitter,
    modulator switching transients and channel drift over a packet --
    the effects that cap the backscatter SNR independently of distance
    (the paper's near-range throughput plateau).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if rms < 0:
        raise ValueError("rms must be non-negative")
    rng = rng or np.random.default_rng()
    if n == 0 or rms == 0:
        return np.ones(n, dtype=np.complex128)
    rho, innov_scale = ar1_drift_params(rms, coherence_samples)
    w, prev = draw_ar1_innovations(n, rms, innov_scale, rng)
    return 1.0 + ar1_filter(w, rho, prev)


def iq_imbalance(x: np.ndarray, gain_db: float = 0.0,
                 phase_deg: float = 0.0) -> np.ndarray:
    """Apply TX IQ imbalance (off by default; hook for ablations)."""
    x = np.asarray(x, dtype=np.complex128)
    g = db_to_linear(gain_db / 2.0)
    phi = np.deg2rad(phase_deg)
    alpha = 0.5 * (g * np.exp(1j * phi) + 1.0 / g * np.exp(-1j * phi))
    beta = 0.5 * (g * np.exp(1j * phi) - 1.0 / g * np.exp(-1j * phi))
    return alpha * x + beta * np.conj(x)
