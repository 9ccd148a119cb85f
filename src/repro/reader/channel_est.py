"""Combined forward-backward channel estimation (paper Sec. 4.3.1).

During the tag preamble the reflection phase is a known PN chip sequence
(constant within each 1 us chip).  Away from chip boundaries the received
tag signal is ``y[n] = p[n] * (x * h_fb)[n]`` because the chip phase is
constant over the channel's delay spread; multiplying by ``conj(p[n])``
(chips are +-1) reduces estimation of ``h_fb = h_f * h_b`` to a standard
least-squares problem on the known excitation ``x``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import SAMPLES_PER_US
from ..dsp.fastpath import stacked_convolve
from ..tag.tag import PREAMBLE_CHIP_US, tag_preamble_phases
from ..telemetry import probe_rows
from .cancellation import convolution_matrix, ls_channel_estimate

__all__ = ["ChannelEstimate", "estimate_combined_channel",
           "estimate_combined_channel_group", "preamble_condition_number",
           "probe_estimates"]

GRAM_MAX_CONDITION = 1e4
"""Largest condition number :func:`preamble_condition_number` takes from
the Gram's eigenvalues (their relative error is ~eps times its square)."""

DEFAULT_N_TAPS = 8
"""Taps for h_fb: indoor delay spreads of 50-80 ns are 1-2 samples per
link, so the combined channel is comfortably inside 8 taps (400 ns)."""


@dataclass(frozen=True)
class ChannelEstimate:
    """The estimated combined channel and its quality diagnostics."""

    h_fb: np.ndarray
    residual_power: float
    n_rows: int

    @property
    def gain(self) -> float:
        """Total power gain of the estimate."""
        return float(np.sum(np.abs(self.h_fb) ** 2))

    def snr_estimate_db(self) -> float:
        """Implied per-sample backscatter SNR from the LS residual."""
        if self.residual_power <= 0:
            return float("inf")
        return float(10.0 * np.log10(
            max(self.gain, 1e-30) / self.residual_power
        ))


def _valid_preamble_rows(preamble_start: int, n_chips: int,
                         guard: int) -> np.ndarray:
    """Row indices inside chips, skipping ``guard`` samples per boundary."""
    sps_chip = int(PREAMBLE_CHIP_US * SAMPLES_PER_US)
    return (preamble_start + np.arange(n_chips)[:, None] * sps_chip
            + np.arange(guard, sps_chip)[None, :]).ravel()


def preamble_condition_number(
    x: np.ndarray,
    preamble_start: int,
    preamble_us: float,
    *,
    n_taps: int = DEFAULT_N_TAPS,
) -> float:
    """2-norm condition number of the LS design matrix at one timing.

    The design matrix depends only on the excitation ``x`` and the row
    selection, not on the received signal, so this quantifies how well
    the excitation can identify ``h_fb``: wideband WiFi sits near 1-10,
    narrowband excitations (BLE) reach into the thousands and make the
    estimate noise-dominated.  Computed as a telemetry probe (see
    :func:`probe_estimates`) from the ``n_taps x n_taps`` Gram
    ``A^H A``: its extreme eigenvalues are the squared extreme singular
    values of ``A``.  Squaring costs the Gram half the precision, so a
    design worse than :data:`GRAM_MAX_CONDITION` (a narrowband
    excitation) is measured by the SVD of ``A`` instead.
    """
    x = np.asarray(x, dtype=np.complex128)
    n_chips = int(round(preamble_us / PREAMBLE_CHIP_US))
    rows = _valid_preamble_rows(preamble_start, n_chips, n_taps)
    rows = rows[rows < x.size]
    if rows.size < n_taps:
        return float("inf")
    a = convolution_matrix(x, n_taps, rows)
    eig = np.linalg.eigvalsh(a.conj().T @ a)
    if eig[0] > 0 and eig[-1] <= GRAM_MAX_CONDITION ** 2 * eig[0]:
        return float(np.sqrt(eig[-1] / eig[0]))
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[0] / s[-1]) if s[-1] > 0 else float("inf")


def estimate_combined_channel(
    x: np.ndarray,
    y_clean: np.ndarray,
    preamble_start: int,
    preamble_us: float,
    *,
    n_taps: int = DEFAULT_N_TAPS,
    preamble_seed: int = 0x35,
) -> ChannelEstimate:
    """LS-estimate ``h_fb`` from the tag preamble region.

    :func:`estimate_combined_channel_group` on a stack of one.

    Parameters
    ----------
    x:
        Known transmitted excitation (full packet, 20 Msps).
    y_clean:
        Received signal after self-interference cancellation.
    preamble_start:
        Sample index where the tag preamble begins.
    preamble_us:
        Preamble duration (32 or 96 us).
    """
    y_clean = np.asarray(y_clean, dtype=np.complex128)
    return estimate_combined_channel_group(
        x, y_clean[None], preamble_start, preamble_us,
        n_taps=n_taps, preamble_seed=preamble_seed)[0]


def estimate_combined_channel_group(
    x: np.ndarray,
    y_stack: np.ndarray,
    preamble_start: int,
    preamble_us: float,
    *,
    n_taps: int = DEFAULT_N_TAPS,
    preamble_seed: int = 0x35,
) -> list[ChannelEstimate]:
    """LS-estimate ``h_fb`` for a stack of captures sharing one timing.

    ``y_stack`` is ``(n_group, n)`` -- post-cancellation captures that
    all won the same preamble start against the same excitation ``x``
    (one sync group of the reader pipeline).  The excitation-side work
    -- chip derotation geometry, convolution matrix, Gram factorisation
    -- is done once; every row is solved as one multi-RHS system, and a
    stack of one is bit for bit the single-capture fit.
    """
    x = np.asarray(x, dtype=np.complex128)
    y_stack = np.asarray(y_stack, dtype=np.complex128)
    if y_stack.ndim != 2 or y_stack.shape[1] != x.size:
        raise ValueError("y_stack must be (n_group, len(x))")
    if preamble_start < 0:
        raise ValueError("preamble starts before the capture")
    preamble = tag_preamble_phases(preamble_us, seed=preamble_seed)
    n_chips = int(round(preamble_us / PREAMBLE_CHIP_US))
    guard = n_taps  # skip the channel transient after each phase flip

    rows = _valid_preamble_rows(preamble_start, n_chips, guard)
    rows = rows[rows < y_stack.shape[1]]
    if rows.size < 4 * n_taps:
        raise ValueError("preamble too short for channel estimation")

    # Only the preamble span matters: rows plus the n_taps - 1 samples
    # of excitation history the first row reaches back to.  Rotating the
    # received rows by the known chip phases makes the target a
    # time-invariant convolution of x; every row's convolution output is
    # the same dot product as over the whole capture.
    lo = max(int(rows[0]) - (n_taps - 1), 0)
    hi = int(rows[-1]) + 1
    x_span = x[lo:hi]
    local = rows - lo
    y_derot = np.zeros((y_stack.shape[0], hi - lo), dtype=np.complex128)
    y_derot[:, local] = y_stack[:, rows] \
        * np.conj(preamble[rows - preamble_start])

    h = ls_channel_estimate(x_span, y_derot, n_taps, rows=local)
    resid = y_derot[:, local] - stacked_convolve(x_span, h)[:, local]
    residual_power = np.mean(np.abs(resid) ** 2, axis=1)
    return [
        ChannelEstimate(h_fb=h[j], residual_power=float(residual_power[j]),
                        n_rows=int(rows.size))
        for j in range(y_stack.shape[0])
    ]


def probe_estimates(sp, ests: list[ChannelEstimate], x: np.ndarray,
                    preamble_start: int, preamble_us: float, *,
                    n_taps: int) -> None:
    """The ``channel_est`` span's probes for estimates sharing a timing.

    Includes the design matrix's condition number (an eigen-solve of its
    ``n_taps x n_taps`` Gram), so callers only probe when a collector is
    listening.
    """
    probe_rows(sp, "gain_db",
               [10.0 * np.log10(max(e.gain, 1e-30)) for e in ests])
    probe_rows(sp, "residual_power", [e.residual_power for e in ests])
    probe_rows(sp, "snr_estimate_db", [e.snr_estimate_db() for e in ests])
    sp.probe("n_rows", ests[0].n_rows)
    sp.probe("n_taps", int(ests[0].h_fb.size))
    sp.probe("condition_number", preamble_condition_number(
        x, preamble_start, preamble_us, n_taps=n_taps))
