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
from ..dsp.fastpath import fast_convolve
from ..tag.tag import PREAMBLE_CHIP_US, tag_preamble_phases
from .cancellation import DEFAULT_RIDGE, ls_channel_estimate

__all__ = ["ChannelEstimate", "estimate_combined_channel",
           "estimate_combined_channel_group", "preamble_condition_number"]

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
    rows = []
    for c in range(n_chips):
        chip_start = preamble_start + c * sps_chip
        rows.append(np.arange(chip_start + guard, chip_start + sps_chip))
    return np.concatenate(rows)


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
    estimate noise-dominated.  Computed on demand as a telemetry probe
    -- it costs an extra SVD, so callers gate it on
    ``get_collector().enabled``.
    """
    from .cancellation import convolution_matrix

    x = np.asarray(x, dtype=np.complex128)
    n_chips = int(round(preamble_us / PREAMBLE_CHIP_US))
    rows = _valid_preamble_rows(preamble_start, n_chips, n_taps)
    rows = rows[rows < x.size]
    if rows.size < n_taps:
        return float("inf")
    a = convolution_matrix(x, n_taps, rows)
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[-1] <= 0:
        return float("inf")
    return float(s[0] / s[-1])


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
    x = np.asarray(x, dtype=np.complex128)
    y_clean = np.asarray(y_clean, dtype=np.complex128)
    if preamble_start < 0:
        raise ValueError("preamble starts before the capture")
    preamble = tag_preamble_phases(preamble_us, seed=preamble_seed)
    n_chips = int(round(preamble_us / PREAMBLE_CHIP_US))
    guard = n_taps  # skip the channel transient after each phase flip

    rows = _valid_preamble_rows(preamble_start, n_chips, guard)
    rows = rows[rows < y_clean.size]
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
    y_derot = np.zeros(hi - lo, dtype=np.complex128)
    y_derot[local] = y_clean[rows] * np.conj(preamble[rows - preamble_start])

    h = ls_channel_estimate(x_span, y_derot, n_taps, rows=local)

    recon = fast_convolve(x_span, h)
    resid = y_derot[local] - recon[local]
    residual_power = float(np.mean(np.abs(resid) ** 2))
    return ChannelEstimate(h_fb=h, residual_power=residual_power,
                           n_rows=int(rows.size))


def estimate_combined_channel_group(
    x: np.ndarray,
    y_stack: np.ndarray,
    preamble_start: int,
    preamble_us: float,
    *,
    n_taps: int = DEFAULT_N_TAPS,
    preamble_seed: int = 0x35,
) -> list[ChannelEstimate]:
    """:func:`estimate_combined_channel` for a stack sharing one timing.

    ``y_stack`` is ``(n_group, n)`` -- post-cancellation captures that
    all won the same preamble start against the same excitation ``x``
    (a batched decoder's per-offset group).  The excitation-side work --
    chip derotation geometry, convolution matrix, Gram factorisation --
    is done once; every element is solved as one multi-RHS system and
    matches its scalar call to float64 rounding.

    On a singular Gram each element runs the scalar estimator instead,
    preserving the scalar path's exact behaviour.
    """
    from .cancellation import convolution_matrix

    x = np.asarray(x, dtype=np.complex128)
    y_stack = np.asarray(y_stack, dtype=np.complex128)
    if y_stack.ndim != 2 or y_stack.shape[1] != x.size:
        raise ValueError("y_stack must be (n_group, len(x))")
    if preamble_start < 0:
        raise ValueError("preamble starts before the capture")
    n = y_stack.shape[1]

    def _scalar_fallback() -> list[ChannelEstimate]:
        return [
            estimate_combined_channel(
                x, y_stack[j], preamble_start, preamble_us,
                n_taps=n_taps, preamble_seed=preamble_seed)
            for j in range(y_stack.shape[0])
        ]

    preamble = tag_preamble_phases(preamble_us, seed=preamble_seed)
    n_chips = int(round(preamble_us / PREAMBLE_CHIP_US))
    rows = _valid_preamble_rows(preamble_start, n_chips, n_taps)
    rows = rows[rows < n]
    if rows.size < 4 * n_taps:
        raise ValueError("preamble too short for channel estimation")
    phase = preamble[rows - preamble_start]
    yd = y_stack[:, rows] * np.conj(phase)[None, :]
    a = convolution_matrix(x, n_taps, rows)
    ac = a.conj().T
    g = ac @ a
    col_energy = float(np.mean(g.diagonal().real))
    g.flat[:: n_taps + 1] += DEFAULT_RIDGE * max(col_energy, 1e-300)
    try:
        h = np.linalg.solve(g, ac @ yd.T)                # (nt, n_group)
    except np.linalg.LinAlgError:
        return _scalar_fallback()
    resid = yd - (a @ h).T
    residual_power = np.mean(np.abs(resid) ** 2, axis=1)
    return [
        ChannelEstimate(h_fb=h[:, j].copy(),
                        residual_power=float(residual_power[j]),
                        n_rows=int(rows.size))
        for j in range(y_stack.shape[0])
    ]
