"""Chip-comb normal-equation solver for the fine-timing search.

The reference form of :func:`repro.reader.sync.find_tag_timing` (kept
as the test oracle in ``tests/dsp_oracle.py``) re-runs a full
least-squares fit (:func:`estimate_combined_channel`) at every candidate
offset -- dozens of independent solves per frame.

This module removes the redundancy.  For a candidate preamble start
``s`` the LS problem is ``min_h ||y_s - A_s h||``: row ``r`` of ``A_s``
is the excitation window ``x[r - k]`` (``k < n_taps``) and ``y_s[r]`` is
the received sample derotated by the chip that covers it.  The rows of
``s`` are ``r = s + c * P + j`` for every chip ``c < C`` and in-chip
offset ``n_taps <= j < P`` (``P`` samples per chip; the first
``n_taps`` samples of a chip are the channel transient after a phase
flip).  Every per-candidate quantity is therefore a sum over a *comb*
of rows spaced ``P`` apart:

* ``A_s^H A_s`` sums the Gram-pair products ``conj(x[r-k]) x[r-l]``,
* ``A_s^H y_s`` sums ``conj(x[r-k]) y[r]`` weighted by the chip sign,
* ``||y_s||^2`` sums ``|y[r]|^2``.

:class:`BatchPreambleSolver` forms those per-row products once over the
rows the declared start window can reach -- for the Gram only the
``n_taps`` lag products ``conj(x[m - d]) x[m]``, since entry ``(k, l)``
is the lag ``k - l`` product at ``m = r - l`` -- sums each across the
``C`` chips (the "comb": a band-matrix contraction over ``P``-row
blocks, with the chip signs as weights for the right-hand side), then
sums ``P - n_taps`` consecutive comb rows into one table row per
candidate start.  An evaluation sweep gathers its candidates' rows --
``O(T^2 S)`` for ``S`` candidates and ``T`` taps -- and solves every
``T x T`` ridge-regularised system in one batched call.  The LS
residual falls out algebraically (``||y||^2 - Re(b^H h) - lam^2
||h||^2``) without reconstructing the packet.

Every table entry is a direct sum of the reference estimator's own
products -- no running sums are differenced -- so the metric matches
:func:`estimate_combined_channel` up to summation order (the residual
identity amplifies cancellation error, which is why running sums are
avoided).  Rows past the capture end are never summed, so the fit drops
them exactly as the reference estimator does.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..constants import SAMPLES_PER_US
from ..tag.tag import PREAMBLE_CHIP_US
from ..utils.bits import barker_like_sequence
from .cancellation import DEFAULT_RIDGE

__all__ = ["BatchPreambleSolver"]


@lru_cache(maxsize=16)
def _comb_band(n_chips: int, seed: int | None) -> np.ndarray:
    """``band[q, q + c] = weights[c]`` for unit weights (``seed=None``)
    or the chip signs of ``seed``; built once per preamble (read-only)."""
    weights = np.ones(n_chips) if seed is None \
        else barker_like_sequence(n_chips, seed=seed)
    q = np.arange(n_chips)
    band = np.zeros((n_chips, 2 * n_chips - 1))
    band[q[:, None], q[:, None] + q[None, :]] = weights
    band.setflags(write=False)
    return band


def _chip_comb(rows: np.ndarray, band: np.ndarray, n_blocks: int,
               block: int) -> np.ndarray:
    """``out[u] = sum_c weights[c] * rows[u + c * block]``.

    ``rows`` holds ``(n_blocks + C - 1) * block`` rows (C = number of
    weights, ``band`` = :func:`_comb_band` of them) of a contiguous
    table; returns ``n_blocks * block`` rows.  Row ``u = q * block + p``
    only ever meets rows of the same in-block offset ``p``, so viewing
    the table as blocks turns the comb into a band-matrix product over
    the block axis (one BLAS call per chunk of ``C`` output blocks, so
    the band never outgrows ``C x (2C - 1)``).  Complex tables are
    contracted through their float64 view.
    """
    n_chips = band.shape[0]
    tail = rows.shape[1:]
    flat = rows.reshape(n_blocks + n_chips - 1, -1)
    if np.iscomplexobj(flat):
        flat = flat.view(np.float64)
    out = np.empty((n_blocks, flat.shape[1]))
    for q0 in range(0, n_blocks, n_chips):
        m = min(n_chips, n_blocks - q0)
        np.matmul(band[:m, : m + n_chips - 1],
                  flat[q0: q0 + m + n_chips - 1], out=out[q0: q0 + m])
    if np.iscomplexobj(rows):
        out = out.view(np.complex128)
    return out.reshape((n_blocks * block,) + tail)


def _window_sum(table: np.ndarray, width: int, n_out: int) -> np.ndarray:
    """``out[i] = sum_{m < width} table[i + m]`` for ``i < n_out``."""
    out = table[:n_out].copy()
    for m in range(1, width):
        out += table[m: m + n_out]
    return out


class BatchPreambleSolver:
    """Chip-comb tables for one excitation against a stack of rx.

    ``y_batch`` is ``(B, len(x))``; a single capture is a stack of one.
    Everything that depends only on ``x`` -- every candidate's Gram
    matrix and its ridge -- is built once and shared by the batch; the
    right-hand sides and received energies carry the batch axis, and one
    stacked multi-RHS solve scores every (candidate, element) pair.
    The comb bands depend on neither and are cached per preamble.

    Tables cover the candidate starts in ``start_window`` (inclusive;
    default: the whole capture).  Feasibility mirrors
    :func:`estimate_combined_channel` exactly: a candidate is infeasible
    when it starts before the capture or keeps fewer than ``4 * n_taps``
    in-chip rows before the capture end.
    """

    def __init__(self, x: np.ndarray, y_batch: np.ndarray,
                 preamble_us: float, *, n_taps: int,
                 preamble_seed: int = 0x35,
                 start_window: tuple[int, int] | None = None):
        x = np.asarray(x, dtype=np.complex128)
        y = np.asarray(y_batch, dtype=np.complex128)
        if y.ndim != 2 or y.shape[1] != x.size:
            raise ValueError("y_batch must be (n_batch, len(x))")
        n = x.size
        self.n = n
        self.n_batch = y.shape[0]
        self.n_taps = t = n_taps
        sps_chip = int(PREAMBLE_CHIP_US * SAMPLES_PER_US)
        n_chips = int(round(preamble_us / PREAMBLE_CHIP_US))
        if start_window is None:
            start_window = (0, n)
        lo, hi = self._start_lo, self._start_hi = start_window
        n_starts = max(hi - lo + 1, 0)
        width = sps_chip - t            # in-chip rows per chip

        # One row table serves every sum.  Gram entry (k, l) of start s
        # sums the lag product lam_d[m] = conj(x[m - d]) x[m] (d = k - l)
        # over m = r - l for the rows r of s, so one comb over the lags
        # indexed by v = s - l (n_v values) covers every (k, l); the
        # RHS and energy sums of s are the comb entries at v = s.  Row
        # i of the table is sample m0 + i.
        n_v = n_starts + t - 1
        # A filter of sps_chip taps or more leaves no in-chip rows (every
        # start infeasible); its tables still need n_v rows.
        n_blocks = -(-(n_v + max(width, 1) - 1) // sps_chip)
        m0 = lo + 1
        n_tab = (n_blocks + n_chips - 1) * sps_chip
        xs = np.zeros(n_tab + t - 1, dtype=np.complex128)
        a, b = max(m0 - t + 1, 0), min(m0 + n_tab, n)
        if b > a:
            xs[a - (m0 - t + 1): b - (m0 - t + 1)] = x[a:b]
        yr = np.zeros((n_tab, self.n_batch), dtype=np.complex128)
        a = max(m0, 0)
        if b > a:
            yr[a - m0: b - m0] = y[:, a:b].T               # y[m0 + i]

        # conj(x[m0 + i - k]) for every table row i and tap k: one
        # strided view of the conjugated window, read backwards per row.
        xsc = np.conj(xs)
        xc = as_strided(xsc[t - 1:], shape=(n_tab, t),
                        strides=(xsc.strides[0], -xsc.strides[0]))
        lags = xc * xs[t - 1:, None]                        # (rows, t)
        # A lag product at m >= n - t + 1 belongs to a row at or past
        # the capture end for some l; those are added back per (s, l)
        # below, so rows past the end are never summed.
        lags[max(min(n - t + 1 - m0, n_tab), 0):] = 0.0
        rhs = xc[:, :, None] * yr[:, None, :]              # (rows, t, B)
        energy = np.abs(yr) ** 2                            # (rows, B)

        def start_sums(table, seed, n_out, skip=0):
            comb = _chip_comb(table, _comb_band(n_chips, seed), n_blocks,
                              sps_chip)
            return _window_sum(comb[skip:], width, n_out)

        lag_sums = start_sums(lags, None, n_v)              # (n_v, t)
        kk, ll = np.tril_indices(t)
        s_idx = np.arange(n_starts)
        lower = lag_sums[s_idx[:, None] + (t - 1) - ll, kk - ll]
        if hi + n_chips * sps_chip > n - t + 1:
            lower += self._boundary_terms(x, lo + s_idx, kk, ll,
                                          sps_chip, n_chips)
        self._gram = gram = np.empty((n_starts, t, t), dtype=np.complex128)
        gram[:, ll, kk] = np.conj(lower)
        gram[:, kk, ll] = lower
        # Ridge identical to ls_channel_estimate: lam^2 is ridge times
        # the mean column energy (the mean Gram diagonal).
        diag = np.einsum("skk->sk", gram).real
        self._lam2 = DEFAULT_RIDGE * np.maximum(diag.mean(axis=1), 1e-300)
        gram[:, np.arange(t), np.arange(t)] += self._lam2[:, None]
        self._rhs = start_sums(rhs, preamble_seed, n_starts, t - 1)
        self._ysq = start_sums(energy, None, n_starts, t - 1)

        # In-chip rows before the capture end, per start.
        row0 = (lo + s_idx)[:, None] + t \
            + sps_chip * np.arange(n_chips)[None, :]
        self._n_rows = np.clip(n - row0, 0, width).sum(axis=1)

    def _boundary_terms(self, x: np.ndarray, starts: np.ndarray,
                        kk: np.ndarray, ll: np.ndarray, sps_chip: int,
                        n_chips: int) -> np.ndarray:
        """Gram terms the lag table zeroed whose row is still captured.

        Entry ``(k, l)`` of start ``s`` adds ``lam_d[m]`` for
        ``n - t + 1 <= m < n - l`` when row ``m + l`` (before the
        capture end) is an in-chip row of ``s``.
        """
        t, n = self.n_taps, self.n
        m = n - t + 1 + np.arange(t - 1)                    # (a,)
        shifted = m[:, None] - np.arange(t)[None, :]         # m - d
        ok = (shifted >= 0) & (shifted < n) & (m[:, None] >= 0)
        xs = np.where(ok, x[np.clip(shifted, 0, n - 1)], 0.0)
        lam = np.conj(xs) * xs[:, :1]                        # (a, d)
        q = m[None, :, None] + ll[None, None, :] - starts[:, None, None]
        keep = ((m[None, :, None] < n - ll[None, None, :])
                & (q >= 0) & (q < n_chips * sps_chip)
                & (q % sps_chip >= t))
        return np.einsum("sae,ae->se", keep.astype(np.float64),
                         lam[:, kk - ll])

    def evaluate(self, starts: np.ndarray) -> tuple[
            np.ndarray, np.ndarray, np.ndarray]:
        """Score every candidate start for every batch element.

        Returns ``(feasible, residual_power, gain)`` arrays of shape
        ``(n_batch, n_starts)``; infeasible entries hold NaN metrics.
        """
        starts = np.atleast_1d(np.asarray(starts, dtype=np.intp))
        t = self.n_taps
        nb = self.n_batch
        n_cand = starts.size
        if starts.size and (starts.min() < self._start_lo
                            or starts.max() > self._start_hi):
            raise ValueError("candidate start outside the solver's "
                             "declared start_window")
        i = starts - self._start_lo
        n_rows = self._n_rows[i]
        geom_feasible = (starts >= 0) & (n_rows >= 4 * t)

        g = self._gram[i]
        b = self._rhs[i]                                 # (S, t, nb)
        b_solve = b
        if not geom_feasible.all():
            # Infeasible candidates get an identity system so one
            # batched call serves the whole sweep.
            g[~geom_feasible] = np.eye(t, dtype=np.complex128)
            b_solve = np.where(geom_feasible[:, None, None], b, 0.0)
        # One stacked solve: candidate s's factorisation serves all nb
        # right-hand-side columns.
        try:
            h = np.linalg.solve(g, b_solve)              # (S, t, nb)
        except np.linalg.LinAlgError:
            shape = (nb, n_cand)
            return (np.zeros(shape, dtype=bool),
                    np.full(shape, np.nan), np.full(shape, np.nan))

        gain = np.sum(np.abs(h) ** 2, axis=1).T                  # (nb, S)
        ysq = self._ysq[i].T                                     # (nb, S)
        # ||y - A h||^2 on the data rows: with (G + lam^2 I) h = b this
        # collapses to ysq - Re(b^H h) - lam^2 ||h||^2.
        bh = np.einsum("skb,skb->bs", np.conj(b), h).real
        resid = np.maximum(ysq - bh - self._lam2[i][None, :] * gain, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            residual_power = np.where(n_rows[None, :] > 0,
                                      resid / n_rows[None, :], np.nan)
        feasible = geom_feasible[None, :] & (gain > 0)
        residual_power = np.where(feasible, residual_power, np.nan)
        gain = np.where(feasible, gain, np.nan)
        return feasible, residual_power, gain
