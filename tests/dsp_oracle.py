"""Reference DSP and sync kernels: verbatim copies of the original forms.

The package runs one form of each kernel: the fine-timing search scores
its candidates through the chip-comb ``BatchPreambleSolver``, the
scrambler reads a 127-periodic table, the drift AR(1) filters two
float64 planes through SciPy's compiled IIR kernel (loaded without the
``scipy.signal`` package), and long correlations take the overlap-save
FFT.  This module keeps the forms they replaced -- the per-offset timing
search (with the SVD channel fit it ran with the fast paths off), the
stepwise LFSR, the Python-loop AR(1) recursion, the AR(1) through
``scipy.signal.lfilter`` and the ``np.correlate`` correlations -- as
the oracles the equivalence tests hold the package to and the "direct"
arms of ``benchmarks/bench_hotpaths.py`` time.  The LS design matrix that
zero-pads and windows the whole capture, whichever rows it keeps, is
here too (``convolution_matrix_full``), and so is the stacked
convolution that windowed a zero-padded copy of its signal stack
(``stacked_convolve_padded``).
"""

from __future__ import annotations

import numpy as np

from repro.constants import SAMPLES_PER_US
from repro.dsp.fastpath import fast_convolve
from repro.reader.cancellation import ls_channel_estimate
from repro.reader.channel_est import (
    DEFAULT_N_TAPS,
    ChannelEstimate,
    _valid_preamble_rows,
    estimate_combined_channel,
)
from repro.reader.sync import SyncResult
from repro.tag.tag import PREAMBLE_CHIP_US, tag_preamble_phases

# -- LS design matrix over the whole capture ---------------------------


def convolution_matrix_full(x: np.ndarray, n_taps: int,
                            rows: np.ndarray | None = None) -> np.ndarray:
    """The Toeplitz design ``(X h)[n] = sum_k h[k] x[n-k]`` built over
    the whole zero-padded capture and then row-selected."""
    x = np.asarray(x, dtype=np.complex128)
    if n_taps < 1:
        raise ValueError("need at least one tap")
    padded = np.concatenate([np.zeros(n_taps - 1, dtype=np.complex128), x])
    full = np.lib.stride_tricks.sliding_window_view(padded, n_taps)[:, ::-1]
    if rows is None:
        return full
    return full[np.asarray(rows, dtype=np.intp)]


# -- stacked convolution over a zero-padded copy of the signals --------


def stacked_convolve_padded(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The stacked-signal branch of
    :func:`repro.dsp.fastpath.stacked_convolve` as it windowed a
    zero-padded copy of the whole signal stack.

    ``x`` is the signal stack and ``h`` the filter (stack), no longer
    than the signals; their batch axes broadcast.
    """
    x = np.asarray(x, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    m = h.shape[-1]
    batch = np.broadcast_shapes(x.shape[:-1], h.shape[:-1])
    xb = np.broadcast_to(x, batch + x.shape[-1:])
    pad = np.zeros(batch + (m - 1,), dtype=np.complex128)
    xp = np.concatenate([pad, xb, pad], axis=-1)
    windows = np.lib.stride_tricks.sliding_window_view(xp, m, axis=-1)
    h_rev = np.broadcast_to(h[..., ::-1, np.newaxis], batch + (m, 1))
    return (windows @ h_rev)[..., 0]


# -- fine timing: one least-squares fit per candidate offset -----------


def estimate_combined_channel_svd(
    x: np.ndarray,
    y_clean: np.ndarray,
    preamble_start: int,
    preamble_us: float,
    *,
    n_taps: int = DEFAULT_N_TAPS,
    preamble_seed: int = 0x35,
) -> ChannelEstimate:
    """:func:`estimate_combined_channel` with its LS fit on the SVD.

    The estimator the per-offset search ran with the fast paths off:
    ``ls_channel_estimate(method="lstsq")`` instead of the normal
    equations.
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

    lo = max(int(rows[0]) - (n_taps - 1), 0)
    hi = int(rows[-1]) + 1
    x_span = x[lo:hi]
    local = rows - lo
    y_derot = np.zeros(hi - lo, dtype=np.complex128)
    y_derot[local] = y_clean[rows] * np.conj(preamble[rows - preamble_start])

    h = ls_channel_estimate(x_span, y_derot, n_taps, rows=local,
                            method="lstsq")

    recon = fast_convolve(x_span, h)
    resid = y_derot[local] - recon[local]
    residual_power = float(np.mean(np.abs(resid) ** 2))
    return ChannelEstimate(h_fb=h, residual_power=residual_power,
                           n_rows=int(rows.size))


def find_tag_timing_direct(
    x: np.ndarray,
    y_clean: np.ndarray,
    nominal_preamble_start: int,
    preamble_us: float,
    *,
    search_us: float = 2.0,
    step_samples: int = 4,
    n_taps: int = 8,
    preamble_seed: int = 0x35,
    estimator=estimate_combined_channel,
) -> SyncResult:
    """Search +-``search_us`` around the nominal preamble start.

    Runs ``estimator`` at every candidate the coarse sweep, refinement
    and boundary walk visit.  With the package's
    :func:`estimate_combined_channel` (the default) the winner's
    estimate is bit-identical to :func:`find_tag_timing`'s;
    :func:`estimate_combined_channel_svd` reproduces the search as it
    ran with the fast paths off.
    """
    search = int(search_us * SAMPLES_PER_US)
    if step_samples < 1:
        raise ValueError("step must be >= 1")

    def penalty(start: int) -> float:
        off = abs(start - nominal_preamble_start)
        return 1.0 + 0.005 * off

    estimates: dict[int, ChannelEstimate] = {}

    def metric_one(start: int) -> float | None:
        if start < 0:
            return None
        try:
            est = estimator(
                x, y_clean, start, preamble_us,
                n_taps=n_taps, preamble_seed=preamble_seed,
            )
        except ValueError:
            return None
        if est.gain <= 0:
            return None
        estimates[start] = est
        return est.residual_power / est.gain * penalty(start)

    def metric_batch(offsets: list[int]) -> list[float | None]:
        return [metric_one(nominal_preamble_start + off)
                for off in offsets]

    # Coarse sweep at step_samples resolution.
    coarse_offs = list(range(-search, search + 1, step_samples))
    best: tuple[float, int] | None = None
    for off, m in zip(coarse_offs, metric_batch(coarse_offs)):
        if m is None:
            continue
        if best is None or m < best[0]:
            best = (m, off)
    if best is None:
        raise ValueError("no feasible timing offset found")

    # Refine around the coarse winner at single-sample resolution.
    coarse_off = best[1]
    refine_offs = [off for off in range(coarse_off - step_samples + 1,
                                        coarse_off + step_samples)
                   if off != coarse_off]
    for off, m in zip(refine_offs, metric_batch(refine_offs)):
        if m is not None and m < best[0]:
            best = (m, off)

    # Walk forward to the latest offset that still fits.
    tol = 1.5 * best[0] + 1e-30
    walk_offs = [best[1] + 1 + i for i in range(n_taps + step_samples)]
    for off, m in zip(walk_offs, metric_batch(walk_offs)):
        if m is None or m > tol:
            break
        best = (m, off)

    m, off = best
    start = nominal_preamble_start + off
    return SyncResult(
        preamble_start=start,
        offset_samples=off,
        estimate=estimates[start],
        metric=m,
    )


# -- scrambler: one Python iteration per output bit ---------------------


def sequence_direct(n: int, seed: int) -> np.ndarray:
    """Stepwise LFSR reference (one Python iteration per output bit)."""
    state = seed
    out = np.empty(n, dtype=np.uint8)
    for i in range(n):
        bit = ((state >> 6) ^ (state >> 3)) & 1
        state = ((state << 1) | bit) & 0x7F
        out[i] = bit
    return out


# -- drift/EVM AR(1): one Python iteration per sample -------------------


def ar1_loop(w: np.ndarray, rho: float, prev) -> np.ndarray:
    """Reference AR(1) recursion ``y[i] = w[i] + rho * y[i-1]``.

    Performs the same two floating-point operations per sample, in the
    same order, as SciPy's direct-form-II-transposed ``lfilter`` with
    ``b=[1], a=[1, -rho], zi=[rho*prev]`` -- the outputs are
    bit-identical, just slower (a Python loop).  Stacked innovations
    ``(..., n)`` recurse along the last axis with one initial state per
    row (``prev`` broadcasting over the batch axes), each row
    bit-identical to its own scalar call.
    """
    w = np.asarray(w)
    out = np.empty_like(w)
    rho = float(rho)
    if w.ndim <= 1:
        acc = w.dtype.type(prev)
        for i in range(w.shape[0]):
            acc = w[i] + rho * acc
            out[i] = acc
        return out
    acc = np.broadcast_to(
        np.asarray(prev, dtype=w.dtype), w.shape[:-1]).copy()
    for i in range(w.shape[-1]):
        acc = w[..., i] + rho * acc
        out[..., i] = acc
    return out


def ar1_lfilter(w: np.ndarray, rho: float, prev) -> np.ndarray:
    """The AR(1) recursion through SciPy's public ``lfilter``.

    The package's ``ar1_filter`` as it was before it called the compiled
    kernel directly: complex innovations filter as their two float64
    planes, anything else as it is.  ``ar1_filter`` must match it byte
    for byte, so a SciPy whose kernel or ``lfilter`` changes fails here.
    """
    from scipy.signal import lfilter

    w = np.asarray(w)
    rho = float(rho)
    zi = np.broadcast_to(
        np.asarray(rho * np.asarray(prev), dtype=np.result_type(w, prev)),
        w.shape[:-1],
    )[..., np.newaxis]
    if w.dtype != np.complex128:
        y, _ = lfilter([1.0], [1.0, -rho], w, zi=zi.copy())
        return y
    w = np.ascontiguousarray(w)
    planes = w.view(np.float64).reshape(w.shape + (2,))
    zi_planes = np.stack([zi.real, zi.imag], axis=-1)
    y, _ = lfilter([1.0], [1.0, -rho], planes, axis=-2, zi=zi_planes)
    return np.ascontiguousarray(y).view(np.complex128).reshape(w.shape)


# -- correlations: the np.correlate C loop at every length --------------


def correlate_valid_direct(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``c[n] = sum_k x[n+k] conj(t[k])`` by ``np.correlate``, per row."""
    x = np.asarray(x, dtype=np.complex128)
    t = np.asarray(t, dtype=np.complex128)
    if t.shape[-1] == 0:
        raise ValueError("template must be non-empty")
    if x.ndim <= 1 and t.ndim <= 1:
        if x.size < t.size:
            return np.empty(0, dtype=np.complex128)
        return np.correlate(x, t, mode="valid")
    n, m = x.shape[-1], t.shape[-1]
    batch = np.broadcast_shapes(x.shape[:-1], t.shape[:-1])
    if n < m:
        return np.empty(batch + (0,), dtype=np.complex128)
    xb = np.broadcast_to(x, batch + (n,))
    tb = np.broadcast_to(t, batch + (m,))
    out = np.empty(batch + (n - m + 1,), dtype=np.complex128)
    for idx in np.ndindex(batch):
        out[idx] = np.correlate(xb[idx], tb[idx], mode="valid")
    return out


def normalized_cross_correlation_direct(x: np.ndarray,
                                        template: np.ndarray) -> np.ndarray:
    """Sliding correlation normalised to [0, 1] by local signal energy."""
    x = np.atleast_1d(np.asarray(x, dtype=np.complex128))
    template = np.atleast_1d(np.asarray(template, dtype=np.complex128))
    if template.shape[-1] == 0:
        raise ValueError("template must be non-empty")
    n, m = x.shape[-1], template.shape[-1]
    if n < m:
        if x.ndim <= 1 and template.ndim <= 1:
            return np.empty(0, dtype=np.float64)
        batch = np.broadcast_shapes(x.shape[:-1], template.shape[:-1])
        return np.empty(batch + (0,), dtype=np.float64)
    corr = np.abs(correlate_valid_direct(x, template))
    e_t = np.sqrt(np.sum(np.abs(template) ** 2, axis=-1))
    # Local energy of x under each template placement.
    p = np.abs(x) ** 2
    pad = np.zeros(p.shape[:-1] + (1,), dtype=np.float64)
    c = np.cumsum(np.concatenate([pad, p], axis=-1), axis=-1)
    e_x = np.sqrt(c[..., m:] - c[..., : n - m + 1])
    denom = e_t[..., None] * np.maximum(e_x, 1e-30) if template.ndim > 1 \
        else e_t * np.maximum(e_x, 1e-30)
    return corr / denom
