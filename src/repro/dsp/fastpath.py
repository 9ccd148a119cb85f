"""FFT-accelerated fast paths for the hot DSP kernels.

The decode pipeline spends most of its time in a handful of O(N*M)
primitives: sliding correlation (packet detection, fine timing),
FIR reconstruction (``np.convolve`` inside the cancellers and the MRC
template), and least-squares channel fits.  This module provides
overlap-save FFT variants of the convolution/correlation kernels with an
automatic crossover on operand length, so short filters keep the very
fast direct C loop and long ones switch to O(N log N).

Both kernels accept **stacked batches**: inputs of shape ``(..., n)``
with broadcast-compatible leading axes run the whole batch through one
overlap-save pass (``scipy.fft`` along the last axis), which is how the
batched decoder and the vectorized sweep cells amortise per-call
overhead.
Ragged batches (rows of unequal length) are rejected with a
``ValueError`` — stack equal-length rows or fall back to per-row calls.

Every fast kernel agrees with its direct counterpart to float64
rounding (``max |fast - direct| <= 1e-10 * max |direct|``); the
equivalence suite in ``tests/test_fastpath.py`` enforces this across
the crossover boundary and along batch axes, against the direct forms
kept in ``tests/dsp_oracle.py``.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

__all__ = [
    "FFT_MIN_TAPS",
    "FFT_MIN_WORK",
    "fast_convolve",
    "fast_correlate_valid",
    "pad_stack",
    "stacked_convolve",
    "use_fft",
]

FFT_MIN_TAPS = 96
"""Shorter operand length below which the direct form always wins.

``np.convolve``/``np.correlate`` run a tight C loop that beats FFT
block processing until the filter is ~a hundred taps long (measured on
the default 3700-sample packet; see docs/PERFORMANCE.md for the
calibration table)."""

FFT_MIN_WORK = 1 << 18
"""Minimum direct-form work (``len(x) * len(h)``) before the FFT path
pays for its setup."""

def use_fft(n: int, m: int) -> bool:
    """Crossover predicate: should an (n x m) kernel take the FFT path?

    ``m`` is the shorter operand.  Both thresholds must clear: the
    filter must be long enough that block FFTs amortise (``FFT_MIN_TAPS``)
    and the total direct work big enough to matter (``FFT_MIN_WORK``).
    The decision is per batch *row*; a stacked call simply runs the same
    branch for every row.
    """
    return m >= FFT_MIN_TAPS and n * m >= FFT_MIN_WORK


def _pow2_at_least(n: int) -> int:
    """Smallest power of two >= n."""
    return 1 << max(int(n - 1).bit_length(), 0)


def _as_complex_batch(a: np.ndarray, name: str) -> np.ndarray:
    """Coerce to complex128, rejecting ragged batches loudly."""
    if isinstance(a, np.ndarray) and a.dtype == object:
        raise ValueError(
            f"{name} is a ragged/object array; batch rows must share one "
            "length (stack equal-length rows, or loop per row)")
    try:
        return np.asarray(a, dtype=np.complex128)
    except (ValueError, TypeError) as exc:
        raise ValueError(
            f"{name} could not be stacked into a rectangular complex "
            f"batch (ragged row lengths?): {exc}") from None


def _batch_shape(x: np.ndarray, h: np.ndarray) -> tuple[int, ...]:
    try:
        return np.broadcast_shapes(x.shape[:-1], h.shape[:-1])
    except ValueError as exc:
        raise ValueError(
            f"batch axes do not broadcast: {x.shape[:-1]} vs "
            f"{h.shape[:-1]}") from exc


def _overlap_save(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Full linear convolution of ``x`` and ``h`` by overlap-save FFT.

    ``h`` must be the shorter operand (along the last axis).  Leading
    axes broadcast; FFTs run along the last axis.  Block length is a
    power of two, at least ``8 * len(h)`` (so >= 7/8 of each FFT
    produces output) but never larger than one FFT covering the whole
    result.
    """
    x = np.asarray(x, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    n, m = x.shape[-1], h.shape[-1]
    batch = _batch_shape(x, h)
    out_len = n + m - 1
    block = min(_pow2_at_least(out_len),
                max(_pow2_at_least(8 * m), 1024))
    hop = block - m + 1
    h_f = scipy.fft.fft(h, block, axis=-1)
    # Prefix of m-1 zeros implements the "save" overlap; the suffix pad
    # lets the last block read a full window.
    padded = np.concatenate([
        np.zeros(batch + (m - 1,), dtype=np.complex128),
        np.broadcast_to(x, batch + (n,)),
        np.zeros(batch + (block,), dtype=np.complex128),
    ], axis=-1)
    out = np.empty(batch + (out_len + hop,), dtype=np.complex128)
    for pos in range(0, out_len, hop):
        seg = padded[..., pos:pos + block]
        y = scipy.fft.ifft(scipy.fft.fft(seg, axis=-1) * h_f, axis=-1)
        out[..., pos:pos + hop] = y[..., m - 1:]
    return out[..., :out_len]


def _direct_convolve_batch(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    batch = _batch_shape(x, h)
    n, m = x.shape[-1], h.shape[-1]
    xb = np.broadcast_to(x, batch + (n,))
    hb = np.broadcast_to(h, batch + (m,))
    out = np.empty(batch + (n + m - 1,), dtype=np.complex128)
    for idx in np.ndindex(batch):
        out[idx] = np.convolve(xb[idx], hb[idx])
    return out


def fast_convolve(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Full linear convolution, FFT-accelerated past the crossover.

    Drop-in for ``np.convolve(x, h)`` (mode="full"), always returning
    complex128.  Inputs may carry broadcast-compatible leading batch
    axes; the convolution runs along the last axis.  Short filters --
    the cancellers' default tap counts, the MRC template -- keep the
    direct form; long ones (deepened cancellers, long templates) switch
    to overlap-save.
    """
    x = _as_complex_batch(x, "x")
    h = _as_complex_batch(h, "h")
    if x.ndim <= 1 and h.ndim <= 1:
        if x.size == 0 or h.size == 0:
            return np.empty(0, dtype=np.complex128)
        if x.size < h.size:
            x, h = h, x
        if use_fft(x.size, h.size):
            return _overlap_save(x, h)
        return np.convolve(x, h)
    n, m = x.shape[-1], h.shape[-1]
    if n == 0 or m == 0:
        return np.empty(_batch_shape(x, h) + (0,), dtype=np.complex128)
    if n < m:
        x, h = h, x
        n, m = m, n
    if use_fft(n, m):
        return _overlap_save(x, h)
    return _direct_convolve_batch(x, h)


def pad_stack(filters) -> np.ndarray:
    """Impulse responses stacked to a common tap count.

    Trailing zero taps convolve to exact zeros, so each row of the
    padded stack convolves like its own filter.
    """
    out = np.zeros((len(filters), max(np.size(h) for h in filters)),
                   dtype=np.complex128)
    for i, h in enumerate(filters):
        out[i, : np.size(h)] = h
    return out


_STACKED_GEMM_MAX = 1 << 23
"""Element cap on the shifted-signal matrix the shared-excitation GEMM
materialises (128 MB of complex128); bigger problems keep the windowed
form, whose sliding view is zero-copy."""


def stacked_convolve(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Batched full convolution as a matrix product (throughput variant).

    Same contract as :func:`fast_convolve` but runs the whole batch
    through one BLAS call instead of one ``np.convolve`` C loop per
    batch row -- an order of magnitude faster for the decoder's
    short-filter/large-batch shape.  A shared 1-D signal against a
    stack of filters becomes ``h @ X`` for one shifted-signal matrix
    ``X`` (the sweep-cell channel geometry: every element convolves the
    same excitation); stacked signals go through a sliding-window view
    and a batched matvec.  BLAS accumulation order differs from
    ``np.convolve``'s, so agreement with the scalar reference is to
    float64 rounding (rtol 1e-10, in practice ~1e-15), not bitwise;
    hot batch paths (the batched session synthesizer, the batched
    digital canceller) opt into it explicitly, while
    :func:`fast_convolve`'s direct batched form stays the bit-exact
    reference.

    Scalar inputs, empty operands, one-row stacks and operands past the
    FFT crossover delegate to :func:`fast_convolve` (for one row its
    direct form is about twice as fast as building a shift matrix).
    """
    x = _as_complex_batch(x, "x")
    h = _as_complex_batch(h, "h")
    if x.ndim <= 1 and h.ndim <= 1:
        return fast_convolve(x, h)
    n, m = x.shape[-1], h.shape[-1]
    if n == 0 or m == 0:
        return np.empty(_batch_shape(x, h) + (0,), dtype=np.complex128)
    if x.size == n and h.size == m:
        # One row: every leading axis has length 1.
        out = fast_convolve(x.reshape(-1), h.reshape(-1))
        return out.reshape((1,) * (max(x.ndim, h.ndim) - 1) + out.shape)
    if n < m:
        x, h = h, x
        n, m = m, n
    if use_fft(n, m):
        return fast_convolve(x, h)
    batch = _batch_shape(x, h)
    out_len = n + m - 1
    if x.ndim <= 1 and m * out_len <= _STACKED_GEMM_MAX:
        # Shared signal, stacked filters: one (batch, m) x (m, out) GEMM
        # against the signal's shift matrix.
        shifts = np.zeros((m, out_len), dtype=np.complex128)
        for k in range(m):
            shifts[k, k:k + n] = x
        return np.broadcast_to(h, batch + (m,)) @ shifts
    # Stacked signals: sliding windows over the zero-padded signal give
    # conv[i] = sum_k x_pad[i + k] h[m - 1 - k] as a batched matvec.
    xb = np.broadcast_to(x, batch + (n,))
    pad = np.zeros(batch + (m - 1,), dtype=np.complex128)
    xp = np.concatenate([pad, xb, pad], axis=-1)
    windows = np.lib.stride_tricks.sliding_window_view(xp, m, axis=-1)
    h_rev = np.broadcast_to(h[..., ::-1, np.newaxis], batch + (m, 1))
    return (windows @ h_rev)[..., 0]


def _fft_correlate_valid(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Valid-mode sliding correlation via the overlap-save convolver."""
    m = t.shape[-1]
    full = _overlap_save(x, np.conj(t[..., ::-1]))
    return full[..., m - 1:x.shape[-1]]


def fast_correlate_valid(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``c[n] = sum_k x[n+k] conj(t[k])`` for every full placement.

    Drop-in for ``np.correlate(x, t, mode="valid")`` on complex128
    inputs, with the same empty-output convention when the template is
    longer than the signal.  Leading batch axes broadcast (signal and/or
    template may be stacked); the correlation runs along the last axis.
    """
    x = _as_complex_batch(x, "x")
    t = _as_complex_batch(t, "t")
    if t.shape[-1] == 0:
        raise ValueError("template must be non-empty")
    if x.ndim <= 1 and t.ndim <= 1:
        if x.size < t.size:
            return np.empty(0, dtype=np.complex128)
        if use_fft(x.size, t.size):
            return _fft_correlate_valid(x, t)
        return np.correlate(x, t, mode="valid")
    n, m = x.shape[-1], t.shape[-1]
    batch = _batch_shape(x, t)
    if n < m:
        return np.empty(batch + (0,), dtype=np.complex128)
    if use_fft(n, m):
        return _fft_correlate_valid(x, t)
    xb = np.broadcast_to(x, batch + (n,))
    tb = np.broadcast_to(t, batch + (m,))
    out = np.empty(batch + (n - m + 1,), dtype=np.complex128)
    for idx in np.ndindex(batch):
        out[idx] = np.correlate(xb[idx], tb[idx], mode="valid")
    return out
