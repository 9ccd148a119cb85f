"""Vectorised Viterbi decoder for the K=7 802.11 convolutional code.

Decodes soft (LLR) inputs; hard bits enter as ``1 - 2 * bits``, and the
punctured rates after :func:`repro.coding.convolutional.depuncture`
(punctured positions carry a zero LLR, i.e. no branch-metric
contribution).
"""

from __future__ import annotations

import numpy as np

from .convolutional import _PARITY, CONSTRAINT, N_STATES, depuncture

__all__ = ["viterbi_decode_soft", "viterbi_decode_soft_batch"]


_HALF = N_STATES // 2
_BLOCK_FLOATS = 1 << 14
"""Cap on a block's candidate buffer (128 KiB of float64): a block of
steps keeps every step's ``2 * N_STATES * B`` candidates until one
compare after the block gives its survivor decisions (128 steps of one
row, 4 of a 32-row stack)."""


_LABELS = 2 * _PARITY[0, :N_STATES] + _PARITY[1, :N_STATES]
"""Branch-table index of the input-0 branch leaving each state.

Both generators (133, 171 octal) tap the newest and the oldest register
bit, so flipping either flips both output bits: the branch from state
``s`` into ``s >> 1`` (register ``s``) carries output pair ``k``, and
the branch from ``s`` into ``32 + (s >> 1)`` (and from ``s ^ 1`` into
``s >> 1``) carries ``3 - k``, whose branch metric is ``-bm[k]``."""

_PRED_BASE = ((np.arange(N_STATES) & (_HALF - 1)) << 1).astype(np.uint8)
"""Even predecessor ``2*(ns % 32)`` of every state; a survivor decision
adds its odd bit."""


def _add_compare_select(llrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the trellis over ``(B, 2 * n_steps)`` LLRs.

    Returns the survivor decisions ``(n_steps, N_STATES, B)`` (true when
    state ``ns`` took its odd predecessor ``2*(ns % 32) + 1``) and the
    final path metrics ``(N_STATES, B)``.

    Each state ``s`` leaves on two branches with the metrics ``+lam_s``
    and ``-lam_s`` (see :data:`_LABELS`), so a step writes
    ``metric + lam`` and ``metric - lam`` into the two contiguous halves
    of a ``2 * N_STATES`` candidate buffer.  Next state ``r``'s
    candidates then sit at ``2r`` and ``2r + 1``: one ``maximum`` over
    the buffer's even/odd interleave is the select, and one ``greater``
    over a block of such buffers gives the block's decisions.

    The result is the fancy-index trellis's, bit for bit.  Each
    candidate is the sum that trellis formed: ``m - bm[k]`` equals
    ``m + bm[3 - k]``, because the two branch metrics differ at most in
    the sign of a zero and no metric is ever -0.0.  Candidate 1 survives
    iff it is strictly larger: with finite branch metrics no candidate is
    NaN, so ``maximum`` returns exactly that survivor; otherwise a masked
    copy per step does.  A NaN may differ from that trellis's in its sign
    bit, but no output reads one that does: a NaN input makes every
    branch metric of its step NaN, so from then on every path metric is
    NaN, every decision false and the metric returned is state 0's, which
    only ever adds ``+lam``; a NaN from ``inf - inf`` is the same default
    NaN either way.  A stack of one drops the batch axis so every call
    runs one-dimensional.
    """
    n_batch, length = llrs.shape
    n_steps = length // 2
    tail = (n_batch,) if n_batch > 1 else ()
    l0 = llrs[:, 0::2].T.reshape((n_steps,) + tail)
    l1 = llrs[:, 1::2].T.reshape((n_steps,) + tail)
    # Branch metric for output pair (c0, c1): sum of +llr for 0-bits and
    # -llr for 1-bits; index 2*c0 + c1.
    bm = np.empty((n_steps, 4) + tail)
    bm[:, 0] = l0 + l1
    bm[:, 1] = l0 - l1
    bm[:, 2] = -l0 + l1
    bm[:, 3] = -l0 - l1
    finite = bool(np.isfinite(bm).all())

    metric = np.full((N_STATES,) + tail, -1e18)
    metric[0] = 0.0
    decisions = np.empty((n_steps, N_STATES) + tail, dtype=bool)
    block = min(n_steps, max(1, _BLOCK_FLOATS // (2 * N_STATES * n_batch)))
    lam = np.empty((block, N_STATES) + tail)
    cand = np.empty((block, 2 * N_STATES) + tail)
    even, odd = cand[:, 0::2], cand[:, 1::2]
    take1 = np.empty((N_STATES,) + tail, dtype=bool)
    # Every block refills the same buffers, so the per-step views are
    # made once.
    steps = list(zip(lam, cand[:, :N_STATES], cand[:, N_STATES:],
                     even, odd))
    for t0 in range(0, n_steps, block):
        n = min(block, n_steps - t0)
        bm[t0: t0 + n].take(_LABELS, axis=1, out=lam[:n])
        for lam_t, p, m, e, o in steps[:n]:
            np.add(metric, lam_t, out=p)
            np.subtract(metric, lam_t, out=m)
            if finite:
                np.maximum(e, o, out=metric)
            else:
                np.greater(o, e, out=take1)
                np.copyto(metric, e)
                np.copyto(metric, o, where=take1)
        np.greater(odd[:n], even[:n], out=decisions[t0: t0 + n])
    return (decisions.reshape(n_steps, N_STATES, n_batch),
            metric.reshape(N_STATES, n_batch))


def _traceback(decisions: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Follow each row's survivors back from ``state``; returns bits.

    The decisions become a predecessor table in one vectorised step
    (``2*(ns % 32) + decision``), so the walk back is one byte lookup a
    step; the bit that led into ``ns`` is ``ns >> 5``.
    """
    n_steps, _, n_batch = decisions.shape
    pred = decisions.view(np.uint8) | _PRED_BASE[:, None]
    bits = np.empty((n_batch, n_steps), dtype=np.uint8)
    for b in range(n_batch):
        table = pred[:, :, b].tobytes()
        path = bytearray(n_steps)
        s = int(state[b])
        pos = (n_steps - 1) * N_STATES
        for t in range(n_steps - 1, -1, -1):
            path[t] = s
            s = table[pos + s]
            pos -= N_STATES
        bits[b] = np.frombuffer(path, dtype=np.uint8)
    return bits >> (CONSTRAINT - 2)


def viterbi_decode_soft(llrs: np.ndarray, *, terminated: bool = True,
                        return_metric: bool = False):
    """Decode a rate-1/2 mother-code LLR stream.

    Parameters
    ----------
    llrs:
        One LLR per mother coded bit (length must be even).  Positive
        values favour bit 0.  Punctured positions must already be filled
        with zeros (see :func:`depuncture`).
    terminated:
        When true, the encoder was driven back to the zero state with
        K-1 tail bits; the traceback starts from state 0 and the tail
        bits are stripped from the output.
    return_metric:
        Also return the winning path metric (the accumulated correlation
        between the survivor path's coded bits and the LLRs).  Its
        natural normalisation is ``metric / sum(|llrs|)``: 1.0 means the
        decoded codeword agrees with every soft bit, values near 0 mean
        the decoder was guessing -- the telemetry layer's decode-health
        probe.

    Returns
    -------
    numpy.ndarray
        Decoded information bits (tail removed when ``terminated``), or
        a ``(bits, metric)`` tuple when ``return_metric`` is set.

    This is :func:`viterbi_decode_soft_batch` on a stack of one.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    bits, metric = viterbi_decode_soft_batch(
        llrs.reshape(1, -1), terminated=terminated, return_metric=True)
    return (bits[0], float(metric[0])) if return_metric else bits[0]


def viterbi_decode_soft_batch(llrs: np.ndarray, *,
                              terminated: bool = True,
                              return_metric: bool = False):
    """Decode ``B`` equal-length LLR streams in one trellis sweep.

    ``llrs`` has shape ``(B, L)`` with ``L`` even.  Every row is decoded
    exactly as a stack of one would be: the butterfly adds the same two
    operands per candidate and keeps branch 1 iff its candidate is
    strictly larger, so bits, survivor decisions and metrics do not
    depend on the batch.  The batch form amortises the per-step Python
    dispatch across the whole batch.

    Returns decoded bits of shape ``(B, n_info)`` (plus a length-``B``
    metric array when ``return_metric`` is set).
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.ndim != 2:
        raise ValueError("batch LLRs must be 2-D (B, L)")
    n_batch, length = llrs.shape
    if length % 2:
        raise ValueError("LLR stream length must be even (2 bits/step)")
    n_steps = length // 2
    if n_steps == 0 or n_batch == 0:
        empty = np.empty((n_batch, 0), dtype=np.uint8)
        metrics = np.zeros(n_batch)
        return (empty, metrics) if return_metric else empty
    if terminated and n_steps < CONSTRAINT - 1:
        raise ValueError("terminated stream shorter than the tail")

    decisions, path_metric = _add_compare_select(llrs)
    if terminated:
        state = np.zeros(n_batch, dtype=np.intp)
    else:
        state = np.argmax(path_metric, axis=0)
    final_metric = path_metric[state, np.arange(n_batch)]
    bits = _traceback(decisions, state)
    if terminated:
        bits = bits[:, : n_steps - (CONSTRAINT - 1)]
    return (bits, final_metric) if return_metric else bits
