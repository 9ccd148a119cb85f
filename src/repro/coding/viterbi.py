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
_BLOCK_FLOATS = 1 << 15
"""Cap on the per-block branch-label gather (256 KiB of float64): a
whole-stream gather would hold ``n_steps * B * 128`` floats at once."""


def _butterfly_labels() -> np.ndarray:
    """Branch-table index of every (predecessor slot, next state) pair.

    The trellis is a radix-2 butterfly: next states ``j`` and ``j + 32``
    both have the predecessors ``2j`` and ``2j + 1``.  Entry ``[i, ns]``
    is the output-pair index ``2*c0 + c1`` of the branch from
    ``2*(ns % 32) + i`` into ``ns``.
    """
    ns = np.arange(N_STATES)
    inp = ns >> (CONSTRAINT - 2)
    labels = np.empty((2, N_STATES), dtype=np.intp)
    for i in (0, 1):
        reg = (inp << (CONSTRAINT - 1)) | ((ns & (_HALF - 1)) << 1) | i
        labels[i] = 2 * _PARITY[0, reg] + _PARITY[1, reg]
    return labels.reshape(-1)


_LABELS = _butterfly_labels()


def _add_compare_select(llrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the trellis over ``(B, 2 * n_steps)`` LLRs.

    Returns the survivor decisions ``(n_steps, N_STATES, B)`` (true when
    state ``ns`` took its odd predecessor ``2*(ns % 32) + 1``) and the
    final path metrics ``(N_STATES, B)``.

    Candidates live in an ``(i, u, j, B)`` buffer: candidate ``i`` of
    next state ``ns = 32u + j`` adds predecessor ``2j + i``'s metric --
    a strided view of the state-ordered metrics, broadcast over ``u`` --
    to its branch metric, gathered from the 4-entry branch table a
    bounded block of steps at a time.  Both candidate planes are then
    contiguous in state order, so a step is three ufunc calls: add,
    compare (the decisions), select.  The select keeps candidate 1 iff
    it is strictly larger.  With finite branch metrics no candidate is
    NaN or -0.0, so a branch-free ``maximum`` returns exactly that
    value; otherwise a masked copy does.  A stack of one drops the batch
    axis so the compare and select run one-dimensional.
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
    pred = metric.reshape((_HALF, 2) + tail).swapaxes(0, 1)[:, None]
    cand = np.empty((2, N_STATES) + tail)
    planes = cand.reshape((2, 2, _HALF) + tail)
    keep, other = cand
    decisions = np.empty((n_steps, N_STATES) + tail, dtype=bool)

    block = max(1, _BLOCK_FLOATS // (2 * N_STATES * n_batch))
    for t0 in range(0, n_steps, block):
        branch = bm[t0: t0 + block].take(_LABELS, axis=1).reshape(
            (-1, 2, 2, _HALF) + tail)
        for labels, take1 in zip(branch, decisions[t0: t0 + block]):
            np.add(pred, labels, out=planes)
            np.greater(other, keep, out=take1)
            if finite:
                np.maximum(keep, other, out=metric)
            else:
                np.copyto(metric, keep)
                np.copyto(metric, other, where=take1)
    return (decisions.reshape(n_steps, N_STATES, n_batch),
            metric.reshape(N_STATES, n_batch))


def _traceback(decisions: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Follow each row's survivors back from ``state``; returns bits.

    A byte walk per row: the predecessor of ``ns`` is
    ``2*(ns % 32) + decision``, and the bit that led into ``ns`` is
    ``ns >> 5``.
    """
    n_steps, _, n_batch = decisions.shape
    bits = np.empty((n_batch, n_steps), dtype=np.uint8)
    for b in range(n_batch):
        table = decisions[:, :, b].tobytes()
        path = bytearray(n_steps)
        s = int(state[b])
        pos = (n_steps - 1) * N_STATES
        for t in range(n_steps - 1, -1, -1):
            path[t] = s
            s = ((s & (_HALF - 1)) << 1) | table[pos + s]
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
