"""Reference Viterbi trellis: a verbatim copy of the original kernel.

The decoder in :mod:`repro.coding.viterbi` runs its add-compare-select
as a radix-2 butterfly over buffer views.  This module keeps the
original fancy-index form -- gather both predecessors' metrics and
branch labels for every next state, compare, select -- as the oracle the
property tests hold the butterfly to, bit for bit: decoded bits,
survivor decisions and the returned path metric.
"""

from __future__ import annotations

import numpy as np

from repro.coding.convolutional import _PARITY, CONSTRAINT, N_STATES


def _build_trellis():
    ns = np.arange(N_STATES)
    inp = (ns >> (CONSTRAINT - 2)) & 1
    pred0 = (ns & (N_STATES // 2 - 1)) << 1
    pred1 = pred0 | 1
    reg0 = (inp << (CONSTRAINT - 1)) | pred0
    reg1 = (inp << (CONSTRAINT - 1)) | pred1
    oidx0 = 2 * _PARITY[0, reg0] + _PARITY[1, reg0]
    oidx1 = 2 * _PARITY[0, reg1] + _PARITY[1, reg1]
    return pred0, pred1, inp, np.stack([oidx0, oidx1])


_PRED0, _PRED1, _INPUT_BIT, _OIDX = _build_trellis()


def viterbi_oracle(llrs: np.ndarray, *, terminated: bool = True):
    """Decode one LLR stream; returns ``(bits, metric, decisions)``.

    ``decisions`` is the ``(n_steps, N_STATES)`` survivor table: entry
    ``[t, ns]`` is 1 when state ``ns`` took its odd predecessor at step
    ``t``.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.size % 2:
        raise ValueError("LLR stream length must be even (2 bits/step)")
    n_steps = llrs.size // 2
    if n_steps == 0:
        return (np.empty(0, dtype=np.uint8), 0.0,
                np.empty((0, N_STATES), dtype=np.uint8))

    l0 = llrs[0::2]
    l1 = llrs[1::2]
    bm = np.empty((n_steps, 4))
    bm[:, 0] = l0 + l1
    bm[:, 1] = l0 - l1
    bm[:, 2] = -l0 + l1
    bm[:, 3] = -l0 - l1

    path_metric = np.full(N_STATES, -1e18)
    path_metric[0] = 0.0
    decisions = np.empty((n_steps, N_STATES), dtype=np.uint8)

    for t in range(n_steps):
        bmt = bm[t]
        cand0 = path_metric[_PRED0] + bmt[_OIDX[0]]
        cand1 = path_metric[_PRED1] + bmt[_OIDX[1]]
        take1 = cand1 > cand0
        decisions[t] = take1
        path_metric = np.where(take1, cand1, cand0)

    state = 0 if terminated else int(np.argmax(path_metric))
    final_metric = float(path_metric[state])
    bits = np.empty(n_steps, dtype=np.uint8)
    for t in range(n_steps - 1, -1, -1):
        bits[t] = _INPUT_BIT[state]
        prev = _PRED1[state] if decisions[t, state] else _PRED0[state]
        state = prev

    if terminated:
        if n_steps < CONSTRAINT - 1:
            raise ValueError("terminated stream shorter than the tail")
        bits = bits[: n_steps - (CONSTRAINT - 1)]
    return bits, final_metric, decisions
