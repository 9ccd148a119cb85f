"""Property tests for the two paired decode kernels.

* The chip-comb timing solver (:class:`BatchPreambleSolver`) against the
  per-offset reference estimator over random start windows -- including
  windows whose preamble runs past the capture end and negative
  (infeasible) starts -- and every batch row against the same row
  solved as a stack of one.
* The butterfly Viterbi (scalar and batched) against a copy of the
  original fancy-index trellis (``viterbi_oracle.py``), bit for bit:
  decoded bits, survivor decisions and the returned path metric.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.coding.convolutional import CONSTRAINT
from repro.coding.viterbi import (
    _add_compare_select,
    viterbi_decode_soft,
    viterbi_decode_soft_batch,
)
from repro.reader.channel_est import estimate_combined_channel
from repro.reader.fastpath import BatchPreambleSolver
from test_reader_pipeline import _make_link
from viterbi_oracle import viterbi_oracle

_LINKS = {}


def _link(seed: int, offset: int):
    """One cached noisy link per (seed, offset); x, y and the nominal."""
    key = (seed, offset)
    if key not in _LINKS:
        tl, x, y, *_ = _make_link(np.random.default_rng(seed),
                                  offset=offset, noise_mw=1e-8)
        _LINKS[key] = (x, y, tl.nominal_preamble_start)
    return _LINKS[key]


def _reference(x, y, start, n_taps):
    """(residual_power, gain) of the reference fit, or None if the
    reference rejects the start."""
    if start < 0:
        return None
    try:
        est = estimate_combined_channel(x, y, start, 32.0, n_taps=n_taps)
    except ValueError:
        return None
    return (est.residual_power, est.gain) if est.gain > 0 else None


# -- timing solver -----------------------------------------------------


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 3), offset=st.integers(-8, 8),
       n_taps=st.sampled_from([6, 8, 12]),
       lo_rel=st.integers(-120, 60), width=st.integers(0, 40),
       cut=st.one_of(st.none(), st.integers(-40, 700)),
       head=st.booleans())
def test_solver_matches_reference_estimator(seed, offset, n_taps, lo_rel,
                                            width, cut, head):
    x, y, nominal = _link(seed, offset)
    # ``head`` moves the window to the capture start (negative starts);
    # ``cut`` ends the capture inside or just after the preamble.
    base = 0 if head else nominal
    lo = base + lo_rel
    if cut is not None:
        end = max(nominal + cut, 8)
        x, y = x[:end], y[:end]
    window = (lo, lo + width)
    solver = BatchPreambleSolver(x, y[None], 32.0, n_taps=n_taps,
                                 start_window=window)
    starts = np.arange(lo, lo + width + 1)
    feasible, resid, gain = (a[0] for a in solver.evaluate(starts))
    for i, start in enumerate(starts):
        ref = _reference(x, y, int(start), n_taps)
        assert bool(feasible[i]) == (ref is not None), int(start)
        if ref is None:
            assert np.isnan(resid[i]) and np.isnan(gain[i])
        else:
            assert resid[i] == pytest.approx(ref[0], rel=1e-8)
            assert gain[i] == pytest.approx(ref[1], rel=1e-8)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 3), n_batch=st.integers(1, 6),
       n_taps=st.sampled_from([8, 12]), lo_rel=st.integers(-60, 20),
       width=st.integers(0, 50), mix=st.integers(0, 2**32 - 1))
def test_solver_batch_rows_match_stack_of_one(seed, n_batch, n_taps,
                                              lo_rel, width, mix):
    x, y, nominal = _link(seed, 0)
    rng = np.random.default_rng(mix)
    scale = rng.uniform(0.2, 2.0, n_batch)
    noise = 1e-4 * (rng.standard_normal((n_batch, y.size))
                    + 1j * rng.standard_normal((n_batch, y.size)))
    ys = scale[:, None] * y[None, :] + noise
    window = (nominal + lo_rel, nominal + lo_rel + width)
    starts = np.arange(window[0], window[1] + 1)
    batch = BatchPreambleSolver(x, ys, 32.0, n_taps=n_taps,
                                start_window=window).evaluate(starts)
    for b in range(n_batch):
        one = BatchPreambleSolver(x, ys[b: b + 1], 32.0, n_taps=n_taps,
                                  start_window=window).evaluate(starts)
        assert np.array_equal(batch[0][b], one[0][0])
        # Only the multi-RHS solve's rounding differs between stacks.
        np.testing.assert_allclose(batch[1][b], one[1][0], rtol=1e-9)
        np.testing.assert_allclose(batch[2][b], one[2][0], rtol=1e-12)


# -- Viterbi -----------------------------------------------------------

_llr_values = st.one_of(
    st.integers(-3, 3).map(float),                  # ties
    st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
)


def _bitwise_equal(a, b) -> bool:
    return np.array_equal(np.asarray(a, dtype=np.float64).view(np.uint64),
                          np.asarray(b, dtype=np.float64).view(np.uint64))


@settings(deadline=None, max_examples=60)
@given(n_batch=st.integers(1, 8), n_steps=st.integers(0, 40),
       terminated=st.booleans(), punctured=st.booleans(), data=st.data())
def test_viterbi_matches_oracle_bit_for_bit(n_batch, n_steps, terminated,
                                            punctured, data):
    llrs = np.array(data.draw(st.lists(
        _llr_values, min_size=2 * n_steps * n_batch,
        max_size=2 * n_steps * n_batch)), dtype=np.float64).reshape(
            n_batch, 2 * n_steps)
    if punctured:
        # Depunctured positions of the rate-3/4 pattern carry zeros.
        llrs[:, 3::6] = 0.0
        llrs[:, 4::6] = 0.0
    short = terminated and 0 < n_steps < CONSTRAINT - 1
    with np.errstate(invalid="ignore"):
        if short:
            with pytest.raises(ValueError):
                viterbi_decode_soft_batch(llrs, terminated=True)
            with pytest.raises(ValueError):
                viterbi_decode_soft(llrs[0], terminated=True)
            return
        bits, metric = viterbi_decode_soft_batch(
            llrs, terminated=terminated, return_metric=True)
        if n_steps:
            decisions, _ = _add_compare_select(llrs)
        for b in range(n_batch):
            ref_bits, ref_metric, ref_dec = viterbi_oracle(
                llrs[b], terminated=terminated)
            one_bits, one_metric = viterbi_decode_soft(
                llrs[b], terminated=terminated, return_metric=True)
            assert np.array_equal(bits[b], ref_bits)
            assert np.array_equal(one_bits, ref_bits)
            assert _bitwise_equal(metric[b], ref_metric)
            assert _bitwise_equal(one_metric, ref_metric)
            if n_steps:
                assert np.array_equal(decisions[:, :, b], ref_dec)
