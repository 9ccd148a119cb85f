"""Property tests for the paired decode and synthesis kernels.

* The chip-comb timing solver (:class:`BatchPreambleSolver`) against the
  per-offset reference estimator over random start windows -- including
  windows whose preamble runs past the capture end and negative
  (infeasible) starts -- and every batch row against the same row
  solved as a stack of one.
* The butterfly Viterbi (scalar and batched) against a copy of the
  original fancy-index trellis (``viterbi_oracle.py``), bit for bit:
  decoded bits, survivor decisions and the returned path metric.
* A row-selected LS fit, whose design reads only the span its rows
  reach back to, against the fit on a design windowed from the whole
  zero-padded capture (``dsp_oracle.py``), bit for bit.
* Exchange synthesis against copies of the original per-symbol
  transmitter and bit-serial CRCs (``synthesis_oracle.py``), bit for
  bit; ``complex_normal`` against the two-draw expression it replaces;
  the two-plane AR(1) against the numpy reference recursion and
  against ``scipy.signal.lfilter`` (``dsp_oracle.py``); the stacked
  AGC/ADC against the original per-capture quantiser, and its
  in-buffer I/Q reassembly against the one-pass quantiser that built
  complex temporaries, over every sign of zero.
* The stacked-signal convolution, which windows the unpadded stack and
  two padded edge pieces, against the form that windowed a zero-padded
  copy of the stack (``dsp_oracle.py``), bit for bit.
"""

import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))

import synthesis_oracle
from dsp_oracle import (
    ar1_lfilter,
    ar1_loop,
    convolution_matrix_full,
    stacked_convolve_padded,
)
from repro.channel.hardware import Adc, ar1_filter
from repro.channel.noise import complex_normal
from repro.coding.convolutional import _PARITY, CONSTRAINT, N_STATES
from repro.coding.viterbi import (
    _BLOCK_FLOATS,
    _add_compare_select,
    viterbi_decode_soft,
    viterbi_decode_soft_batch,
)
from repro.dsp.fastpath import stacked_convolve, use_fft
from repro.reader import cancellation
from repro.reader.cancellation import convolution_matrix, ls_channel_estimate
from repro.reader.channel_est import estimate_combined_channel
from repro.reader.fastpath import BatchPreambleSolver
from repro.utils.crc import crc8, crc16_ccitt, crc32
from repro.wifi.frames import cts_to_self
from repro.wifi.params import SUPPORTED_RATES_MBPS
from repro.wifi.transmitter import WifiTransmitter
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


def _seeded_llrs(seed: int, n_batch: int, n_steps: int,
                 special_rate: float) -> np.ndarray:
    """A ``(n_batch, 2 * n_steps)`` stream drawn from ``seed``: integer
    ties and floats, with signed zeros, +-inf and NaN at
    ``special_rate``."""
    rng = np.random.default_rng(seed)
    shape = (n_batch, 2 * n_steps)
    llrs = np.where(rng.random(shape) < 0.5,
                    rng.integers(-3, 4, shape).astype(np.float64),
                    rng.uniform(-6.0, 6.0, shape))
    special = rng.random(shape) < special_rate
    llrs[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan],
                               size=int(special.sum()))
    return llrs


def _check_viterbi_against_oracle(llrs, terminated, punctured):
    """Batch, stack-of-one and oracle agree bit for bit on every row."""
    n_batch, length = llrs.shape
    n_steps = length // 2
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


def _block_steps(n_batch: int) -> int:
    """Trellis steps per decision block of an ``n_batch``-row stack."""
    return max(1, _BLOCK_FLOATS // (2 * N_STATES * n_batch))


def test_butterfly_branches_carry_plus_and_minus_lambda():
    # Both generators tap the newest and the oldest register bit, so
    # flipping either flips both outputs: a butterfly's four branches
    # carry one output pair k and its complement 3 - k.
    reg = np.arange(2 * N_STATES)
    for newest_or_oldest in (1, N_STATES):
        assert np.array_equal(_PARITY[:, reg ^ newest_or_oldest],
                              1 - _PARITY[:, reg])
    # ... and the complement's branch metric is the negation, up to the
    # sign of a zero.
    l0, l1 = np.meshgrid(np.linspace(-6.0, 6.0, 49), [-2.5, -1e-3, 0.0, 3.0])
    bm = np.stack([l0 + l1, l0 - l1, -l0 + l1, -l0 - l1])
    assert _bitwise_equal(bm[::-1] + 0.0, -bm + 0.0)


@settings(deadline=None, max_examples=60)
@given(n_batch=st.integers(1, 32), n_steps=st.integers(0, 40),
       terminated=st.booleans(), punctured=st.booleans(),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_viterbi_matches_oracle_bit_for_bit(n_batch, n_steps, terminated,
                                            punctured, seed, data):
    # Up to four rows come straight from hypothesis (ties, signed zeros,
    # +-inf, NaN); any further rows of the stack are drawn from a seed,
    # and the rows are shuffled so the drawn ones land anywhere.
    n_drawn = min(n_batch, 4)
    drawn = np.array(data.draw(st.lists(
        _llr_values, min_size=2 * n_steps * n_drawn,
        max_size=2 * n_steps * n_drawn)), dtype=np.float64).reshape(
            n_drawn, 2 * n_steps)
    rest = _seeded_llrs(seed, n_batch - n_drawn, n_steps, 0.02)
    llrs = np.concatenate([drawn, rest])[
        np.random.default_rng(seed).permutation(n_batch)]
    _check_viterbi_against_oracle(llrs, terminated, punctured)


@settings(deadline=None, max_examples=12)
@given(n_batch=st.sampled_from([1, 32]), terminated=st.booleans(),
       punctured=st.booleans(), seed=st.integers(0, 2**32 - 1),
       special_rate=st.sampled_from([0.0, 0.001, 0.05]), data=st.data())
def test_viterbi_long_streams_cross_decision_blocks(
        n_batch, terminated, punctured, seed, special_rate, data):
    # Longer than one decision block (up to a whole paper-1m frame at
    # 32 rows), so later blocks start from metrics an earlier block
    # wrote; special_rate 0 keeps every branch metric finite (the
    # maximum select), the others usually do not (the masked select).
    block = _block_steps(n_batch)
    n_steps = data.draw(st.integers(block + 1, max(3 * block + 7, 480)))
    llrs = _seeded_llrs(seed, n_batch, n_steps, special_rate)
    _check_viterbi_against_oracle(llrs, terminated, punctured)


# -- LS design ---------------------------------------------------------


@settings(deadline=None, max_examples=40)
@given(n=st.integers(8, 400), n_taps=st.integers(1, 24),
       n_stack=st.sampled_from([0, 1, 3]), head=st.booleans(),
       method=st.sampled_from(["auto", "normal", "lstsq"]),
       ridge=st.sampled_from([0.0, 1e-3]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_row_selected_fit_matches_whole_capture_design(
        n, n_taps, n_stack, head, method, ridge, seed, data):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    shape = (n,) if n_stack == 0 else (n_stack, n)
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # Rows anywhere in the capture, in any order and with repeats;
    # ``head`` puts some inside the first n_taps - 1 samples, whose
    # windows reach back before x[0].
    lo = 0 if head else data.draw(st.integers(0, n - 1))
    rows = np.array(data.draw(st.lists(
        st.integers(lo, min(n - 1, lo + 3 * n_taps + 40)),
        min_size=n_taps, max_size=4 * n_taps + 40)), dtype=np.intp)
    assert convolution_matrix(x, n_taps, rows).tobytes() == \
        convolution_matrix_full(x, n_taps, rows).tobytes()
    got = ls_channel_estimate(x, y, n_taps, rows=rows, ridge=ridge,
                              method=method)
    with patch.object(cancellation, "convolution_matrix",
                      convolution_matrix_full):
        ref = ls_channel_estimate(x, y, n_taps, rows=rows, ridge=ridge,
                                  method=method)
    assert got.shape == ref.shape == shape[:-1] + (n_taps,)
    assert got.tobytes() == ref.tobytes()


# -- exchange synthesis ------------------------------------------------


@settings(deadline=None, max_examples=40)
@given(rate=st.sampled_from(SUPPORTED_RATES_MBPS),
       n_bytes=st.integers(1, 4095), seed=st.integers(0, 2**32 - 1),
       scrambler=st.integers(1, 127))
def test_transmitter_matches_oracle_bit_for_bit(rate, n_bytes, seed,
                                                scrambler):
    psdu = np.random.default_rng(seed).integers(
        0, 256, n_bytes, dtype=np.uint8).tobytes()
    got = WifiTransmitter(scrambler).transmit(psdu, rate).samples
    ref = synthesis_oracle.transmit_samples(psdu, rate, scrambler)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("rate", SUPPORTED_RATES_MBPS)
def test_transmitter_cts_to_self_matches_oracle(rate):
    got = WifiTransmitter().transmit(cts_to_self(), rate).samples
    ref = synthesis_oracle.transmit_samples(cts_to_self(), rate)
    assert got.tobytes() == ref.tobytes()


@settings(deadline=None, max_examples=80)
@given(n_bits=st.integers(0, 4200), seed=st.integers(0, 2**32 - 1))
def test_table_crc_matches_bit_serial(n_bits, seed):
    bits = np.random.default_rng(seed).integers(0, 2, n_bits,
                                                dtype=np.uint8)
    assert crc8(bits) == synthesis_oracle.crc8(bits)
    assert crc16_ccitt(bits) == synthesis_oracle.crc16_ccitt(bits)
    data = np.packbits(bits).tobytes()
    assert crc32(data) == synthesis_oracle.crc32(data)


@settings(deadline=None, max_examples=40)
@given(shape=st.one_of(st.integers(0, 300),
                       st.tuples(st.integers(1, 4), st.integers(0, 80))),
       scale=st.floats(1e-12, 1e3), seed=st.integers(0, 2**32 - 1),
       into_row=st.booleans())
def test_complex_normal_matches_two_draw_expression(shape, scale, seed,
                                                    into_row):
    ref_rng = np.random.default_rng(seed)
    ref = scale * (ref_rng.standard_normal(shape)
                   + 1j * ref_rng.standard_normal(shape))
    rng = np.random.default_rng(seed)
    if into_row:
        # Drawn into one row of a caller-owned stack.
        stack = np.zeros((3,) + np.shape(ref), dtype=np.complex128)
        row = stack[1]
        got = complex_normal(shape, scale, rng, out=row)
        assert got is row
        assert not stack[0].any() and not stack[2].any()
    else:
        got = complex_normal(shape, scale, rng)
    assert got.dtype == np.complex128 and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("out", [
    np.zeros((4, 6), dtype=np.complex128)[:, ::2],     # not contiguous
    np.zeros((4, 6), dtype=np.complex128)[:, :3],
    np.zeros((4, 3), dtype=np.complex64),               # not complex128
    np.zeros((4, 3), dtype=np.float64),
    np.zeros((3, 4), dtype=np.complex128),              # wrong shape
])
def test_complex_normal_out_rejects_foreign_buffers(out):
    with pytest.raises(ValueError):
        complex_normal((4, 3), 1.0, np.random.default_rng(0), out=out)


@settings(deadline=None, max_examples=40)
@given(batch=st.one_of(st.just(()), st.tuples(st.integers(1, 4)),
                       st.tuples(st.integers(1, 3), st.integers(1, 3))),
       n=st.integers(1, 200), rho=st.floats(0.0, 0.9999),
       scalar_prev=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(batch=(1,), n=64, rho=0.99, scalar_prev=False, seed=1)
def test_two_plane_ar1_matches_numpy_reference(batch, n, rho, scalar_prev,
                                               seed):
    rng = np.random.default_rng(seed)
    shape = batch + (n,)
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    prev = complex(rng.standard_normal(), rng.standard_normal()) \
        if scalar_prev else (rng.standard_normal(batch)
                             + 1j * rng.standard_normal(batch))
    got = ar1_filter(w, rho, prev)
    ref = ar1_loop(w, rho, prev)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@settings(deadline=None, max_examples=60)
@given(batch=st.one_of(st.just(()), st.tuples(st.integers(1, 4)),
                       st.tuples(st.integers(1, 3), st.integers(1, 3))),
       n=st.integers(1, 200), rho=st.floats(0.0, 0.9999),
       is_complex=st.booleans(), scalar_prev=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(batch=(2, 3), n=64, rho=0.9999, is_complex=True,
         scalar_prev=False, seed=1)
@example(batch=(), n=64, rho=0.5, is_complex=False, scalar_prev=True,
         seed=2)
def test_ar1_kernel_matches_scipy_lfilter(batch, n, rho, is_complex,
                                          scalar_prev, seed):
    """The compiled kernel called directly is ``lfilter``, byte for byte,
    for complex (two-plane) and real innovations."""
    rng = np.random.default_rng(seed)
    shape = batch + (n,)
    prev_shape = () if scalar_prev else batch
    w = rng.standard_normal(shape)
    prev = rng.standard_normal(prev_shape)
    if is_complex:
        w = w + 1j * rng.standard_normal(shape)
        prev = prev + 1j * rng.standard_normal(prev_shape)
    if scalar_prev:
        prev = prev.item()
    got = ar1_filter(w, rho, prev)
    ref = ar1_lfilter(w, rho, prev)
    assert got.dtype == ref.dtype == w.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@settings(deadline=None, max_examples=30)
@given(n_batch=st.integers(1, 5), n=st.integers(1, 300),
       bits=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       zero_row=st.booleans())
def test_stacked_agc_adc_matches_per_row_converter(n_batch, n, bits, seed,
                                                   zero_row):
    rng = np.random.default_rng(seed)
    level = 10.0 ** rng.uniform(-4, 1, (n_batch, 1))
    x = level * (rng.standard_normal((n_batch, n))
                 + 1j * rng.standard_normal((n_batch, n)))
    # Spikes above the AGC's full scale exercise clipping/saturation.
    x[:, ::7] *= 8.0
    if zero_row:
        x[0] = 0.0
    adc = Adc(bits=bits)
    quantized, saturated = adc.agc_quantize(x)
    for b in range(n_batch):
        row = adc.for_signal(x[b])
        ref = synthesis_oracle.adc_quantize(x[b], row.full_scale, bits)
        assert quantized[b].tobytes() == ref.tobytes()
        assert row.quantize(x[b]).tobytes() == ref.tobytes()
        assert bool(saturated[b]) == bool(
            np.max(np.abs(x[b].real)) > row.full_scale
            or np.max(np.abs(x[b].imag)) > row.full_scale)
    one, sat_one = adc.agc_quantize(x[0])
    assert one.tobytes() == quantized[0].tobytes()
    assert sat_one.shape == () and bool(sat_one) == bool(saturated[0])


# A value mix with both signs of zero, values that round to a signed
# zero, values past the ADC's full scale and ordinary ones.
_SIGNED = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 3.5, -3.5]),
                    st.floats(-4.0, 4.0))


@settings(deadline=None, max_examples=60)
@given(rows=st.integers(1, 4), n=st.integers(1, 40),
       bits=st.integers(1, 12), full_scale=st.floats(0.01, 8.0),
       data=st.data())
def test_adc_reassembly_matches_temporaries_form(rows, n, bits, full_scale,
                                                 data):
    planes = np.array(data.draw(st.lists(_SIGNED, min_size=2 * rows * n,
                                         max_size=2 * rows * n)))
    x = planes.view(np.complex128).reshape(rows, n)
    adc = Adc(bits=bits, full_scale=full_scale)
    ref = synthesis_oracle.adc_quantize_interleaved(x, full_scale, bits)
    assert adc.quantize(x).tobytes() == ref.tobytes()
    # The AGC'd stack: one full scale per row, broadcast as the stack
    # quantiser takes it.
    quantized, saturated = adc.agc_quantize(x)
    scales = np.array([adc.for_signal(row).full_scale for row in x])
    ref = synthesis_oracle.adc_quantize_interleaved(
        x, scales[:, None, None], bits)
    assert quantized.tobytes() == ref.tobytes()
    assert saturated.tolist() == [
        bool(np.max(np.abs(row.real)) > fs or np.max(np.abs(row.imag)) > fs)
        for row, fs in zip(x, scales)]


@settings(deadline=None, max_examples=30)
@given(n=st.integers(1, 40), bits=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_adc_nan_samples_stay_nan(n, bits, seed, data):
    # A NaN plane stays NaN (its sign bit may differ); every other plane
    # matches the temporaries form bit for bit.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    planes = x.view(np.float64)
    nan_at = data.draw(st.lists(st.integers(0, 2 * n - 1), min_size=1,
                                max_size=2 * n))
    planes[nan_at] = data.draw(st.sampled_from([np.nan, -np.nan]))
    got = Adc(bits=bits, full_scale=1.5).quantize(x).view(np.float64)
    ref = synthesis_oracle.adc_quantize_interleaved(x, 1.5, bits) \
        .view(np.float64)
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == ref[~nan].tobytes()


@st.composite
def _conv_operands(draw):
    """A signal stack of at least two rows and a filter (stack) no
    longer than the signals and below the FFT crossover -- operands
    that reach ``stacked_convolve``'s stacked-signal branch -- with
    signed zeros and, now and then, non-finite taps.  With ``swap`` the
    filter comes first (``stacked_convolve`` puts the longer operand
    first, so the signals must be strictly longer)."""
    m = draw(st.integers(1, 48))
    swap = draw(st.booleans())
    n = draw(st.integers(m + 1 if swap else m, m + 120))
    batch = draw(st.sampled_from([(2,), (3,), (5,), (2, 3)]))
    h_batch = draw(st.sampled_from([batch, batch[:-1] + (1,), ()]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def signed(shape):
        z = rng.standard_normal(shape + (2,))
        z[rng.random(shape + (2,)) < 0.2] = 0.0
        z *= np.where(rng.random(shape + (2,)) < 0.5, -1.0, 1.0)
        return z.view(np.complex128)[..., 0]

    x, h = signed(batch + (n,)), signed(h_batch + (m,))
    special = draw(st.sampled_from([None, np.inf, -np.inf, np.nan]))
    if special is not None:
        h.flat[draw(st.integers(0, h.size - 1))] = complex(special, 0.5)
    return x, h, swap


@settings(deadline=None, max_examples=80)
@given(ops=_conv_operands())
def test_stacked_convolve_matches_padded_copy_form(ops):
    x, h, swap = ops
    assert not use_fft(x.shape[-1], h.shape[-1])
    with np.errstate(invalid="ignore"):
        got = stacked_convolve(h, x) if swap else stacked_convolve(x, h)
        ref = stacked_convolve_padded(x, h)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()
