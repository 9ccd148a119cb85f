"""The per-exchange invariants the served path builds once and shares.

* The timing solver's comb bands come from a bounded cache keyed by
  ``(n_chips, seed)``: a build that reuses entries equals, byte for
  byte, one made on a cleared cache.
* The boundary walk scores ``SYNC_STEP`` offsets at a time and selects
  what scoring the whole walk at once selects.
* Cached waveforms (CTS, PLCP preamble, PN and chip sequences) are
  read-only, callers get copies, and they equal a fresh build.
* The ``condition_number`` probe's Gram eigen-solve matches the SVD of
  the design matrix.
* The row-wise cancellation depths and AGC full scales equal the per-row
  forms bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.hardware import Adc
from repro.dsp.measurements import residual_power_db
from repro.link.protocol import (
    CTS_RATE_MBPS,
    IFS_US,
    _cts_waveform,
    build_ap_transmission,
)
from repro.reader.cancellation import _depth_db, convolution_matrix
from repro.reader.channel_est import (
    _valid_preamble_rows,
    preamble_condition_number,
)
from repro.reader.fastpath import BatchPreambleSolver, _comb_band
from repro.reader.sync import (
    SYNC_STEP,
    OffsetScores,
    candidate_window,
    replay_offset_selection,
)
from repro.scenario import get_scenario
from repro.streaming import CaptureSource
from repro.tag.tag import tag_preamble_phases
from repro.utils.bits import pn_sequence
from repro.utils.conversions import power, row_power
from repro.wifi import WifiTransmitter
from repro.wifi.frames import cts_to_self
from repro.wifi.preamble import (
    long_training_field,
    plcp_preamble,
    short_training_field,
)

_TABLES = ("_gram", "_rhs", "_ysq", "_lam2", "_n_rows")
SPS_CHIP = 20                                # samples per preamble chip


# -- timing solver comb bands -------------------------------------------

_build = st.tuples(
    st.sampled_from([4, 8, 12, 24]),        # n_taps
    st.sampled_from([32.0, 96.0]),           # preamble_us
    st.sampled_from([1, 3]),                 # stack rows
    st.integers(0, 3),                       # window width class
    st.integers(-40, 60),                    # window start vs nominal
    st.one_of(st.none(), st.integers(-60, 120)),  # capture end vs preamble
    st.integers(0, 2 ** 16),                 # data seed
)


def _solver(build):
    n_taps, preamble_us, rows, width_class, lo_rel, cut, seed = build
    rng = np.random.default_rng(seed)
    nominal = 200
    span = int(preamble_us) * SPS_CHIP
    # ``cut`` ends the capture around the preamble end, so the window's
    # last rows reach it; ``None`` leaves room to spare.
    n = nominal + span + (400 if cut is None else cut)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    lo = nominal + lo_rel
    return BatchPreambleSolver(x, y, preamble_us, n_taps=n_taps,
                               start_window=(lo, lo + 8 * width_class + 5))


@settings(deadline=None, max_examples=30)
@given(builds=st.lists(_build, min_size=2, max_size=6))
def test_solver_band_cache_is_byte_identical(builds):
    # Few (n_chips, seed) keys, so later builds reuse the entries earlier
    # ones made -- with other taps, captures and windows.
    _comb_band.cache_clear()
    warm = [_solver(b) for b in builds]
    for build, solver in zip(builds, warm):
        _comb_band.cache_clear()
        fresh = _solver(build)
        for name in _TABLES:
            a, b = getattr(solver, name), getattr(fresh, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


def test_solver_bands_are_bounded_and_read_only():
    _solver((12, 32.0, 1, 1, 0, None, 1))
    for seed in (None, 0x35):
        assert not _comb_band(32, seed).flags.writeable
    assert _comb_band.cache_info().maxsize is not None


# -- boundary walk ----------------------------------------------------------

def _whole_walk_selection(score, search, n_taps):
    """The selection walk scoring the boundary walk in one call."""
    step = SYNC_STEP
    best = None
    coarse = list(range(-search, search + 1, step))
    for off, m in zip(coarse, score(coarse)):
        if m is not None and (best is None or m < best[0]):
            best = (m, off)
    if best is None:
        return None
    refine = [off for off in range(best[1] - step + 1, best[1] + step)
              if off != best[1]]
    for off, m in zip(refine, score(refine)):
        if m is not None and m < best[0]:
            best = (m, off)
    tol = 1.5 * best[0] + 1e-30
    walk = list(range(best[1] + 1, best[1] + 1 + n_taps + step))
    for off, m in zip(walk, score(walk)):
        if m is None or m > tol:
            break
        best = (m, off)
    return best


@settings(deadline=None, max_examples=100)
@given(search=st.integers(0, 24), n_taps=st.sampled_from([4, 8, 12]),
       metrics=st.lists(st.one_of(st.none(),
                                  st.sampled_from([1.0, 1.2, 1.4, 2.0]),
                                  st.floats(0.5, 3.0)),
                        min_size=96, max_size=96))
def test_chunked_walk_selects_the_whole_walk_offset(search, n_taps,
                                                    metrics):
    base = search + SYNC_STEP

    def score(offsets):
        return [metrics[off + base] for off in offsets]

    assert replay_offset_selection(score, search, n_taps) \
        == _whole_walk_selection(score, search, n_taps)


@pytest.mark.parametrize("scenario", ["paper-1m", "streaming-50",
                                      "paper-5m"])
def test_chunked_walk_on_captures(scenario):
    src = CaptureSource(scenario)
    reader = src.built.reader
    for _ in range(3):
        cap, _ = src.next_exchange()
        canc = reader.canceller.cancel(cap.x_pa, cap.rx, src.built.scene.h_env,
                                       reader.silent_rows(cap.timeline))
        nominal = cap.timeline.nominal_preamble_start
        search = int(reader.sync_search_us * 20)
        t = reader.n_channel_taps
        picks = []
        for walk in (replay_offset_selection, _whole_walk_selection):
            solver = BatchPreambleSolver(
                cap.x_pa, canc.cleaned[None], cap.timeline.preamble_us,
                n_taps=t, start_window=candidate_window(nominal, search, t))
            scores = OffsetScores(solver, nominal)
            picks.append((walk(scores.row(0), search, t),
                          scores.n_evaluated))
        (chunked, n_chunked), (whole, n_whole) = picks
        assert chunked[1] == whole[1]
        assert n_chunked <= n_whole


# -- cached waveforms -------------------------------------------------------

def test_plcp_preamble_is_cached_read_only():
    pre = plcp_preamble()
    assert not pre.flags.writeable
    assert plcp_preamble() is pre
    fresh = np.concatenate([short_training_field(), long_training_field()])
    assert pre.tobytes() == fresh.tobytes()


def test_pn_and_chip_sequences_are_cached_read_only():
    for n, seed in ((16, 0x1234), (32, 0x35), (96, 0x35)):
        seq = pn_sequence(n, seed)
        assert not seq.flags.writeable
        assert seq.tobytes() == pn_sequence.__wrapped__(n, seed).tobytes()
    phases = tag_preamble_phases(32.0)
    assert not phases.flags.writeable
    assert phases.tobytes() == \
        tag_preamble_phases.__wrapped__(32.0).tobytes()
    rows = _valid_preamble_rows(100, 32, 12)
    assert rows.flags.writeable                      # built per call
    loop = np.concatenate([np.arange(100 + c * SPS_CHIP + 12,
                                     100 + (c + 1) * SPS_CHIP)
                           for c in range(32)])
    assert rows.dtype == loop.dtype and np.array_equal(rows, loop)


@pytest.mark.parametrize("seed", [0x5D, 0x11])
def test_cts_waveform_per_scrambler_seed(seed):
    cts = _cts_waveform(seed)
    assert not cts.flags.writeable
    fresh = WifiTransmitter(seed).transmit(cts_to_self(),
                                           CTS_RATE_MBPS).samples
    gap = int(IFS_US * 20)
    assert cts.size == fresh.size + gap
    assert cts[:fresh.size].tobytes() == fresh.tobytes()
    assert not cts[fresh.size:].any()
    # The timeline is a scaled copy: mutating it leaves the cache alone.
    tl = build_ap_transmission(b"\x5a" * 64, 24,
                               transmitter=WifiTransmitter(seed))
    assert tl.samples.flags.writeable
    tl.samples[:] = 0.0
    assert _cts_waveform(seed).tobytes() == cts.tobytes()


def test_other_scrambler_seed_gets_its_own_cts():
    a = build_ap_transmission(b"\x01" * 32, 24)
    b = build_ap_transmission(b"\x01" * 32, 24,
                              transmitter=WifiTransmitter(0x11))
    assert a.id_preamble_start == b.id_preamble_start
    assert not np.array_equal(a.samples[:a.id_preamble_start],
                              b.samples[:b.id_preamble_start])


# -- condition-number probe ---------------------------------------------------

def _svd_condition_number(x, start, preamble_us, n_taps):
    n_chips = int(round(preamble_us))
    rows = _valid_preamble_rows(start, n_chips, n_taps)
    rows = rows[rows < x.size]
    s = np.linalg.svd(convolution_matrix(x, n_taps, rows), compute_uv=False)
    return float(s[0] / s[-1])


@pytest.mark.parametrize("excitation, rtol", [("wifi", 1e-9),
                                              ("ble", 1e-6),
                                              ("zigbee", 1e-6)])
def test_condition_number_gram_matches_svd(excitation, rtol):
    sc = get_scenario("paper-1m").with_overrides(
        f"link.excitation={excitation}")
    src = CaptureSource(sc)
    for _ in range(2):
        tl, x_pa, _ = src.next_transmission()
        for n_taps in (8, 12):
            for off in (-3, 0, 5):
                start = tl.nominal_preamble_start + off
                got = preamble_condition_number(x_pa, start, tl.preamble_us,
                                                n_taps=n_taps)
                ref = _svd_condition_number(x_pa, start, tl.preamble_us,
                                            n_taps)
                assert got == pytest.approx(ref, rel=rtol)


# -- row-wise depth and AGC -----------------------------------------------------

def _stack(rng, n_rows, n, zero_rows=()):
    y = rng.standard_normal((n_rows, n)) + 1j * rng.standard_normal((n_rows, n))
    y *= 10.0 ** rng.uniform(-4, 1, (n_rows, 1))
    y[list(zero_rows)] = 0.0
    return y


@pytest.mark.parametrize("n_rows", [1, 2, 3, 32])
def test_row_wise_depth_equals_per_row(n_rows):
    rng = np.random.default_rng(n_rows)
    zero = [0] if n_rows > 1 else []
    y = _stack(rng, n_rows, 1500, zero)
    after = y * rng.uniform(1e-4, 1e-2, (n_rows, 1)) \
        + 1e-9 * _stack(rng, n_rows, 1500)
    after[-1] = 0.0                          # a perfectly cancelled row
    cols = np.sort(rng.choice(1500, 300, replace=False))
    # Column selections are column-major, as in the pipeline.
    for before, aft in ((y[:, cols], after[:, cols]), (y, after)):
        got = _depth_db(before, aft)
        ref = np.array([residual_power_db(b, a)
                        for b, a in zip(before, aft)])
        assert got.tobytes() == ref.tobytes()
        assert row_power(before).tobytes() == \
            np.array([power(b) for b in before]).tobytes()


@pytest.mark.parametrize("n_rows", [1, 2, 3, 32])
def test_row_wise_agc_equals_per_row(n_rows):
    rng = np.random.default_rng(100 + n_rows)
    zero = [n_rows - 1] if n_rows > 1 else []
    x = _stack(rng, n_rows, 1200, zero)
    x[:, ::50] *= 6.0                        # clip some samples
    adc = Adc(bits=10)
    quantized, saturated = adc.agc_quantize(x)
    for b in range(n_rows):
        row = adc.for_signal(x[b])
        assert quantized[b].tobytes() == row.quantize(x[b]).tobytes()
        assert bool(saturated[b]) == bool(
            np.max(np.abs(x[b].real)) > row.full_scale
            or np.max(np.abs(x[b].imag)) > row.full_scale)
