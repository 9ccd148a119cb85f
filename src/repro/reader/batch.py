"""Batched decode of many backscatter exchanges against one excitation.

A dense BackFi deployment decodes the same excitation against many
received signals (one per responding tag placement): the AP transmits
once, and every exchange in the round shares ``timeline.samples``.  The
per-exchange pipeline (:meth:`BackFiReader.decode`) then repeats a lot
of excitation-only work per element -- the digital canceller's Gram
matrix, the sync sweep's Gram tables and factorisations, the Viterbi
trellis' per-step Python dispatch.

:class:`BatchedDecoder` runs the identical pipeline once over a whole
stack of exchanges:

* analog cancellation keeps the per-element error draws (each element's
  generator stream is untouched), but everything downstream shares the
  excitation-side factorisations;
* digital cancellation trains all elements through **one** convolution
  matrix / Gram factorisation and a multi-RHS solve;
* the fine-timing sweep scores the full candidate grid for every
  element through :class:`~repro.reader.fastpath.BatchPreambleSolver`
  -- the solver the scalar search runs on a stack of one, its Gram
  tables and factorisations shared by the batch -- then runs the
  scalar search's selection walk
  (:func:`~repro.reader.sync.replay_offset_selection`) per element on
  the precomputed metric table;
* the reference channel estimate, MRC, soft demap and Viterbi decode
  run batched, grouped by winning preamble start (one group in the
  common case); the Viterbi kernel is the one the scalar decoder runs
  on a stack of one.

Equivalence contract: every element's result matches a standalone
``reader.decode`` call to float64 rounding -- decoded bits and ok flags
exactly, float diagnostics to rtol ``1e-10`` (the only differences come
from BLAS summation-order changes around 1e-15).  Elements whose first
pass fails a recoverable failure fall back to the per-exchange recovery
ladder with their generator rewound, so even the escalation path is
byte-identical to the loop.  ``tests/test_batch_decode.py`` asserts the
contract over a 100-exchange snapshot.
"""

from __future__ import annotations

import numpy as np

from ..coding.convolutional import CONSTRAINT, _keep_mask
from ..coding.viterbi import viterbi_decode_soft_batch
from ..constants import SAMPLES_PER_US
from ..dsp.fastpath import fast_convolve, stacked_convolve
from ..dsp.measurements import residual_power_db
from ..link.frames import parse_frame_bits
from ..link.protocol import ApTimeline
from ..telemetry import get_collector
from .cancellation import CancellationResult, ls_channel_estimate
from .channel_est import ChannelEstimate, estimate_combined_channel_group
from .decoder import TagDecodeOutput
from .demod import psk_soft_llrs
from .failures import FailureKind, ReaderFailure
from .fastpath import BatchPreambleSolver
from .mrc import MrcOutput, _mrc_combine
from .reader import BackFiReader, ReaderResult
from .sync import (
    candidate_window,
    replay_offset_selection,
    timing_prior,
    winning_sync,
)

__all__ = ["BatchedDecoder"]


def _rng_state(rng: np.random.Generator | None):
    return None if rng is None else rng.bit_generator.state


def _restore_rng(rng: np.random.Generator | None, state) -> None:
    if rng is not None and state is not None:
        rng.bit_generator.state = state


class BatchedDecoder:
    """Vectorised many-exchange decode sharing one reader's pipeline."""

    def __init__(self, reader: BackFiReader):
        self.reader = reader

    def decode_batch(self, timeline: ApTimeline, rx_batch: np.ndarray,
                     h_env_batch, *,
                     pa_output: np.ndarray | None = None,
                     rngs: list[np.random.Generator | None] | None = None,
                     ) -> list[ReaderResult]:
        """Decode every exchange of the batch.

        Parameters mirror :meth:`BackFiReader.decode` with a leading
        batch axis: ``rx_batch`` is ``(n_batch, n_samples)`` aligned
        with ``timeline.samples``, ``h_env_batch`` a sequence of
        per-element self-interference channels, ``rngs`` the
        per-element generators the analog canceller draws its
        component-precision error from (``None`` entries use the
        deterministic default seed, exactly like the scalar path).
        """
        reader = self.reader
        x = timeline.samples if pa_output is None else \
            np.asarray(pa_output, dtype=np.complex128)
        rx = np.asarray(rx_batch, dtype=np.complex128)
        if rx.ndim != 2 or rx.shape[1] != x.size:
            raise ValueError("rx_batch must be (n_batch, len(samples))")
        n_batch = rx.shape[0]
        h_env = [np.asarray(h) for h in h_env_batch]
        if len(h_env) != n_batch:
            raise ValueError("one h_env per batch element required")
        if rngs is None:
            rngs = [None] * n_batch
        if len(rngs) != n_batch:
            raise ValueError("one rng per batch element required")

        tm = get_collector()
        with tm.span("reader.decode_batch") as sp:
            if reader.track_phase:
                # Decision-directed tracking is sequential per symbol;
                # the batch API degrades to the per-exchange loop.
                results = [
                    reader.decode(timeline, rx[b], h_env[b],
                                  pa_output=pa_output, rng=rngs[b])
                    for b in range(n_batch)
                ]
                if tm.enabled:
                    sp.probe("n_batch", n_batch)
                    sp.probe("vectorized", False)
                return results

            states = [_rng_state(r) for r in rngs]
            results = self._decode_batch_single_pass(
                timeline, x, rx, h_env, rngs)
            # Recoverable first-pass failures re-enter the per-exchange
            # escalation ladder with the generator rewound, replaying
            # the (failing) first pass so the stream consumption -- and
            # therefore every later draw -- matches the scalar path.
            n_fallback = 0
            for b, res in enumerate(results):
                if (reader.recovery and not res.ok
                        and res.failure is not None
                        and res.failure.recoverable):
                    _restore_rng(rngs[b], states[b])
                    results[b] = reader._decode_with_recovery(
                        timeline, rx[b], h_env[b],
                        pa_output=pa_output, rng=rngs[b])
                    n_fallback += 1
            if tm.enabled:
                sp.probe("n_batch", n_batch)
                sp.probe("vectorized", True)
                sp.probe("n_ok", sum(1 for r in results if r.ok))
                sp.probe("n_fallback", n_fallback)
            return results

    # -- single pass ---------------------------------------------------

    def _decode_batch_single_pass(self, timeline: ApTimeline,
                                  x: np.ndarray, rx: np.ndarray,
                                  h_env: list[np.ndarray],
                                  rngs) -> list[ReaderResult]:
        reader = self.reader
        canceller = reader.canceller
        n_batch, n = rx.shape
        silent = reader.silent_rows(timeline)

        # 1. self-interference cancellation (per-element analog error
        # draws, shared digital Gram).  The board-tap draws happen per
        # element in generator order; the excitation convolution then
        # runs once for the whole tap stack (trailing zero-padding of
        # shorter tap vectors convolves to exact zeros).
        if canceller.analog_enabled:
            taps = [canceller.analog.tuned_taps(h_env[b], rng=rngs[b])
                    for b in range(n_batch)]
            width = max(t.size for t in taps)
            tap_stack = np.zeros((n_batch, width), dtype=np.complex128)
            for b, t in enumerate(taps):
                tap_stack[b, : t.size] = t
            after_analog = rx - stacked_convolve(x, tap_stack)[..., :n]
        else:
            after_analog = rx.copy()
        analog_db = [
            residual_power_db(rx[b, silent], after_analog[b, silent])
            for b in range(n_batch)
        ]

        quantized, saturated = canceller.adc.agc_quantize(after_analog)

        split = (3 * silent.size) // 4
        train_rows = silent[:split]
        eval_rows = silent[split:]
        if canceller.digital_enabled:
            cleaned = self._digital_cancel_batch(
                x, quantized, canceller.digital, train_rows)
        else:
            cleaned = quantized
        cancs = [
            CancellationResult(
                cleaned=cleaned[b],
                analog_residual_db=analog_db[b],
                digital_residual_db=residual_power_db(
                    quantized[b, eval_rows], cleaned[b, eval_rows]),
                total_depth_db=residual_power_db(
                    rx[b, eval_rows], cleaned[b, eval_rows]),
                adc_saturated=bool(saturated[b]),
            )
            for b in range(n_batch)
        ]
        held_out = silent[(3 * silent.size) // 4:]
        noise_floor = np.mean(np.abs(cleaned[:, held_out]) ** 2, axis=1)

        # 2. fine timing: score the candidate grid for every element at
        # once, then run the scalar selection walk on the metric table.
        results: list[ReaderResult | None] = [None] * n_batch
        search = int(reader.sync_search_us * SAMPLES_PER_US)
        n_taps = reader.n_channel_taps
        nominal = timeline.nominal_preamble_start
        lo, hi = window = candidate_window(nominal, search, n_taps)
        solver = BatchPreambleSolver(
            x, cleaned, timeline.preamble_us, n_taps=n_taps,
            preamble_seed=reader.preamble_seed, start_window=window)
        # Every offset the walk can visit (it never reaches lo itself).
        grid = np.arange(lo + 1, hi + 1) - nominal
        feasible, resid_p, gain = solver.evaluate(nominal + grid)
        with np.errstate(invalid="ignore"):
            metric = resid_p / gain * timing_prior(grid)[None, :]

        grid0 = int(grid[0])

        def table_score(b: int):
            feas, met = feasible[b], metric[b]

            def score(offsets: list[int]) -> list[float | None]:
                return [float(met[off - grid0]) if feas[off - grid0]
                        else None for off in offsets]
            return score

        groups: dict[int, list[int]] = {}
        for b in range(n_batch):
            best = replay_offset_selection(table_score(b), search, n_taps)
            if best is None:
                results[b] = ReaderResult(
                    ok=False, cancellation=cancs[b],
                    noise_floor_mw=float(noise_floor[b]),
                    failure=ReaderFailure(
                        FailureKind.SYNC,
                        "no feasible timing offset found"),
                )
            else:
                groups.setdefault(best[1], []).append(b)

        # 3.-4. per winning offset: reference estimate, MRC, decode.
        sps = reader.tag_config.samples_per_symbol
        for off, idxs in groups.items():
            start = nominal + off
            ests = estimate_combined_channel_group(
                x, cleaned[np.asarray(idxs)], start, timeline.preamble_us,
                n_taps=n_taps, preamble_seed=reader.preamble_seed)
            syncs = [winning_sync(nominal, off, est) for est in ests]
            data_start = start + int(timeline.preamble_us
                                     * SAMPLES_PER_US)
            n_symbols = (timeline.wifi_end - data_start) // sps
            if n_symbols < 1:
                for j, b in enumerate(idxs):
                    results[b] = ReaderResult(
                        ok=False, cancellation=cancs[b], sync=syncs[j],
                        channel=ests[j],
                        noise_floor_mw=float(noise_floor[b]),
                        failure=ReaderFailure(
                            FailureKind.NO_CAPACITY,
                            "no room for payload symbols"),
                    )
                continue
            mrcs = self._mrc_group(x, cleaned, idxs, ests, data_start,
                                   sps, int(n_symbols), noise_floor)
            decodes = self._decode_group(mrcs)
            for j, b in enumerate(idxs):
                decode = decodes[j]
                ok = decode.ok
                failure = None
                if not ok:
                    failure = BackFiReader._classify_crc_failure(
                        cancs[b], float(noise_floor[b]))
                results[b] = ReaderResult(
                    ok=ok,
                    payload_bits=decode.payload_bits,
                    n_symbols=int(n_symbols),
                    symbol_snr_db=mrcs[j].mean_snr_db(),
                    noise_floor_mw=float(noise_floor[b]),
                    cancellation=cancs[b],
                    sync=syncs[j],
                    channel=ests[j],
                    mrc=mrcs[j],
                    decode=decode,
                    failure=failure,
                )
        return results

    # -- stage helpers -------------------------------------------------

    @staticmethod
    def _digital_cancel_batch(x: np.ndarray, quantized: np.ndarray,
                              digital, train_rows: np.ndarray
                              ) -> np.ndarray:
        """All elements' digital cancellation off one Gram factorisation.

        Mirrors ``DigitalCanceller.cancel`` per element by calling
        :func:`ls_channel_estimate` with the quantized captures stacked
        as multi-RHS columns: the normal-equation solve, the ridge and
        the singular-Gram SVD fallback are the scalar path's own code,
        so every element's taps match its scalar fit to float64 rounding
        while the design matrix is factored exactly once.
        """
        n = quantized.shape[1]
        h_all = ls_channel_estimate(x, quantized, digital.n_taps,
                                    rows=train_rows)
        return quantized - stacked_convolve(x, h_all)[..., :n]

    def _mrc_group(self, x: np.ndarray, cleaned: np.ndarray,
                   idxs: list[int], ests: list[ChannelEstimate],
                   data_start: int, sps: int, n_symbols: int,
                   noise_floor: np.ndarray) -> list[MrcOutput]:
        guard = min(6, max(sps // 2, 1), sps - 1)
        span0 = data_start
        span1 = data_start + n_symbols * sps
        n_taps = ests[0].h_fb.size
        # Template on the payload span only, one GEMM for the group:
        # T[j, i] = sum_k h[j, k] x[span0 + i - k].
        xs = np.empty((n_taps, span1 - span0), dtype=np.complex128)
        for k in range(n_taps):
            xs[k] = x[span0 - k: span1 - k]
        h_mat = np.stack([est.h_fb for est in ests], axis=0)
        template = h_mat @ xs                            # (n_group, span)

        floors = np.asarray([float(noise_floor[b]) for b in idxs])
        if np.all(floors > 0):
            # One batched combine over the payload span (the span-only
            # template is already aligned, so data_start becomes 0).
            out = _mrc_combine(
                cleaned[np.asarray(idxs), span0:span1], template, 0, sps,
                n_symbols, guard=guard, noise_floor=floors)
            return [
                MrcOutput(symbols=out.symbols[j],
                          noise_var=out.noise_var[j],
                          template_energy=out.template_energy[j])
                for j in range(len(idxs))
            ]
        # Zero measured floor somewhere: the scalar path infers the
        # noise from post-combine residuals; run it verbatim per element.
        outs = []
        for j, b in enumerate(idxs):
            full_template = fast_convolve(
                x, ests[j].h_fb)[: cleaned.shape[1]]
            outs.append(_mrc_combine(
                cleaned[b], full_template, data_start, sps,
                n_symbols, guard=guard, noise_floor=float(noise_floor[b])))
        return outs

    def _decode_group(self, mrcs: list[MrcOutput]) -> list[TagDecodeOutput]:
        cfg = self.reader.tag_config
        symbols = np.stack([m.symbols for m in mrcs], axis=0)
        noise_var = np.stack([m.noise_var for m in mrcs], axis=0)
        llrs = psk_soft_llrs(symbols, cfg.modulation, noise_var)
        length = llrs.shape[1]
        if cfg.code_rate == "1/2":
            mother = llrs[:, : length - (length % 2)]
        else:
            n_coded = length - (length % 3)
            n_mother = n_coded // 3 * 4
            keep = _keep_mask(cfg.code_rate, n_mother)
            mother = np.zeros((len(mrcs), n_mother))
            mother[:, keep] = llrs[:, :n_coded]
        if mother.shape[1] < 2 * CONSTRAINT:
            return [
                TagDecodeOutput(frame=None,
                                decoded_bits=np.empty(0, dtype=np.uint8),
                                llrs=llrs[j])
                for j in range(len(mrcs))
            ]
        decoded = viterbi_decode_soft_batch(mother, terminated=False)
        return [
            TagDecodeOutput(frame=parse_frame_bits(decoded[j]),
                            decoded_bits=decoded[j], llrs=llrs[j])
            for j in range(len(mrcs))
        ]


