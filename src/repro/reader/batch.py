"""The BackFi reader pipeline (paper Fig. 5) over a leading batch axis.

There is one decode pipeline and it runs on a stack of captures of one
AP transmission (shared excitation; per-row receive signal,
self-interference channel and analog-canceller generator).
``BackFiReader.decode`` is the pipeline on a stack of one,
:class:`BatchedDecoder` runs it on a whole stack, and
``StreamingDecoder.finish`` enters it at the frame barrier with its own
cancellation result.

:func:`decode_pass` runs each stage once over the stack: cancellation
(:meth:`SelfInterferenceCanceller.cancel`), the timing search
(:func:`search_timing`), then per group of rows sharing a winning
preamble start (one group in the common case) the combined-channel
estimate, maximal-ratio combining over the payload span, optional
phase tracking and :func:`decode_symbol_rows`.  :func:`decode_stack`
adds the recovery ladder, re-running only the failing rows, grouped by
escalation state; each row's generator simply continues, so a row draws
exactly what it would in a stack of one.

Contract (``tests/test_batch_decode.py``): every row decodes as its
stack of one -- bits, ``ok``, failure kind and recovery attempts
exactly, float diagnostics to rtol ``1e-10`` (stacks of different sizes
differ only in BLAS summation order).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..channel.noise import noise_power_mw
from ..coding.convolutional import CONSTRAINT, depuncture
from ..coding.viterbi import viterbi_decode_soft_batch
from ..constants import SAMPLES_PER_US
from ..dsp.fastpath import stacked_convolve  # noqa: F401
from ..link.frames import parse_frame_bits
from ..link.protocol import ApTimeline
from ..tag.config import TagConfig
from ..telemetry import get_collector, probe_rows
from .cancellation import (  # noqa: F401
    CancellationResult,
    SelfInterferenceCanceller,
    ls_channel_estimate,
)
from .channel_est import estimate_combined_channel_group, probe_estimates
from .decoder import TagDecodeOutput
from .demod import estimate_symbol_noise, psk_soft_llrs
from .failures import FailureKind, ReaderFailure
from .fastpath import BatchPreambleSolver
from .mrc import MrcOutput, _mrc_combine, payload_template, probe_mrc
from .reader import RESIDUAL_FLOOR_RISE_DB, BackFiReader, ReaderResult
from .sync import (
    OffsetScores,
    candidate_window,
    replay_offset_selection,
    winning_sync,
)
from .tracking import phase_track

# perfbench's per-stage tracer wraps names where this module binds them;
# ``stacked_convolve`` and ``ls_channel_estimate`` stay bound for it (it
# times their work, inside the cancellation chain, as reader.cancel).

__all__ = ["BatchedDecoder", "decode_pass", "decode_stack",
           "decode_symbol_rows", "search_timing"]


class BatchedDecoder:
    """The reader pipeline on a stack of exchanges of one transmission."""

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
        deterministic default seed, exactly like a stack of one).
        """
        tm = get_collector()
        with tm.span("reader.decode_batch") as sp:
            results = decode_stack(self.reader, timeline, rx_batch,
                                   h_env_batch, pa_output=pa_output,
                                   rngs=rngs)
            sp.probe("n_batch", len(results))
            if tm.enabled:
                sp.probe("n_ok", sum(r.ok for r in results))
                sp.probe("n_escalated",
                         sum(bool(r.recovery_attempts) for r in results))
            return results


@dataclass
class _Escalation:
    """One row's place on the recovery ladder."""

    search_us: float
    canceller: SelfInterferenceCanceller
    attempts: list[str] = field(default_factory=list)
    tried: set[FailureKind] = field(default_factory=set)

    def climb(self, kind: FailureKind, widen: float) -> None:
        self.tried.add(kind)
        if kind is FailureKind.SYNC:
            self.search_us *= widen
            self.attempts.append(
                f"sync: widened search window to {self.search_us:g} us")
        else:  # RESIDUAL_FLOOR and SATURATION share one deepen action
            self.canceller = self.canceller.deepen()
            self.attempts.append(
                "cancellation: re-ran with "
                f"{self.canceller.digital.n_taps} digital taps")
            self.tried.update({FailureKind.RESIDUAL_FLOOR,
                               FailureKind.SATURATION})


def decode_stack(reader: BackFiReader, timeline: ApTimeline,
                 rx: np.ndarray, h_env, *,
                 pa_output: np.ndarray | None = None, rngs=None,
                 cancellation: CancellationResult | None = None
                 ) -> list[ReaderResult]:
    """Decode a stack of captures, escalating recoverable failures.

    ``rx`` is ``(n_rows, len(timeline.samples))``; ``h_env`` and
    ``rngs`` hold one entry per row.  With ``reader.recovery`` on, a row
    whose pass failed recoverably climbs the ladder: a ``SYNC`` failure
    widens the timing search window, a ``RESIDUAL_FLOOR`` or
    ``SATURATION`` failure re-runs the chain with the digital canceller
    at doubled depth.  Escalations compose and each runs at most once,
    so a row costs at most three passes.  ``cancellation`` supplies the
    first pass's cancellation result; escalated passes re-run the chain.
    """
    x = timeline.samples if pa_output is None else \
        np.asarray(pa_output, dtype=np.complex128)
    rx = np.asarray(rx, dtype=np.complex128)
    if rx.ndim != 2 or rx.shape[1] != x.size:
        raise ValueError("rx must be (n_rows, len(samples)), aligned with "
                         "the transmitted waveform")
    n_rows = rx.shape[0]
    h_env = list(h_env)
    rngs = [None] * n_rows if rngs is None else list(rngs)
    if len(h_env) != n_rows or len(rngs) != n_rows:
        raise ValueError("one h_env and one rng per row required")
    if n_rows == 0:
        return []

    results = decode_pass(reader, timeline, x, rx, h_env, rngs,
                          canceller=reader.canceller,
                          search_us=reader.sync_search_us,
                          cancellation=cancellation)
    ladder: dict[int, _Escalation] = {}
    pending = range(n_rows)
    while reader.recovery and pending:
        groups: dict[tuple[float, int], list[int]] = {}
        for b in pending:
            failure = results[b].failure
            if failure is None or not failure.recoverable:
                continue
            state = ladder.setdefault(b, _Escalation(reader.sync_search_us,
                                                     reader.canceller))
            if failure.kind not in state.tried:
                state.climb(failure.kind, reader.sync_widen_factor)
                groups.setdefault((state.search_us,
                                   state.canceller.digital.n_taps),
                                  []).append(b)
        for rows in groups.values():
            rerun = decode_pass(reader, timeline, x, rx[rows],
                                [h_env[b] for b in rows],
                                [rngs[b] for b in rows],
                                canceller=ladder[rows[0]].canceller,
                                search_us=ladder[rows[0]].search_us)
            for b, result in zip(rows, rerun):
                results[b] = result
        pending = [b for rows in groups.values() for b in rows]
    for b, state in ladder.items():
        results[b] = replace(results[b],
                             recovery_attempts=tuple(state.attempts),
                             recovered=results[b].ok)
    return results


def decode_pass(reader: BackFiReader, timeline: ApTimeline,
                x: np.ndarray, rx: np.ndarray, h_env: list, rngs: list, *,
                canceller: SelfInterferenceCanceller, search_us: float,
                center: int | None = None,
                cancellation: CancellationResult | None = None
                ) -> list[ReaderResult]:
    """One pass of the pipeline over the stack ``rx`` (no recovery).

    ``x`` is the waveform the canceller taps.  ``cancellation``
    supplies the stack's cancellation result instead of running
    ``canceller``; ``center`` recentres the timing search away from the
    nominal preamble start (a warm session's previous offset).
    """
    silent = reader.silent_rows(timeline)
    canc = cancellation if cancellation is not None else \
        canceller.cancel(x, rx, h_env, silent, rng=rngs)
    cleaned = canc.cleaned
    n_rows = cleaned.shape[0]
    # The effective noise floor, on the part of the silent period the
    # digital canceller did not train on (last quarter).
    floors = np.mean(np.abs(cleaned[:, silent[(3 * silent.size) // 4:]])
                     ** 2, axis=-1)
    cancs = [canc.row(b) for b in range(n_rows)]
    results: list[ReaderResult | None] = [None] * n_rows

    def fail(b: int, kind: FailureKind, detail: str, **kwargs) -> None:
        results[b] = ReaderResult(
            ok=False, cancellation=cancs[b], noise_floor_mw=float(floors[b]),
            failure=ReaderFailure(kind, detail), **kwargs)

    if center is None:
        center = timeline.nominal_preamble_start
    n_taps = reader.n_channel_taps
    groups: dict[int, list[int]] = {}
    for b, best in enumerate(search_timing(
            x, cleaned, center, timeline.preamble_us, search_us=search_us,
            n_taps=n_taps, preamble_seed=reader.preamble_seed)):
        if best is None:
            fail(b, FailureKind.SYNC, "no feasible timing offset found")
        else:
            groups.setdefault(best[1], []).append(b)

    tm = get_collector()
    cfg = reader.tag_config
    sps = cfg.samples_per_symbol
    # Guard only the channel's actual delay spread (the ISI region at
    # each phase switch), not the full estimation-filter length -- at
    # 2.5 Msym/s a symbol is only 8 samples long.
    guard = min(6, max(sps // 2, 1), sps - 1)
    for off, idxs in groups.items():
        start = center + off
        group = idxs if len(idxs) < n_rows else slice(None)
        with tm.span("channel_est") as sp:
            ests = estimate_combined_channel_group(
                x, cleaned[group], start, timeline.preamble_us,
                n_taps=n_taps, preamble_seed=reader.preamble_seed)
            if tm.enabled:
                probe_estimates(sp, ests, x, start, timeline.preamble_us,
                                n_taps=n_taps)
        syncs = [winning_sync(center, off, est) for est in ests]
        data_start = start + int(timeline.preamble_us * SAMPLES_PER_US)
        n_symbols = int((timeline.wifi_end - data_start) // sps)
        if n_symbols < 1:
            for b, sync in zip(idxs, syncs):
                fail(b, FailureKind.NO_CAPACITY, "no room for payload symbols",
                     sync=sync, channel=sync.estimate)
            continue
        stop = data_start + n_symbols * sps
        with tm.span("mrc") as sp:
            template = payload_template(
                x, np.stack([est.h_fb for est in ests]), data_start, stop)
            mrc = _mrc_combine(cleaned[group, data_start:stop], template,
                               0, sps, n_symbols, guard=guard,
                               noise_floor=floors[group])
            if tm.enabled:
                probe_mrc(sp, mrc, sps, guard)
        symbols = mrc.symbols
        if reader.track_phase:
            symbols = np.stack([phase_track(row, cfg.modulation).symbols
                                for row in symbols])
        decodes = decode_symbol_rows(symbols, mrc.noise_var, cfg)
        for j, b in enumerate(idxs):
            row_mrc = MrcOutput(symbols=mrc.symbols[j],
                                noise_var=mrc.noise_var[j],
                                template_energy=mrc.template_energy[j])
            results[b] = ReaderResult(
                ok=decodes[j].ok, payload_bits=decodes[j].payload_bits,
                n_symbols=n_symbols, symbol_snr_db=row_mrc.mean_snr_db(),
                noise_floor_mw=float(floors[b]), cancellation=cancs[b],
                sync=syncs[j], channel=ests[j], mrc=row_mrc,
                decode=decodes[j], failure=None if decodes[j].ok else
                _classify_crc_failure(cancs[b], float(floors[b])))
    return results


def search_timing(x: np.ndarray, cleaned: np.ndarray, center: int,
                  preamble_us: float, *, search_us: float, n_taps: int,
                  preamble_seed: int) -> list[tuple[float, int] | None]:
    """The timing stage: each row's ``(metric, offset)`` or ``None``.

    One :class:`BatchPreambleSolver` covers the stack's candidate window
    around ``center``; each row runs the selection walk, and the walks
    share one lazily filled metric table (:class:`OffsetScores`).
    """
    search = int(search_us * SAMPLES_PER_US)
    tm = get_collector()
    with tm.span("sync") as sp:
        solver = BatchPreambleSolver(
            x, cleaned, preamble_us, n_taps=n_taps,
            preamble_seed=preamble_seed,
            start_window=candidate_window(center, search, n_taps))
        scores = OffsetScores(solver, center)
        bests = [replay_offset_selection(scores.row(b), search, n_taps)
                 for b in range(cleaned.shape[0])]
        found = [best for best in bests if best is not None]
        if tm.enabled and found:
            probe_rows(sp, "offset_samples", [off for _, off in found])
            probe_rows(sp, "metric", [m for m, _ in found])
        sp.probe("candidates", scores.n_evaluated)
        sp.probe("search_samples", 2 * search + 1)
    return bests


def decode_symbol_rows(symbols: np.ndarray, noise_var: np.ndarray,
                       config: TagConfig) -> list[TagDecodeOutput]:
    """Soft-demap, Viterbi-decode and parse a stack of MRC symbol rows.

    ``symbols`` is ``(n_rows, n_symbols)`` (``noise_var`` broadcasts to
    it); each row decodes exactly as a stack of one would.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    tm = get_collector()
    with tm.span("decode") as sp:
        llrs = psk_soft_llrs(symbols, config.modulation, noise_var)
        length = llrs.shape[-1]
        if config.code_rate == "1/2":
            mother = llrs[:, : length - length % 2]
        else:
            # The tag padded coded bits up to a whole symbol; trim the
            # coded stream to the largest length consistent with the
            # puncturing pattern (3 coded bits per 4 mother bits).
            n_coded = length - length % 3
            mother = depuncture(llrs[:, :n_coded], config.code_rate,
                                n_coded // 3 * 4)
        if mother.shape[-1] < 2 * CONSTRAINT:
            return [TagDecodeOutput(frame=None, llrs=row,
                                    decoded_bits=np.empty(0, dtype=np.uint8))
                    for row in llrs]
        decoded, path_metric = viterbi_decode_soft_batch(
            mother, terminated=False, return_metric=True)
        outs = [TagDecodeOutput(frame=parse_frame_bits(bits),
                                decoded_bits=bits, llrs=row)
                for bits, row in zip(decoded, llrs)]
        if tm.enabled:
            abs_sum = np.sum(np.abs(mother), axis=-1)
            probe_rows(sp, "path_metric", path_metric)
            probe_rows(sp, "viterbi_agreement", np.where(
                abs_sum > 0, path_metric / np.maximum(abs_sum, 1e-300), 0.0))
            probe_rows(sp, "mean_abs_llr", np.mean(np.abs(llrs), axis=-1))
            # Post-MRC EVM: RMS slicer error over RMS symbol magnitude
            # (the per-symbol constellation quality GuardRider-style
            # field debugging wants alongside SNR).
            power = np.mean(np.abs(symbols) ** 2, axis=-1)
            evm = [np.sqrt(estimate_symbol_noise(row, config.modulation)
                           / p) for row, p in zip(symbols, power) if p > 0]
            if evm:
                probe_rows(sp, "evm_rms", evm)
            probe_rows(sp, "frame_ok", [out.ok for out in outs])
            probe_rows(sp, "n_payload_bits",
                       [out.payload_bits.size for out in outs])
        return outs


def _classify_crc_failure(canc: CancellationResult,
                         noise_floor_mw: float) -> ReaderFailure:
    """Blame a CRC failure on the most anomalous upstream symptom.

    An ADC driven past full scale or a noise floor far above thermal
    points at the cancellation chain (recoverable by deepening the
    digital canceller); otherwise the frame simply did not have the SNR,
    and only the link layer can help.
    """
    if canc.adc_saturated:
        return ReaderFailure(FailureKind.SATURATION,
                             "frame CRC failed with ADC at full scale")
    thermal = noise_power_mw()
    if noise_floor_mw > 0 and thermal > 0:
        rise_db = 10.0 * float(np.log10(noise_floor_mw / thermal))
        if rise_db > RESIDUAL_FLOOR_RISE_DB:
            return ReaderFailure(
                FailureKind.RESIDUAL_FLOOR,
                f"frame CRC failed with noise floor {rise_db:.1f} dB "
                "above thermal")
    return ReaderFailure(FailureKind.CRC, "frame CRC failed")
