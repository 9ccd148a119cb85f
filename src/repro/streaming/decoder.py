"""Chunked, stateful frame decoding: the streaming half of the reader.

The batch reader consumes one complete capture per call.  A streaming
session instead announces an exchange (:meth:`StreamingDecoder.
begin_exchange` -- the AP knows what it transmitted before anything is
received), pushes receive samples in arbitrarily-sized chunks as they
arrive, and finalises at the frame barrier (:meth:`StreamingDecoder.
finish`).

**What streams, what waits.**  The analog cancellation stage is a
per-sample subtraction against a reconstruction known in full at
``begin_exchange`` time, so it runs chunk-by-chunk as samples land.
Everything after it is pinned to the frame barrier by a global
statistic: the ADC's AGC scales to the RMS of the *whole* capture
(:meth:`repro.channel.hardware.Adc.for_signal`), and the digital LS fit,
sync search and MRC all consume the quantised capture.  Splitting there
-- and drawing the analog canceller's rng error at ``begin_exchange``,
the same stream position ``reader.decode`` draws it -- is what makes a
chunked decode **byte-identical** to ``reader.decode`` on the same
capture: :meth:`StreamingDecoder.finish` completes the cancellation
chain on the assembled capture and enters the one reader pipeline
(:mod:`repro.reader.batch`) with it as a stack of one
(``tests/test_streaming.py`` asserts it for generated chunk partitions).

**Warm start.**  With ``warm_start=True`` the decoder carries state
across a session's exchanges instead of re-fitting per capture: the
digital canceller's FIR taps are reused while they keep the held-out
silent residual near thermal (:data:`~repro.reader.cancellation.
WARM_REUSE_MAX_RISE_DB`), and the sync search is recentred on the
previous exchange's timing offset with a narrowed window
(``warm_sync_search_us``).  A warm pass that fails anything falls back
to the full cold pipeline on the same capture, so warmth can cost one
extra attempt but never a frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import SAMPLES_PER_US, SILENT_US
from ..link.protocol import ApTimeline
from ..reader.batch import decode_pass, decode_stack
from ..reader.reader import BackFiReader, ReaderResult
from ..telemetry import get_collector

__all__ = ["StreamingDecoder", "StreamProgress", "WarmState",
           "DEFAULT_WARM_SYNC_SEARCH_US"]

DEFAULT_WARM_SYNC_SEARCH_US = 0.5
"""Sync search half-window of a warm-started pass.  The tag's timing
offset is set by channel geometry, which barely moves between a
session's exchanges; a quarter of the cold default (2 us) keeps the
search cheap while still absorbing sample-scale drift."""


@dataclass
class StreamProgress:
    """Where one exchange's ingest currently stands."""

    received: int
    total: int
    exchange_index: int
    phase: str
    """``"filling-silent"`` until the tag's silent period is fully
    ingested (the digital canceller's training data), ``"filling-payload"``
    while the backscattered frame is landing, ``"ready"`` once the
    capture is complete and :meth:`StreamingDecoder.finish` may run."""

    @property
    def complete(self) -> bool:
        return self.received >= self.total


@dataclass
class WarmState:
    """Decoder state carried across a warm session's exchanges."""

    analog_taps: np.ndarray | None = field(default=None, repr=False)
    """The analog canceller board's tuned tap state.  Hardware trim is
    fixed once tuned, so a warm session draws it on the first exchange
    and keeps it -- which is also what makes the *digital* taps
    reusable: they model the residual the analog stage leaves."""

    digital_taps: np.ndarray | None = field(default=None, repr=False)
    """Last exchange's digital-canceller FIR estimate."""

    sync_offset: int | None = None
    """Last exchange's timing offset relative to the protocol's nominal
    preamble start (geometry-driven, so it transfers across exchanges
    even when the excitation length changes)."""


class StreamingDecoder:
    """Decodes one tag session's exchanges from chunked sample ingest.

    One instance per session; not thread-safe (the multiplexer leaves a
    decoder alone while its frame-barrier decode runs on a worker).
    ``warm_start=False`` (the default) makes every exchange an
    independent cold decode, byte-identical to the batch path;
    ``warm_start=True`` trades that equivalence for skipped re-fits on
    stable channels.
    """

    def __init__(self, reader: BackFiReader, *, warm_start: bool = False,
                 warm_sync_search_us: float = DEFAULT_WARM_SYNC_SEARCH_US):
        self.reader = reader
        self.warm_start = bool(warm_start)
        self.warm_sync_search_us = float(warm_sync_search_us)
        self.warm = WarmState()
        # Lifetime counters (the per-session stats surface).
        self.exchanges_begun = 0
        self.exchanges_decoded = 0
        self.chunks_ingested = 0
        self.samples_ingested = 0
        self.warm_reuses = 0
        """Exchanges whose digital taps were reused without a re-fit."""
        self.warm_fallbacks = 0
        """Warm passes that failed and re-ran the cold pipeline."""
        self._reset_exchange()

    def _reset_exchange(self) -> None:
        self._timeline: ApTimeline | None = None
        self._h_env = None
        self._x = None
        self._rng = None
        self._staged = None
        self._rx = None
        self._after_analog = None
        self._received = 0
        self._total = 0
        self._silent_end = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def in_exchange(self) -> bool:
        """Whether an exchange has begun and not yet finished/aborted."""
        return self._timeline is not None

    @property
    def complete(self) -> bool:
        """Whether the current exchange's capture is fully ingested."""
        return self.in_exchange and self._received >= self._total

    @property
    def received_samples(self) -> int:
        """The in-order ingest high-water mark of the open exchange."""
        return self._received

    @property
    def total_samples(self) -> int:
        """Announced capture length of the open exchange (0 if none)."""
        return self._total

    def checkpoint(self) -> dict:
        """The resumable-progress snapshot of this decoder.

        Everything a reconnecting client needs to continue an
        interrupted exchange: the received high-water mark (replay
        starts at the next chunk boundary past it) plus which warm
        state the session is carrying.  The assembly buffers themselves
        stay server-side -- resume is a *protocol* property, not a
        state download.
        """
        return {
            "in_exchange": self.in_exchange,
            "received_samples": int(self._received),
            "total_samples": int(self._total),
            "exchanges_begun": self.exchanges_begun,
            "exchanges_decoded": self.exchanges_decoded,
            "warm": {
                "analog_taps": self.warm.analog_taps is not None,
                "digital_taps": self.warm.digital_taps is not None,
                "sync_offset": self.warm.sync_offset,
            },
        }

    def begin_exchange(self, timeline: ApTimeline, h_env: np.ndarray, *,
                       pa_output: np.ndarray | None = None,
                       rng: np.random.Generator | None = None) -> int:
        """Announce the next exchange; returns the capture length.

        Mirrors the arguments of :meth:`BackFiReader.decode` minus the
        receive signal, which arrives later through :meth:`push`.  The
        analog canceller's component-precision error is drawn *here*
        (first use of ``rng``, exactly as in the batch path) and the
        full-length analog reconstruction precomputed, so each pushed
        chunk can be analog-cancelled immediately.
        """
        if self.in_exchange:
            raise RuntimeError(
                "previous exchange still open; finish() or "
                "abort_exchange() first"
            )
        x = timeline.samples if pa_output is None else \
            np.asarray(pa_output, dtype=np.complex128)
        n = int(x.size)
        self._timeline = timeline
        self._h_env = h_env
        self._x = x
        self._rng = rng
        analog_taps = self.warm.analog_taps if self.warm_start else None
        self._staged = self.reader.canceller.begin(
            x, h_env, n, rng=rng, analog_taps=analog_taps)
        self._rx = np.empty(n, dtype=np.complex128)
        self._after_analog = np.empty(n, dtype=np.complex128)
        self._received = 0
        self._total = n
        self._silent_end = timeline.nominal_silent_start + \
            int(SILENT_US * SAMPLES_PER_US)
        self.exchanges_begun += 1
        return n

    def push(self, chunk: np.ndarray) -> StreamProgress:
        """Ingest one chunk of receive samples (any size, in order).

        The chunk is copied into the assembly buffer and analog-cancelled
        in place -- cheap per-sample work; the expensive frame-barrier
        stages wait for :meth:`finish`.
        """
        if not self.in_exchange:
            raise RuntimeError("no exchange open; begin_exchange() first")
        chunk = np.asarray(chunk, dtype=np.complex128).ravel()
        start = self._received
        end = start + chunk.size
        if end > self._total:
            raise ValueError(
                f"chunk overruns the capture: {end} > {self._total} samples"
            )
        self._rx[start:end] = chunk
        self._after_analog[start:end] = self._staged.analog(chunk, start)
        self._received = end
        self.chunks_ingested += 1
        self.samples_ingested += chunk.size
        return self._progress()

    def _progress(self) -> StreamProgress:
        if self._received >= self._total:
            phase = "ready"
        elif self._received < self._silent_end:
            phase = "filling-silent"
        else:
            phase = "filling-payload"
        return StreamProgress(
            received=self._received,
            total=self._total,
            exchange_index=self.exchanges_begun - 1,
            phase=phase,
        )

    def abort_exchange(self) -> None:
        """Drop the current exchange's partial capture (session teardown,
        or a producer giving up on the exchange)."""
        self._reset_exchange()

    # -- the frame barrier -------------------------------------------------

    def finish(self) -> ReaderResult:
        """Run the frame-barrier stages on the assembled capture.

        Emits the same ``reader.decode`` telemetry span (with the five
        stage spans nested under it) as the batch entry point.
        """
        if not self.complete:
            raise RuntimeError(
                f"capture incomplete: {self._received}/{self._total} samples"
            )
        tm = get_collector()
        with tm.span("reader.decode") as sp:
            result = self._finish_pipeline()
            if tm.enabled:
                self.reader.probe_decode_result(sp, result)
        if self.warm_start:
            self._carry_warm_state(result)
        self._reset_exchange()
        self.exchanges_decoded += 1
        return result

    def _finish_pipeline(self) -> ReaderResult:
        reader = self.reader
        timeline = self._timeline
        tm = get_collector()
        silent = reader.silent_rows(timeline)
        rx = self._rx[None]

        def cancel(warm_taps=None):
            with tm.span("cancellation") as sp:
                return self._staged.finish(
                    rx, self._after_analog[None], silent, sp,
                    warm_taps=warm_taps)

        canc = None
        warm = self.warm   # carried only by warm-start sessions
        if warm.sync_offset is not None:
            canc = cancel(warm.digital_taps)
            (first,) = decode_pass(
                reader, timeline, self._x, rx, [self._h_env], [self._rng],
                canceller=reader.canceller,
                search_us=self.warm_sync_search_us,
                center=timeline.nominal_preamble_start + warm.sync_offset,
                cancellation=canc)
            if first.ok:
                self.warm_reuses += not canc.refit
                return first
            # Warm attempt failed: re-run the full cold pipeline on the
            # same capture (fresh digital fit, nominal sync window).
            self.warm_fallbacks += 1
            if not canc.refit:
                canc = None
        (result,) = decode_stack(
            reader, timeline, rx, [self._h_env], pa_output=self._x,
            rngs=[self._rng],
            cancellation=cancel() if canc is None else canc)
        return result

    def _carry_warm_state(self, result: ReaderResult) -> None:
        if result.ok and result.sync is not None \
                and result.cancellation is not None:
            self.warm = WarmState(
                analog_taps=self._staged.analog_taps,
                digital_taps=result.cancellation.digital_taps,
                sync_offset=int(result.sync.preamble_start
                                - self._timeline.nominal_preamble_start),
            )
        else:
            # A failed exchange invalidates the carry: next pass is cold.
            self.warm = WarmState()

    # -- convenience -------------------------------------------------------

    def decode_chunks(self, timeline: ApTimeline, h_env: np.ndarray,
                      chunks, *, pa_output: np.ndarray | None = None,
                      rng: np.random.Generator | None = None
                      ) -> ReaderResult:
        """One exchange end-to-end from an iterable of chunks."""
        self.begin_exchange(timeline, h_env, pa_output=pa_output, rng=rng)
        for chunk in chunks:
            self.push(chunk)
        return self.finish()
