"""The asyncio session multiplexer: many tag sessions, one process.

One :class:`SessionMultiplexer` owns every live
:class:`~repro.streaming.session.StreamSession`.  A pushed chunk is
ingested in the call that carries it: the session's decoder
analog-cancels it in place (microseconds, on the event loop), and the
push that completes the capture starts the frame-barrier decode as one
task on a shared thread pool, so sessions decode concurrently.  A
producer therefore cannot outrun ingest: the request/response is the
backpressure.

Overload semantics are explicit, as a *degradation ladder* (cheapest
capability shed first):

1. **Telemetry feed**: the serving layer sheds slow feed subscribers
   before anything decode-related degrades.
2. **Warm admission**: past ``degrade_warm_frac`` of capacity, new
   sessions are admitted *cold* (no warm-state carry) -- decode keeps
   flowing, each exchange just pays the full re-fit.
3. **Session admission**: opening a session beyond ``max_sessions``
   raises :class:`Overloaded` (HTTP 503).  Load is shed at the boundary
   instead of degrading every admitted session.

Resilience surfaces (all free on the happy path):

* **Idempotent indexed ingest** -- a chunk tagged with its index maps
  to a fixed sample offset; replays of already-accepted spans are acked
  as duplicates, out-of-order arrivals wait in a stash (one entry per
  offset inside the announced capture) until the gap fills.  This is
  what makes client retry loops safe.
* **Checkpoint/resume** -- :meth:`SessionMultiplexer.session_state`
  reports the submitted-samples high-water mark and next expected chunk
  index, so a reconnecting client resumes an interrupted exchange
  byte-identically instead of restarting it.
* **Injected worker faults** (:class:`InjectedWorkerFault`, from a
  :class:`~repro.faults.chaos.ChaosPlan`) keep the assembled capture;
  an idempotent replay of the final chunk re-dispatches the decode.
* **Watchdog** -- sessions whose exchange stalls past
  ``watchdog_deadline_s`` without ingest progress are reaped.
* **Drain** -- :meth:`SessionMultiplexer.drain` stops admissions and
  waits for in-flight exchanges (graceful SIGTERM).
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any

import numpy as np

from ..faults.chaos import ChaosPlan, ChaosRealization
from ..link.protocol import ApTimeline
from ..reader.reader import ReaderResult
from ..scenario import ScenarioConfig, StreamingConfig
from ..telemetry import get_collector
from .session import StreamSession

__all__ = ["InjectedWorkerFault", "MuxError", "Overloaded",
           "SessionMultiplexer", "UnknownSession"]

CLOSE_TIMEOUT_S = 30.0
"""How long session teardown, an abort or the next announce waits for
a running frame-barrier decode (a hung decode must not wedge shutdown
too)."""


class MuxError(RuntimeError):
    """Base class for multiplexer refusals."""


class Overloaded(MuxError):
    """Session admission refused: the multiplexer is at capacity."""


class UnknownSession(MuxError):
    """No such session id (never opened, or already closed)."""


class InjectedWorkerFault(MuxError):
    """A chaos-injected decode-worker death at the frame barrier.

    Retryable: the assembled capture survives, so an idempotent replay
    of the exchange's final chunk re-dispatches the decode.
    """


class _Entry:
    """One session's multiplexer-side state."""

    __slots__ = ("session", "decode", "future", "total", "submitted",
                 "stash", "announce", "exchange_index", "chaos", "dupes",
                 "last_activity")

    def __init__(self, session: StreamSession):
        self.session = session
        self.decode: asyncio.Task | None = None   # the frame barrier
        self.future: asyncio.Future | None = None
        self.total: int | None = None     # announced capture length
        self.submitted = 0                # in-order accepted high-water
        self.stash: dict[int, np.ndarray] = {}   # offset -> early chunk
        self.announce: dict[str, Any] | None = None
        self.exchange_index: int | None = None
        self.chaos: ChaosRealization | None = None
        self.dupes = 0
        self.last_activity = time.monotonic()

    @property
    def decoding(self) -> bool:
        """Whether a frame-barrier decode is running on the decoder."""
        return self.decode is not None and not self.decode.done()


class SessionMultiplexer:
    """Serves many concurrent streaming decode sessions.

    Use as an async context manager, or call :meth:`start` /
    :meth:`aclose` explicitly.  All public methods are coroutines and
    must run on the loop that started the multiplexer.  Passing a
    ``chaos`` plan arms deterministic transport-fault injection: each
    exchange realizes the plan at its own index, so the injected-fault
    log is a pure function of ``(plan seed, exchange index)``.
    """

    def __init__(self, config: StreamingConfig | None = None, *,
                 chaos: ChaosPlan | None = None):
        self.config = config or StreamingConfig()
        self.chaos = chaos
        self._sessions: dict[str, _Entry] = {}
        self._pool: ThreadPoolExecutor | None = None
        self._watchdog_task: asyncio.Task | None = None
        self._ids = itertools.count(1)
        self.opened = 0
        self.refused = 0
        self.decoded = 0
        self.dupes = 0
        self.worker_faults = 0
        self.watchdog_reaps = 0
        self.warm_downgrades = 0
        self.draining = False
        self.chaos_log: list[dict[str, Any]] = []
        """Every injected chaos event, in firing order:
        ``{"session", "exchange", "event"}`` dicts."""

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "SessionMultiplexer":
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.config.decode_workers,
                thread_name_prefix="repro-decode")
        if self._watchdog_task is None \
                and self.config.watchdog_deadline_s is not None:
            self._watchdog_task = asyncio.create_task(
                self._watchdog(), name="repro-mux-watchdog")
        return self

    async def aclose(self) -> None:
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
            try:
                await self._watchdog_task
            except asyncio.CancelledError:
                pass
            self._watchdog_task = None
        for sid in list(self._sessions):
            try:
                await self.close_session(sid)
            except UnknownSession:
                pass
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    async def __aenter__(self) -> "SessionMultiplexer":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.aclose()

    # -- graceful drain ----------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting sessions; in-flight exchanges keep running."""
        if self.draining:
            return
        self.draining = True
        tm = get_collector()
        if tm.enabled:
            with tm.span("mux.drain") as sp:
                sp.probe("sessions", len(self._sessions))

    async def drain(self, timeout: float | None = None) -> bool:
        """Stop admissions and wait for in-flight exchanges to finish.

        Returns ``True`` once no exchange is pending, ``False`` on
        timeout (callers then force-close).
        """
        self.begin_drain()
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            busy = [sid for sid, e in self._sessions.items()
                    if e.future is not None and not e.future.done()]
            if not busy:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.05)

    # -- session admission -------------------------------------------------

    async def open_session(self, scenario: "str | ScenarioConfig" = "paper-1m",
                           *, session_id: str | None = None,
                           warm_start: bool | None = None) -> StreamSession:
        """Admit one session, or raise :class:`Overloaded` at capacity."""
        if self._pool is None:
            await self.start()
        if self.draining:
            self.refused += 1
            raise Overloaded("draining: not admitting new sessions")
        if len(self._sessions) >= self.config.max_sessions:
            self.refused += 1
            raise Overloaded(
                f"at capacity: {len(self._sessions)}/"
                f"{self.config.max_sessions} sessions"
            )
        if session_id is None:
            session_id = f"s{next(self._ids)}"
        if session_id in self._sessions:
            raise MuxError(f"session {session_id!r} already open")
        if warm_start is None:
            warm_start = self.config.warm_start
        degraded = False
        if warm_start and self.config.degrade_warm_frac < 1.0:
            threshold = self.config.max_sessions * \
                self.config.degrade_warm_frac
            if len(self._sessions) >= threshold:
                # Degradation ladder step 2: admit cold rather than
                # refuse -- warm carry is a luxury under pressure.
                warm_start = False
                degraded = True
                self.warm_downgrades += 1
                tm = get_collector()
                if tm.enabled:
                    with tm.span("mux.warm_downgrade") as sp:
                        sp.probe("session", session_id)
                        sp.probe("sessions", len(self._sessions))
        loop = asyncio.get_running_loop()
        # Scenario build + first synthesis are heavy; keep the loop live.
        session = await loop.run_in_executor(
            self._pool,
            lambda: StreamSession(session_id, scenario,
                                  warm_start=warm_start))
        session.admission_degraded = degraded
        self._sessions[session_id] = _Entry(session)
        self.opened += 1
        return session

    async def close_session(self, session_id: str) -> dict[str, Any]:
        """Tear one session down; returns its final stats dict."""
        entry = self._entry(session_id)
        del self._sessions[session_id]
        if not await self._settle(entry):
            entry.decode.cancel()   # the wedged decode's result is moot
        if entry.future is not None and not entry.future.done():
            entry.future.set_exception(
                MuxError(f"session {session_id!r} closed mid-exchange"))
            # The exception is surfaced to wait_result callers; nobody
            # awaiting is also fine.
            entry.future.exception()
        if entry.session.decoder.in_exchange:
            entry.session.decoder.abort_exchange()
        return entry.session.as_dict()

    def _entry(self, session_id: str) -> _Entry:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise UnknownSession(f"unknown session {session_id!r}") from None

    @staticmethod
    async def _settle(entry: _Entry) -> bool:
        """Wait at most :data:`CLOSE_TIMEOUT_S` for a running decode;
        returns whether the decoder is free of it."""
        if entry.decoding:
            await asyncio.wait({entry.decode}, timeout=CLOSE_TIMEOUT_S)
        return not entry.decoding

    async def _await_decoder(self, entry: _Entry) -> None:
        """Before an announce's checks: an aborted exchange's decode may
        still run (a pending exchange is refused by those checks)."""
        if entry.future is not None and not entry.future.done():
            return
        if not await self._settle(entry):
            raise MuxError(
                f"session {entry.session.id!r} is still decoding")

    # -- exchanges ---------------------------------------------------------

    def _arm(self, entry: _Entry, n: int, index: int) -> None:
        loop = asyncio.get_running_loop()
        entry.future = loop.create_future()
        entry.total = n
        entry.submitted = 0
        entry.stash.clear()
        entry.exchange_index = index
        entry.chaos = None
        if self.chaos is not None:
            entry.chaos = self.chaos.realize(index)
            sid = entry.session.id
            entry.chaos.sink = lambda kind, desc: self.chaos_log.append(
                {"session": sid, "exchange": index, "event": desc})
        entry.announce = {
            "session": entry.session.id,
            "exchange": index,
            "n_samples": n,
            "chunk_samples": self.config.chunk_samples,
        }
        entry.last_activity = time.monotonic()

    async def start_exchange(self, session_id: str, *,
                             expected_index: int | None = None
                             ) -> dict[str, Any]:
        """Open the next scenario-synthesized exchange on a session.

        With ``expected_index`` the call is idempotent: re-announcing
        the exchange that is already armed (a reconnecting client)
        replays the original announce instead of erroring, and
        announcing anything but the next index is refused -- so a
        retried announce can never silently skip an exchange.
        """
        entry = self._entry(session_id)
        entry.last_activity = time.monotonic()
        await self._await_decoder(entry)
        if expected_index is not None and entry.announce is not None \
                and expected_index == entry.announce["exchange"]:
            return dict(entry.announce)
        if entry.future is not None and not entry.future.done():
            raise MuxError(
                f"session {session_id!r} still has an exchange "
                "in flight")
        next_index = entry.session.exchange_index
        if expected_index is not None and expected_index != next_index:
            raise MuxError(
                f"session {session_id!r} next exchange is "
                f"{next_index}, not {expected_index}")
        loop = asyncio.get_running_loop()
        n = await loop.run_in_executor(
            self._pool, entry.session.start_scenario_exchange)
        self._arm(entry, n, entry.session.exchange_index - 1)
        return dict(entry.announce)

    async def start_attached_exchange(
            self, session_id: str, timeline: ApTimeline,
            h_env: np.ndarray, *, pa_output: np.ndarray | None = None,
            rng: np.random.Generator | None = None) -> dict[str, Any]:
        """Open an exchange whose capture the caller synthesized."""
        entry = self._entry(session_id)
        await self._await_decoder(entry)
        if entry.future is not None and not entry.future.done():
            raise MuxError(
                f"session {session_id!r} still has an exchange "
                "in flight")
        n = entry.session.attach_exchange(
            timeline, h_env, pa_output=pa_output, rng=rng)
        self._arm(entry, n, entry.session.decoder.exchanges_begun - 1)
        return dict(entry.announce)

    async def abort_exchange(self, session_id: str) -> dict[str, Any]:
        """Drop the in-flight exchange, keeping the session open.

        A frame-barrier decode already running is not interrupted: it
        leaves the decoder idle when it ends, and the abort returns
        once it has (waiting at most :data:`CLOSE_TIMEOUT_S`).
        """
        entry = self._entry(session_id)
        entry.stash.clear()
        if entry.future is not None and not entry.future.done():
            entry.future.set_exception(
                MuxError(f"session {session_id!r} exchange aborted"))
            entry.future.exception()
        aborted = entry.total is not None
        if not entry.decoding and entry.session.decoder.in_exchange:
            entry.session.decoder.abort_exchange()
        index = entry.exchange_index
        entry.total = None
        entry.announce = None
        entry.last_activity = time.monotonic()
        await self._settle(entry)
        return {"session": session_id, "aborted": aborted,
                "exchange": index}

    def _ack(self, entry: _Entry, state: str) -> dict[str, Any]:
        return {
            "session": entry.session.id,
            "remaining_samples": max(entry.total - entry.submitted, 0),
            "submitted": entry.submitted >= entry.total,
            "state": state,
            "stashed_chunks": len(entry.stash),
        }

    async def push_chunk(self, session_id: str, chunk: np.ndarray, *,
                         chunk_index: int | None = None) -> dict[str, Any]:
        """Submit one chunk; an in-order one is ingested before it acks.

        Without ``chunk_index`` (the legacy path) chunks of any size
        are appended strictly in order.  With it, the chunk maps to the
        fixed offset ``chunk_index * chunk_samples`` and ingest becomes
        idempotent: full replays of accepted spans ack as
        ``"duplicate"`` (replaying the final chunk after an injected
        worker fault re-dispatches the decode -- ``"refinish"``), and
        early arrivals wait in the stash (``"stashed"``) until the gap
        fills.  Indexed chunks must be canonically sized so offsets are
        well-defined at any retry interleaving.

        Returns ingest accounting; the decode result is delivered via
        :meth:`wait_result` once the capture completes.
        """
        entry = self._entry(session_id)
        entry.last_activity = time.monotonic()
        chunk = np.asarray(chunk, dtype=np.complex128).ravel()
        if entry.total is None or entry.future is None:
            raise MuxError(
                f"session {session_id!r} has no exchange open")
        cs = self.config.chunk_samples
        if chunk_index is not None:
            if chunk_index < 0:
                raise MuxError(f"negative chunk index {chunk_index}")
            offset = chunk_index * cs
            if offset >= entry.total:
                raise MuxError(
                    f"chunk index {chunk_index} beyond the capture "
                    f"({entry.total} samples)")
            expected = min(cs, entry.total - offset)
            if chunk.size != expected:
                raise MuxError(
                    f"indexed chunks must be canonically sized: chunk "
                    f"{chunk_index} got {chunk.size}, expected {expected}")
        else:
            offset = entry.submitted
        if offset + chunk.size <= entry.submitted:
            # Full replay of an accepted span: ack idempotently.
            entry.dupes += 1
            self.dupes += 1
            state = "duplicate"
            if entry.submitted >= entry.total and entry.future.done() \
                    and not entry.future.cancelled() \
                    and isinstance(entry.future.exception(),
                                   InjectedWorkerFault) \
                    and entry.session.decoder.complete:
                # The capture survived the worker death: run the frame
                # barrier again.
                entry.future = asyncio.get_running_loop().create_future()
                self._start_decode(entry)
                state = "refinish"
            return self._ack(entry, state)
        if entry.future.done():
            raise MuxError(
                f"session {session_id!r} has no exchange open")
        if offset > entry.submitted:
            # Early (out-of-order) arrival: hold it until the gap fills.
            entry.stash[offset] = chunk
            return self._ack(entry, "stashed")
        if offset + chunk.size > entry.total:
            raise MuxError(
                f"chunk overruns the exchange: {chunk.size} > "
                f"{entry.total - entry.submitted} samples left")
        self._ingest(entry, chunk)
        # Ingest any stashed chunks the new high-water makes contiguous.
        while (nxt := entry.stash.pop(entry.submitted, None)) is not None:
            self._ingest(entry, nxt)
        if entry.session.decoder.complete:
            self._start_decode(entry)
        return self._ack(entry, "queued")

    @staticmethod
    def _ingest(entry: _Entry, chunk: np.ndarray) -> None:
        """Analog-cancel one in-order chunk into the session's decoder."""
        entry.session.decoder.push(chunk)
        entry.submitted += chunk.size
        entry.session.stats.chunks += 1
        entry.session.stats.samples += int(chunk.size)

    async def wait_result(self, session_id: str) -> ReaderResult:
        """Await the in-flight exchange's decode result."""
        entry = self._entry(session_id)
        if entry.future is None:
            raise MuxError(f"session {session_id!r} has no exchange open")
        return await asyncio.shield(entry.future)

    def session_state(self, session_id: str) -> dict[str, Any]:
        """The checkpoint a reconnecting client resumes from.

        ``next_chunk_index`` is where idempotent replay should continue;
        anything before it is already accepted (replaying it anyway is
        acked as a duplicate, never double-ingested).
        """
        entry = self._entry(session_id)
        cs = self.config.chunk_samples
        fut = entry.future
        result_ready = bool(
            fut is not None and fut.done() and not fut.cancelled()
            and fut.exception() is None)
        return {
            "session": entry.session.id,
            "exchange": entry.exchange_index,
            "in_exchange": entry.session.decoder.in_exchange,
            "total_samples": int(entry.total or 0),
            "submitted_samples": int(entry.submitted),
            "chunk_samples": cs,
            "next_chunk_index": int(entry.submitted // cs),
            "stashed_chunks": sorted(o // cs for o in entry.stash),
            "result_ready": result_ready,
            "duplicates": entry.dupes,
            "checkpoint": entry.session.decoder.checkpoint(),
        }

    # -- the frame barrier -------------------------------------------------

    def _start_decode(self, entry: _Entry) -> None:
        entry.decode = asyncio.create_task(
            self._decode(entry, entry.future),
            name=f"repro-decode-{entry.session.id}")

    async def _decode(self, entry: _Entry, future: asyncio.Future) -> None:
        """Run the frame barrier (or inject a worker death there).

        Settles only ``future``, the exchange the decode was started
        for, and only if an abort has not failed it meanwhile.
        """
        session = entry.session
        if entry.chaos is not None and entry.chaos.take_worker_fault():
            # The capture stays assembled in the decoder: an idempotent
            # replay of the final chunk re-dispatches the decode.
            self.worker_faults += 1
            if not future.done():
                future.set_exception(InjectedWorkerFault(
                    f"session {session.id!r} decode worker died at "
                    "the frame barrier (injected)"))
                future.exception()
            return
        t0 = time.perf_counter()
        try:
            result = await asyncio.get_running_loop().run_in_executor(
                self._pool, session.decoder.finish)
            session.stats.note_result(result, time.perf_counter() - t0)
        except Exception as exc:
            if session.decoder.in_exchange:
                session.decoder.abort_exchange()
            if not future.done():
                future.set_exception(exc)
                future.exception()
            return
        self.decoded += 1
        entry.last_activity = time.monotonic()
        if not future.done():
            future.set_result(result)

    # -- the watchdog ------------------------------------------------------

    async def _watchdog(self) -> None:
        """Reap sessions whose in-flight exchange stalls past deadline.

        Activity is any ingest progress or a frame-barrier completion;
        a slow-loris client (or a wedged decode) stops updating it
        and gets its session closed, freeing the slot.
        """
        deadline = self.config.watchdog_deadline_s
        while True:
            await asyncio.sleep(self.config.watchdog_interval_s)
            now = time.monotonic()
            for sid, entry in list(self._sessions.items()):
                if entry.future is None or entry.future.done():
                    continue
                stalled = now - entry.last_activity
                if stalled <= deadline:
                    continue
                self.watchdog_reaps += 1
                tm = get_collector()
                if tm.enabled:
                    with tm.span("mux.watchdog_reap") as sp:
                        sp.probe("session", sid)
                        sp.probe("stalled_s", round(stalled, 3))
                try:
                    await self.close_session(sid)
                except UnknownSession:
                    pass

    # -- introspection -----------------------------------------------------

    @property
    def n_sessions(self) -> int:
        return len(self._sessions)

    def stats(self) -> dict[str, Any]:
        """The service-level stats surface (``GET /stats``)."""
        return {
            "sessions": len(self._sessions),
            "max_sessions": self.config.max_sessions,
            "chunk_samples": self.config.chunk_samples,
            "opened": self.opened,
            "refused": self.refused,
            "decoded": self.decoded,
            "duplicates": self.dupes,
            "worker_faults": self.worker_faults,
            "watchdog_reaps": self.watchdog_reaps,
            "warm_downgrades": self.warm_downgrades,
            "draining": self.draining,
            "chaos": {
                "enabled": self.chaos is not None,
                "injected": len(self.chaos_log),
            },
            "per_session": {
                sid: entry.session.as_dict()
                for sid, entry in sorted(self._sessions.items())
            },
        }
