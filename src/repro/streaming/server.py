"""The streaming decode service's HTTP/WebSocket front-end.

A deliberately small, dependency-free asyncio server (the container
ships no web framework) exposing the
:class:`~repro.streaming.mux.SessionMultiplexer` over HTTP/1.1 plus a
minimal RFC 6455 WebSocket endpoint for the live telemetry push feed.
Endpoints (see ``docs/STREAMING.md`` for the worked example):

========  =========================  =========================================
method    path                       purpose
========  =========================  =========================================
GET       ``/``                      service banner + endpoint list
GET       ``/healthz``               liveness: ``{"ok": true, "sessions": N}``
GET       ``/readyz``                readiness: 200 admitting / 503 not
GET       ``/stats``                 multiplexer + per-session stats
GET       ``/scenarios``             registered scenario presets
POST      ``/sessions``              open a session (JSON body)
GET       ``/sessions/{id}``         resume checkpoint (ingest high-water)
POST      ``/sessions/{id}/exchanges``  announce the next exchange
POST      ``/sessions/{id}/chunks``  push one sample chunk (octet-stream)
DELETE    ``/sessions/{id}/exchanges``  abort the in-flight exchange
DELETE    ``/sessions/{id}``         close a session, returning final stats
GET       ``/telemetry/feed``        live telemetry records as NDJSON
GET       ``/telemetry/ws``          the same feed over WebSocket
POST      ``/shutdown``              drain and stop (CI smoke uses this)
========  =========================  =========================================

Sample wire format: little-endian ``complex128`` (interleaved float64
I/Q pairs), i.e. exactly ``ndarray.tobytes()`` of a capture slice.
Chunk POSTs may carry ``X-Chunk-Index`` (the chunk's canonical index,
enabling idempotent replay and resume) and ``X-Chunk-CRC32`` (zlib
CRC32 of the body; a mismatch is refused 400 ``corrupt-chunk`` so the
client replays instead of poisoning the capture).

Error mapping: 503 when session admission is refused
(:class:`~repro.streaming.mux.Overloaded`) or a chaos-injected worker
fault wants a retry, 404 for unknown sessions, 409 for protocol misuse
(chunk without an exchange, overrun), 400 for malformed requests.
Retryable refusals carry ``"retryable": true`` in the JSON error
payload.  A request head the server cannot frame -- a malformed request
line or header, a ``Content-Length`` that is not a decimal count (400),
a body over 64 MiB (413), a head over the stream limit of 64 KiB (431)
-- is answered and the connection closed, since the byte stream cannot
be resynchronised.

The WebSocket feed needs nothing from a client but close, ping and
pong.  An upgrade that is not a ``GET`` or whose ``Sec-WebSocket-Key``
does not decode to 16 bytes is refused 400.  A client frame whose
payload exceeds 125 bytes is refused before it is read (close code
1009), and one that breaks RFC 6455 framing -- unmasked, RSV bits set,
a reserved opcode, a fragmented control frame -- fails the connection
(close code 1002).

When the multiplexer carries a :class:`~repro.faults.chaos.ChaosPlan`,
this layer realises its transport events on arriving chunks: drops
(request swallowed), connection resets, latency spikes, corruption
(bytes flipped before the CRC check), duplicates (the chunk is
re-ingested after acking) and reorders (the chunk is held and released
only after its successor arrives).
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import re
import threading
import zlib
from typing import Any

import numpy as np

from ..faults.chaos import (
    ChaosPlan,
    ChunkCorrupt,
    ChunkDrop,
    ChunkDuplicate,
    ChunkReorder,
    ConnectionReset,
    LatencySpike,
)
from ..reader.reader import ReaderResult
from ..scenario import (
    StreamingConfig,
    get_scenario,
    list_scenarios,
    resolve_scenario,
)
from ..telemetry import TelemetryCollector, get_collector, set_collector
from .mux import InjectedWorkerFault, MuxError, Overloaded, \
    SessionMultiplexer, UnknownSession

__all__ = ["DEFAULT_PORT", "ServerThread", "StreamingServer",
           "result_summary"]

DEFAULT_PORT = 8735
"""Default TCP port of ``repro serve``."""

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
_WS_OPCODES = frozenset({0x0, 0x1, 0x2, 0x8, 0x9, 0xA})
"""Continuation, text, binary, close, ping, pong (RFC 6455 §5.2)."""
_MAX_BODY = 64 << 20
_SESSION_ID = re.compile(r"[A-Za-z0-9._~-]{1,64}")
"""Client-chosen session ids: URL-safe, so every route can address
them."""
_REASONS = {200: "OK", 201: "Created", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            409: "Conflict", 413: "Content Too Large",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}


class _Unframeable(Exception):
    """A request head the server refuses before routing: answered with
    ``status``, then the connection closes."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _WsFailure(Exception):
    """A client WebSocket frame the feed refuses: the connection fails
    with close ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _ChaosDrop(Exception):
    """Control flow: swallow the request without responding (the client
    sees its read deadline expire, as with a real in-flight loss)."""


class _ChaosReset(Exception):
    """Control flow: tear the TCP connection down mid-exchange."""


def _json_safe(value: float) -> float | None:
    return None if not np.isfinite(value) else float(value)


def _json_object(body: bytes) -> dict[str, Any]:
    """A request body that must be a JSON object (empty means ``{}``)."""
    spec = json.loads(body.decode() or "{}")
    if not isinstance(spec, dict):
        raise ValueError("request body must be a JSON object")
    return spec


def _field(spec: dict[str, Any], key: str, kind: type, what: str) -> Any:
    """``spec[key]`` if absent/null or of ``kind`` (JSON booleans are not
    integers here), else a ``ValueError`` the router answers with 400."""
    value = spec.get(key)
    if value is not None and (not isinstance(value, kind)
                              or (kind is int and isinstance(value, bool))):
        raise ValueError(f"{key!r} must be {what}")
    return value


def result_summary(result: ReaderResult,
                   exchange: int | None = None) -> dict[str, Any]:
    """One decode result as wire-safe JSON.

    ``payload_hex``/``payload_sha256`` carry the decoded payload bits
    packed MSB-first (``np.packbits``), which is what the CI smoke job
    compares byte-for-byte against a local batch decode.
    """
    packed = np.packbits(result.payload_bits).tobytes() \
        if result.payload_bits.size else b""
    out: dict[str, Any] = {
        "ok": bool(result.ok),
        "n_symbols": int(result.n_symbols),
        "symbol_snr_db": _json_safe(result.symbol_snr_db),
        "payload_bits": int(result.payload_bits.size),
        "payload_hex": packed.hex(),
        "payload_sha256": hashlib.sha256(packed).hexdigest(),
        "failure": str(result.failure) if result.failure else None,
        "failure_kind": result.failure.kind.value
        if result.failure else None,
        "recovered": bool(result.recovered),
        "recovery_attempts": list(result.recovery_attempts),
    }
    if exchange is not None:
        out["exchange"] = int(exchange)
    return out


class StreamingServer:
    """Serves one :class:`SessionMultiplexer` over HTTP/WebSocket."""

    def __init__(self, mux: SessionMultiplexer | None = None, *,
                 host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 default_scenario: str = "streaming-50",
                 collector: TelemetryCollector | None = None):
        self.mux = mux or SessionMultiplexer()
        self.host = host
        self.port = port
        self.default_scenario = default_scenario
        self.collector = collector
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown = asyncio.Event()
        self._subscribers: set[asyncio.Queue] = set()
        self._sub_drops: dict[asyncio.Queue, int] = {}
        self._feed_dropped = 0
        self.feed_shed = 0
        """Slow telemetry subscribers disconnected under pressure
        (degradation ladder step 1)."""
        self._writers: set[asyncio.StreamWriter] = set()
        self._handlers: set[asyncio.Task] = set()
        """The connection tasks :meth:`aclose` cancels and awaits, so no
        handler outlives the loop still pending on a read."""
        self._held: dict[str, tuple[int | None, np.ndarray]] = {}
        """Per-session chunk held back by an injected reorder, released
        when the next chunk arrives."""
        self._drain_task: asyncio.Task | None = None
        self._restore_collector: Any = None
        self._sink = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "StreamingServer":
        self._loop = asyncio.get_running_loop()
        await self.mux.start()
        if self.collector is not None:
            self._restore_collector = set_collector(self.collector)
            self._sink = self.collector.add_sink(self._sink_record)
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_until_shutdown(self) -> None:
        """Block until ``POST /shutdown``, a drain completing, or
        :meth:`aclose`."""
        await self._shutdown.wait()
        await self.aclose()

    def request_drain(self) -> None:
        """Begin a graceful shutdown (the SIGTERM path).

        First call: stop admitting sessions, let in-flight exchanges
        finish (bounded by ``drain_timeout_s``), then stop -- telemetry
        is flushed by the normal close path.  A second call (second
        signal) skips the wait and stops immediately.
        """
        if self.mux.draining:
            self._shutdown.set()
            return
        tm = get_collector()
        if tm.enabled:
            with tm.span("server.drain") as sp:
                sp.probe("sessions", self.mux.n_sessions)
        self.mux.begin_drain()
        self._drain_task = asyncio.ensure_future(self._drain_and_stop())

    async def _drain_and_stop(self) -> None:
        timeout = self.mux.config.drain_timeout_s
        finished = await self.mux.drain(timeout)
        tm = get_collector()
        if tm.enabled:
            with tm.span("server.drained") as sp:
                sp.probe("clean", finished)
        self._shutdown.set()

    async def aclose(self) -> None:
        self._shutdown.set()
        if self._drain_task is not None and not self._drain_task.done():
            self._drain_task.cancel()
            try:
                await self._drain_task
            except asyncio.CancelledError:
                pass
        self._drain_task = None
        if self._server is not None:
            self._server.close()
        for q in list(self._subscribers):
            q.put_nowait(None)
        for w in list(self._writers):
            w.close()
        handlers = self._handlers - {asyncio.current_task()}
        for task in handlers:
            task.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)
        if self._server is not None:
            # Only now: from Python 3.12.1 this waits for every open
            # connection to be dropped, which the lines above do.
            await self._server.wait_closed()
            self._server = None
        await self.mux.aclose()
        if self.collector is not None:
            if self._sink is not None:
                self.collector.remove_sink(self._sink)
                self._sink = None
            set_collector(self._restore_collector)
            self._restore_collector = None
            self.collector.save()

    # -- telemetry fan-out -------------------------------------------------

    def _sink_record(self, record: dict) -> None:
        # Runs on whatever thread completed the span; hop to the loop,
        # but only while a feed subscriber listens: each hop wakes the
        # loop thread, and with no subscriber it would deliver nothing.
        loop = self._loop
        if self._subscribers and loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._broadcast, record)

    def _broadcast(self, record: dict) -> None:
        shed_after = self.mux.config.feed_shed_after_drops
        for q in list(self._subscribers):
            try:
                q.put_nowait(record)
            except asyncio.QueueFull:
                self._feed_dropped += 1
                drops = self._sub_drops.get(q, 0) + 1
                self._sub_drops[q] = drops
                if drops >= shed_after:
                    # Degradation ladder step 1: a subscriber that can't
                    # keep up is disconnected before decode capacity
                    # degrades.  Swap one stale record for the
                    # end-of-feed sentinel so its pump terminates.
                    self._unsubscribe(q)
                    self.feed_shed += 1
                    tm = get_collector()
                    if tm.enabled:
                        with tm.span("server.feed_shed") as sp:
                            sp.probe("dropped_records", drops)
                    try:
                        q.get_nowait()
                        q.put_nowait(None)
                    except (asyncio.QueueEmpty, asyncio.QueueFull):
                        pass

    def _subscribe(self) -> asyncio.Queue:
        q: asyncio.Queue = asyncio.Queue(maxsize=1024)
        self._subscribers.add(q)
        return q

    def _unsubscribe(self, q: asyncio.Queue) -> None:
        self._subscribers.discard(q)
        self._sub_drops.pop(q, None)

    # -- connection handling -----------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        self._writers.add(writer)
        try:
            while not self._shutdown.is_set():
                try:
                    req = await self._read_request(reader)
                except _Unframeable as exc:
                    self._respond(writer, exc.status, {"error": str(exc)},
                                  close=True)
                    await writer.drain()
                    break
                if req is None:
                    break
                method, path, headers, body = req
                if path == "/telemetry/ws" and \
                        "websocket" in headers.get("upgrade", "").lower():
                    await self._serve_ws(reader, writer, method, headers)
                    break
                if method == "GET" and path == "/telemetry/feed":
                    await self._serve_feed(writer)
                    break
                try:
                    status, payload = await self._route(
                        method, path, headers, body)
                except _ChaosDrop:
                    continue        # swallowed: the client times out
                except _ChaosReset:
                    break           # connection torn down mid-exchange
                except InjectedWorkerFault as exc:
                    status, payload = 503, {"error": str(exc),
                                            "retryable": True}
                except Overloaded as exc:
                    status, payload = 503, {"error": str(exc),
                                            "retryable": True}
                except UnknownSession as exc:
                    status, payload = 404, {"error": str(exc)}
                except MuxError as exc:
                    status, payload = 409, {"error": str(exc)}
                except (KeyError, ValueError) as exc:
                    status, payload = 400, {"error": str(exc)}
                except Exception as exc:   # never kill the connection loop
                    status, payload = 500, {"error": repr(exc)}
                self._respond(writer, status, payload)
                await writer.drain()
                if method == "POST" and path == "/shutdown":
                    self._shutdown.set()
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # aclose cancels the connections it closes: end those as
            # closed ones, since the stream protocol's done callback
            # raises on a task that ends cancelled.
            if not self._shutdown.is_set():
                raise
        finally:
            self._handlers.discard(task)
            self._writers.discard(writer)
            writer.close()

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        """One request: ``(method, path, headers, body)``, or ``None``
        when the peer closes; raises :class:`_Unframeable`."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            raise _Unframeable(431, "request head over the 64 KiB limit") \
                from None
        line, *lines = head[:-4].decode("latin-1").split("\r\n")
        parts = line.split()
        if len(parts) < 2:
            raise _Unframeable(400, f"malformed request line {line[:80]!r}")
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for h in lines:
            key, colon, value = h.partition(":")
            if not colon:
                raise _Unframeable(400, f"malformed header line {h[:80]!r}")
            headers[key.strip().lower()] = value.strip()
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            raise _Unframeable(400, f"bad Content-Length {length[:80]!r}")
        n = int(length)
        if n > _MAX_BODY:
            raise _Unframeable(413, f"request body over {_MAX_BODY} bytes")
        body = await reader.readexactly(n) if n else b""
        return method, path, headers, body

    @staticmethod
    def _respond(writer: asyncio.StreamWriter, status: int,
                 payload: dict[str, Any], *, close: bool = False) -> None:
        body = json.dumps(payload, allow_nan=False).encode()
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)

    # -- routing -----------------------------------------------------------

    async def _route(self, method: str, path: str,
                     headers: dict[str, str],
                     body: bytes) -> tuple[int, dict[str, Any]]:
        if method == "GET" and path == "/":
            return 200, {
                "service": "repro streaming decode service",
                "scenario_default": self.default_scenario,
                "endpoints": [
                    "GET /healthz", "GET /readyz", "GET /stats",
                    "GET /scenarios",
                    "POST /sessions", "GET /sessions/{id}",
                    "POST /sessions/{id}/exchanges",
                    "POST /sessions/{id}/chunks",
                    "DELETE /sessions/{id}/exchanges",
                    "DELETE /sessions/{id}",
                    "GET /telemetry/feed", "GET /telemetry/ws",
                    "POST /shutdown",
                ],
            }
        if method == "GET" and path == "/healthz":
            return 200, {"ok": True, "sessions": self.mux.n_sessions}
        if method == "GET" and path == "/readyz":
            # Liveness vs readiness: /healthz answers "is the process
            # up"; /readyz answers "should a balancer send new sessions
            # here" -- false while draining or at the session ceiling.
            ready = not self.mux.draining and not self._shutdown.is_set() \
                and self.mux.n_sessions < self.mux.config.max_sessions
            return (200 if ready else 503), {
                "ready": ready,
                "draining": self.mux.draining,
                "sessions": self.mux.n_sessions,
                "max_sessions": self.mux.config.max_sessions,
            }
        if method == "GET" and path == "/stats":
            stats = self.mux.stats()
            stats["feed_subscribers"] = len(self._subscribers)
            stats["feed_dropped"] = self._feed_dropped
            stats["feed_shed"] = self.feed_shed
            if self.collector is not None:
                stats["telemetry_run_id"] = self.collector.run_id
            return 200, stats
        if method == "GET" and path == "/scenarios":
            return 200, {
                name: get_scenario(name).description
                for name in list_scenarios()
            }
        if method == "POST" and path == "/sessions":
            return await self._open_session(body)
        if method == "POST" and path == "/shutdown":
            return 200, {"ok": True, "shutting_down": True}
        if path.startswith("/sessions/"):
            return await self._session_route(method, path, headers, body)
        return 404, {"error": f"no route {method} {path}"}

    async def _open_session(self, body: bytes) -> tuple[int, dict]:
        spec = _json_object(body)
        scenario = resolve_scenario(
            _field(spec, "scenario", str, "a preset name")
            or self.default_scenario)
        overrides = _field(spec, "overrides", list,
                           "a list of key=value strings") or []
        if not all(isinstance(o, str) for o in overrides):
            raise ValueError("'overrides' must be a list of key=value "
                             "strings")
        if overrides:
            scenario = scenario.with_overrides(*overrides)
        session_id = _field(spec, "session_id", str, "a string")
        if session_id is not None and not _SESSION_ID.fullmatch(session_id):
            raise ValueError("'session_id' must be 1-64 of "
                             "[A-Za-z0-9._~-]")
        session = await self.mux.open_session(
            scenario,
            session_id=session_id,
            warm_start=_field(spec, "warm_start", bool, "true or false"))
        return 201, {
            "session": session.id,
            "scenario": scenario.name or "<ad-hoc>",
            "scenario_hash": scenario.scenario_hash(),
            "warm_start": session.decoder.warm_start,
            "admission_degraded": session.admission_degraded,
            "chunk_samples": self.mux.config.chunk_samples,
        }

    async def _session_route(self, method: str, path: str,
                             headers: dict[str, str],
                             body: bytes) -> tuple[int, dict]:
        parts = path.strip("/").split("/")
        sid = parts[1] if len(parts) > 1 else ""
        tail = parts[2] if len(parts) > 2 else ""
        if method == "DELETE" and not tail:
            self._held.pop(sid, None)
            return 200, await self.mux.close_session(sid)
        if method == "GET" and not tail:
            return 200, self.mux.session_state(sid)
        if method == "POST" and tail == "exchanges":
            expected = _field(_json_object(body), "exchange", int,
                              "an integer")
            self._held.pop(sid, None)
            return 200, await self.mux.start_exchange(
                sid, expected_index=expected)
        if method == "DELETE" and tail == "exchanges":
            self._held.pop(sid, None)
            return 200, await self.mux.abort_exchange(sid)
        if method == "POST" and tail == "chunks":
            return await self._chunk_route(sid, headers, body)
        return 405, {"error": f"no route {method} {path}"}

    async def _chunk_route(self, sid: str, headers: dict[str, str],
                           body: bytes) -> tuple[int, dict]:
        if len(body) % 16:
            return 400, {"error": "chunk body must be whole "
                                  "complex128 samples (16 bytes each)"}
        idx_hdr = headers.get("x-chunk-index")
        chunk_index = None if idx_hdr is None else int(idx_hdr)
        entry = self.mux._entry(sid)
        size = len(body) // 16
        # -- chaos: realise armed transport events on this chunk -----------
        duplicate = hold = False
        if entry.chaos is not None and entry.total is not None and size:
            offset = entry.submitted if chunk_index is None \
                else chunk_index * self.mux.config.chunk_samples
            final = offset + size >= entry.total
            drop = reset = False
            for ev in entry.chaos.transport_actions(
                    offset, size, entry.total):
                if isinstance(ev, LatencySpike):
                    await asyncio.sleep(ev.delay_s)
                elif isinstance(ev, ChunkCorrupt):
                    body = self._corrupt(body, ev.flip_bytes)
                elif isinstance(ev, ChunkDuplicate):
                    duplicate = True
                elif isinstance(ev, ChunkReorder):
                    # Never hold the final chunk (no later arrival
                    # would release it) or stack two holds.
                    hold = not final and sid not in self._held
                elif isinstance(ev, ChunkDrop):
                    drop = True
                elif isinstance(ev, ConnectionReset):
                    reset = True
            if drop:
                raise _ChaosDrop()
            if reset:
                raise _ChaosReset()
        # -- integrity: refuse corrupt chunks so the client replays --------
        crc_hdr = headers.get("x-chunk-crc32")
        if crc_hdr is not None \
                and zlib.crc32(body) & 0xFFFFFFFF != int(crc_hdr):
            return 400, {"error": "chunk crc32 mismatch "
                                  "(corrupt in transit)",
                         "code": "corrupt-chunk", "retryable": True}
        if hold:
            self._held[sid] = (chunk_index,
                               np.frombuffer(body, dtype=np.complex128))
            return 200, {"state": "held", "session": sid,
                         "held_chunk": chunk_index}
        ack = await self._push(sid, body, chunk_index)
        if duplicate:
            # Deliver the chunk twice, like a blind retransmit: the
            # second pass acks as a duplicate for indexed clients and
            # corrupts the assembly for naive sequential ones.
            ack = await self._push(sid, body, chunk_index)
        # -- release a reorder-held chunk now that its successor landed ----
        held = self._held.pop(sid, None)
        if held is not None:
            h_idx, h_chunk = held
            ack = await self.mux.push_chunk(sid, h_chunk, chunk_index=h_idx)
        if ack["submitted"]:
            result = await self.mux.wait_result(sid)
            entry_session = self.mux._entry(sid).session
            return 200, {
                **ack,
                "state": "decoded",
                "result": result_summary(
                    result,
                    entry_session.decoder.exchanges_begun - 1),
            }
        return 200, {"state": ack.get("state", "queued"), **ack}

    async def _push(self, sid: str, body: bytes,
                    chunk_index: int | None) -> dict[str, Any]:
        chunk = np.frombuffer(body, dtype=np.complex128)
        return await self.mux.push_chunk(sid, chunk,
                                         chunk_index=chunk_index)

    @staticmethod
    def _corrupt(body: bytes, flip_bytes: int) -> bytes:
        """XOR-flip ``flip_bytes`` bytes in the middle of the body."""
        out = bytearray(body)
        start = max((len(out) - flip_bytes) // 2, 0)
        for i in range(start, min(start + flip_bytes, len(out))):
            out[i] ^= 0xFF
        return bytes(out)

    # -- NDJSON feed -------------------------------------------------------

    async def _serve_feed(self, writer: asyncio.StreamWriter) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        q = self._subscribe()
        try:
            while True:
                record = await q.get()
                if record is None:
                    break
                writer.write(json.dumps(record, sort_keys=True).encode()
                             + b"\n")
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._unsubscribe(q)

    # -- WebSocket ---------------------------------------------------------

    async def _serve_ws(self, reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter, method: str,
                        headers: dict[str, str]) -> None:
        key = headers.get("sec-websocket-key", "")
        try:
            valid = method == "GET" and \
                len(base64.b64decode(key, validate=True)) == 16
        except ValueError:          # binascii.Error, or non-ASCII text
            valid = False
        if not valid:
            self._respond(writer, 400, {
                "error": "a WebSocket upgrade is a GET with a "
                         "Sec-WebSocket-Key of 16 base64 bytes"},
                close=True)
            await writer.drain()
            return
        accept = base64.b64encode(
            hashlib.sha1((key + _WS_GUID).encode()).digest()).decode()
        writer.write(
            ("HTTP/1.1 101 Switching Protocols\r\n"
             "Upgrade: websocket\r\n"
             "Connection: Upgrade\r\n"
             f"Sec-WebSocket-Accept: {accept}\r\n\r\n").encode("latin-1"))
        await writer.drain()
        q = self._subscribe()
        pump = asyncio.ensure_future(self._ws_pump(writer, q))
        close = None
        try:
            while True:
                frame = await self._ws_read_frame(reader)
                if frame is None:
                    break
                opcode, payload = frame
                if opcode == 0x8:
                    close = payload
                    break
                if opcode == 0x9:           # ping -> pong
                    self._ws_send(writer, 0xA, payload)
                    await writer.drain()
        except _WsFailure as exc:
            close = exc.code.to_bytes(2, "big")
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            pump.cancel()
            try:
                await pump
            except (asyncio.CancelledError, ConnectionError):
                pass
            self._unsubscribe(q)
        if close is not None:               # no feed frame after the close
            self._ws_send(writer, 0x8, close)
            try:
                await writer.drain()
            except ConnectionError:
                pass

    async def _ws_pump(self, writer: asyncio.StreamWriter,
                       q: asyncio.Queue) -> None:
        while True:
            record = await q.get()
            if record is None:
                return
            self._ws_send(
                writer, 0x1,
                json.dumps(record, sort_keys=True).encode())
            await writer.drain()

    @staticmethod
    def _ws_send(writer: asyncio.StreamWriter, opcode: int,
                 payload: bytes) -> None:
        head = bytearray([0x80 | opcode])
        n = len(payload)
        if n < 126:
            head.append(n)
        elif n <= 0xFFFF:
            head.append(126)
            head += n.to_bytes(2, "big")
        else:
            head.append(127)
            head += n.to_bytes(8, "big")
        writer.write(bytes(head) + payload)

    @staticmethod
    async def _ws_read_frame(reader: asyncio.StreamReader):
        """The next client frame as ``(opcode, payload)``; ``None`` at
        end of stream.  Raises :class:`_WsFailure` for a frame the feed
        refuses (see the module docstring)."""
        try:
            b0, b1 = await reader.readexactly(2)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        n = b1 & 0x7F
        if n > 125:
            # Take the extended length off the wire, not the payload.
            await reader.readexactly(2 if n == 126 else 8)
            raise _WsFailure(1009, "client frames carry at most 125 bytes")
        masked = bool(b1 & 0x80)
        mask = await reader.readexactly(4) if masked else b""
        payload = await reader.readexactly(n) if n else b""
        opcode = b0 & 0x0F
        if not masked or b0 & 0x70 or opcode not in _WS_OPCODES \
                or (opcode & 0x8 and not b0 & 0x80):
            raise _WsFailure(1002, "malformed WebSocket frame")
        return opcode, bytes(b ^ mask[i % 4] for i, b in enumerate(payload))


class ServerThread:
    """A :class:`StreamingServer` on a private event-loop thread.

    The embedding harness tests and experiments share: enter the
    context manager to get a live server bound to an ephemeral port,
    drive it from the calling thread (HTTP, or :meth:`submit` for
    coroutines on the server loop), and exiting tears everything down
    -- decode tasks awaited, decode pool joined, loop closed -- so no
    threads leak past the block.
    """

    def __init__(self, *, config: StreamingConfig | None = None,
                 chaos: ChaosPlan | None = None,
                 mux: SessionMultiplexer | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 default_scenario: str = "streaming-50",
                 collector: TelemetryCollector | None = None):
        self.server = StreamingServer(
            mux or SessionMultiplexer(config, chaos=chaos),
            host=host, port=port, default_scenario=default_scenario,
            collector=collector)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    @property
    def mux(self) -> SessionMultiplexer:
        return self.server.mux

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def submit(self, coro):
        """Run a coroutine on the server loop; returns its result."""
        return asyncio.run_coroutine_threadsafe(
            coro, self._loop).result(timeout=120)

    def __enter__(self) -> "ServerThread":
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.call_soon(started.set)
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=run, name="repro-serve", daemon=True)
        self._thread.start()
        started.wait(timeout=10)
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self._loop).result(timeout=60)
        return self

    def __exit__(self, *exc: Any) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.aclose(), self._loop).result(timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()
