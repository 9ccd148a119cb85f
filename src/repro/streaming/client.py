"""A stdlib reference client for the streaming decode service.

Drives ``repro serve`` over one keep-alive HTTP/1.1 socket: opens a
session, announces exchanges, pushes the capture chunk-by-chunk as raw
little-endian ``complex128`` bytes, and collects the decode result the
final chunk's response carries.  Each request leaves in one ``sendall``
(request line, headers and body together), and a response is read by
its status line and ``Content-Length`` alone -- the service's own
framing, with neither the two writes nor the full header parse of the
standard library HTTP client.

Because exchange synthesis is a pure function of ``(scenario, exchange
index)`` (see :func:`repro.streaming.session.exchange_rngs`), the client
reconstructs the exact capture the server expects from nothing but the
scenario name -- there is no sample download step.  ``--verify`` goes
one further: it also decodes each capture locally through the batch
``reader.decode`` path and asserts the service's streamed result matches
**byte-for-byte** (packed payload bytes, SHA-256, and every summary
field).  The CI streaming-smoke job runs exactly this::

    python -m repro.streaming --port 8735 \
        --scenario streaming-50 --exchanges 3 --verify --shutdown

**Resilience.**  By default the client is *hardened*: every request
carries a socket deadline (:class:`ServiceTimeout` on expiry, never a
hang), transport failures reconnect and retry with exponential backoff
and deterministic jitter (:class:`RetryPolicy` -- same seed, same
schedule), chunks carry ``X-Chunk-Index``/``X-Chunk-CRC32`` headers so
replay is idempotent and corruption is detected server-side, and an
interrupted exchange resumes from the server's checkpoint instead of
restarting.  The retry budget is bounded, mirroring the escalation
conventions of :mod:`repro.reader.failures`: recoverable errors earn a
bounded number of escalating attempts, then :class:`RetryBudget`
surfaces the failure instead of retrying forever.  ``--no-resume``
selects the *naive* arm (sequential pushes, no deadline recovery, any
error loses the exchange) -- the baseline the chaos sweep measures
against.

Exit status 0 means every exchange verified/delivered; any mismatch,
delivery below ``--min-delivery``, or unrecovered transport error exits
non-zero with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time
import zlib
from dataclasses import dataclass
from typing import Any, BinaryIO

import numpy as np

from .server import DEFAULT_PORT, result_summary
from .session import CaptureSource

__all__ = ["RetryBudget", "RetryPolicy", "ServiceClient",
           "ServiceDisconnect", "ServiceError", "ServiceHttpError",
           "ServiceTimeout", "main", "run_session"]


class ServiceError(RuntimeError):
    """Base class for typed client-side service failures."""

    retryable = False


class ServiceTimeout(ServiceError):
    """A request exceeded its deadline (dead server, dropped response)."""

    retryable = True


class ServiceDisconnect(ServiceError):
    """The connection failed or was reset mid-request."""

    retryable = True


class ServiceHttpError(ServiceError):
    """A non-2xx response, carrying status and the error payload."""

    def __init__(self, method: str, path: str, status: int,
                 payload: dict[str, Any]):
        super().__init__(
            f"{method} {path} -> {status}: "
            f"{payload.get('error', payload)}")
        self.status = status
        self.payload = payload
        self.retryable = bool(payload.get("retryable")) \
            or status == 503


class RetryBudget(ServiceError):
    """The bounded retry budget ran out without a success."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    The delay before attempt ``a`` (first retry is ``a=1``) is drawn
    uniformly from ``[0, min(base * 2**(a-1), max)]`` -- "full jitter"
    -- with the generator seeded from ``(seed, *key, a)``, so the same
    policy seed and request key always produce the identical schedule
    (the property ``tests/test_chaos.py`` asserts, and what keeps chaos
    runs reproducible end to end).
    """

    max_attempts: int = 8
    """Total tries per request, first included (mirrors the bounded
    escalation of ``reader/failures.py``: recover a few times, then
    surface the failure)."""

    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    seed: int = 0

    def delay(self, attempt: int, key: tuple[int, ...] = ()) -> float:
        """Backoff before retry ``attempt`` (1-based) of request ``key``."""
        cap = min(self.base_delay_s * (2.0 ** (attempt - 1)),
                  self.max_delay_s)
        rng = np.random.default_rng(
            np.random.SeedSequence([int(self.seed), *map(int, key),
                                    int(attempt)]))
        return float(rng.uniform(0.0, cap))

    def schedule(self, key: tuple[int, ...] = ()) -> list[float]:
        """Every backoff delay the policy would use for one request."""
        return [self.delay(a, key)
                for a in range(1, self.max_attempts)]


_MAX_LINE = 1 << 16
"""Longest status or header line the client reads from a response."""


class ServiceClient:
    """JSON-over-HTTP client for one service connection.

    ``timeout`` is the per-request socket deadline: reads that exceed
    it raise :class:`ServiceTimeout` instead of hanging on a dead
    server.  With a :class:`RetryPolicy`, retryable failures (timeouts,
    disconnects, 503, ``retryable`` error payloads) reconnect and
    replay automatically -- safe because chunk pushes are idempotent
    when indexed.  ``retry=None`` disables all recovery (the naive
    arm).  The socket opens on the first request and after every
    failure, and stays open across requests.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 timeout: float = 120.0,
                 retry: "RetryPolicy | None" = None):
        self.host = host
        self.port = port
        self.timeout = float(timeout)
        self.retry = retry
        self._sock: socket.socket | None = None
        self._rfile: BinaryIO | None = None
        self.retries = 0
        self.reconnects = 0

    def close(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = self._rfile = None

    def _reconnect(self) -> None:
        self.close()
        self.reconnects += 1

    def _roundtrip(self, request: bytes) -> tuple[int, bytes]:
        """Send one framed request; read ``(status, body)`` back."""
        if self._sock is None:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock, self._rfile = sock, sock.makefile("rb")
        self._sock.sendall(request)
        status_line = self._rfile.readline(_MAX_LINE)
        if not status_line:
            raise ConnectionError(
                "Remote end closed connection without response")
        version, _, rest = status_line.partition(b" ")
        if not version.startswith(b"HTTP/") or not rest[:3].isdigit():
            raise ConnectionError(
                f"malformed status line {status_line[:80]!r}")
        length, close = None, False
        while (line := self._rfile.readline(_MAX_LINE)) not in (b"\r\n",
                                                               b"\n"):
            if not line:
                raise ConnectionError("connection closed inside the "
                                      "response head")
            key, _, value = line.partition(b":")
            key = key.strip().lower()
            if key == b"content-length" and value.strip().isdigit():
                length = int(value)
            elif key == b"connection":
                close = value.strip().lower() == b"close"
        if length is None:
            raise ConnectionError("response without a valid Content-Length")
        body = self._rfile.read(length)
        if len(body) < length:
            raise ConnectionError(f"response body cut short: {len(body)} "
                                  f"of {length} bytes")
        if close:
            self.close()
        return int(rest[:3]), body

    def _once(self, method: str, path: str, body: "bytes | None",
              headers: dict[str, str]) -> dict[str, Any]:
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
        if body is not None:
            head += f"Content-Length: {len(body)}\r\n"
        head += "".join(f"{k}: {v}\r\n" for k, v in headers.items())
        request = (head + "\r\n").encode("latin-1") + (body or b"")
        try:
            status, raw = self._roundtrip(request)
        except TimeoutError as exc:
            self._reconnect()
            raise ServiceTimeout(
                f"{method} {path} exceeded the {self.timeout:g}s "
                "deadline") from exc
        except OSError as exc:
            self._reconnect()
            raise ServiceDisconnect(
                f"{method} {path} failed: {exc}") from exc
        payload = json.loads(raw.decode() or "{}")
        if status >= 400:
            raise ServiceHttpError(method, path, status, payload)
        return payload

    def request(self, method: str, path: str,
                body: "bytes | dict[str, Any] | None" = None, *,
                headers: dict[str, str] | None = None,
                idempotent: bool = True,
                retry_key: tuple[int, ...] = ()) -> dict[str, Any]:
        """One request, with bounded recovery when a policy is set.

        ``retry_key`` feeds the deterministic jitter (conventionally
        ``(exchange, chunk_index)`` for chunk pushes); non-idempotent
        requests are never replayed automatically.
        """
        send_headers = dict(headers or {})
        if isinstance(body, dict):
            body = json.dumps(body).encode()
            send_headers["Content-Type"] = "application/json"
        elif body is not None:
            send_headers.setdefault("Content-Type",
                                    "application/octet-stream")
        attempts = self.retry.max_attempts \
            if self.retry is not None and idempotent else 1
        last: ServiceError | None = None
        for attempt in range(1, attempts + 1):
            try:
                return self._once(method, path, body, send_headers)
            except ServiceError as exc:
                if not exc.retryable or attempt >= attempts:
                    raise
                last = exc
                self.retries += 1
                time.sleep(self.retry.delay(attempt, retry_key))
        raise RetryBudget(
            f"{method} {path}: {attempts} attempts exhausted "
            f"(last: {last})")

    # -- service verbs -----------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        return self.request("GET", "/healthz")

    def readyz(self) -> dict[str, Any]:
        return self.request("GET", "/readyz")

    def stats(self) -> dict[str, Any]:
        return self.request("GET", "/stats")

    def open_session(self, scenario: str, *,
                     warm_start: bool | None = None,
                     session_id: str | None = None) -> dict[str, Any]:
        spec: dict[str, Any] = {"scenario": scenario}
        if warm_start is not None:
            spec["warm_start"] = warm_start
        if session_id is not None:
            spec["session_id"] = session_id
        # Only idempotent when the caller pins the session id (a blind
        # replay without one could leak an extra session).
        return self.request("POST", "/sessions", spec,
                            idempotent=session_id is not None)

    def start_exchange(self, session_id: str, *,
                       expected: int | None = None) -> dict[str, Any]:
        spec = {} if expected is None else {"exchange": expected}
        # Idempotent only when the expected index pins the replay.
        return self.request("POST", f"/sessions/{session_id}/exchanges",
                            spec, idempotent=expected is not None,
                            retry_key=(expected,)
                            if expected is not None else ())

    def push_chunk(self, session_id: str, chunk: np.ndarray, *,
                   index: int | None = None, crc: bool = True,
                   retry_key: tuple[int, ...] = ()) -> dict[str, Any]:
        body = np.ascontiguousarray(chunk, dtype=np.complex128).tobytes()
        headers: dict[str, str] = {}
        if index is not None:
            headers["X-Chunk-Index"] = str(index)
            if crc:
                headers["X-Chunk-CRC32"] = str(zlib.crc32(body)
                                               & 0xFFFFFFFF)
        # Un-indexed pushes are sequential, hence not safely replayable.
        return self.request("POST", f"/sessions/{session_id}/chunks",
                            body, headers=headers,
                            idempotent=index is not None,
                            retry_key=retry_key)

    def session_state(self, session_id: str) -> dict[str, Any]:
        """The resume checkpoint: ingest high-water + next chunk index."""
        return self.request("GET", f"/sessions/{session_id}")

    def abort_exchange(self, session_id: str) -> dict[str, Any]:
        return self.request("DELETE",
                            f"/sessions/{session_id}/exchanges")

    def close_session(self, session_id: str) -> dict[str, Any]:
        return self.request("DELETE", f"/sessions/{session_id}")

    def shutdown(self) -> dict[str, Any]:
        return self.request("POST", "/shutdown")


def _stream_exchange(client: ServiceClient, session_id: str,
                     rx: np.ndarray, chunk_samples: int) -> dict[str, Any]:
    """Naive arm: push sequentially, no indices, no recovery."""
    for start in range(0, rx.size, chunk_samples):
        ack = client.push_chunk(session_id, rx[start:start + chunk_samples])
    if ack.get("state") != "decoded":
        raise ServiceError(f"capture exhausted but not decoded: {ack}")
    return ack


def _stream_exchange_hardened(client: ServiceClient, session_id: str,
                              exchange: int, rx: np.ndarray,
                              chunk_samples: int) -> dict[str, Any]:
    """Hardened arm: canonical indexed chunks, CRC'd, idempotent.

    Each push retries through the client's policy; because chunks are
    keyed by index, a replay after a timeout or reset lands exactly
    where the original would have (duplicates ack harmlessly), and the
    server's out-of-order stash absorbs injected reorders.  The final
    chunk doubles as the decode trigger, so replaying it also recovers
    injected worker faults.
    """
    n_chunks = -(-rx.size // chunk_samples)
    ack: dict[str, Any] = {}
    for k in range(n_chunks):
        chunk = rx[k * chunk_samples:(k + 1) * chunk_samples]
        ack = client.push_chunk(session_id, chunk, index=k,
                                retry_key=(exchange, k))
    if "result" not in ack:
        # The last ack lacked the decode (its chunk was held/stashed
        # by chaos, or the worker faulted): replay the final chunk --
        # idempotent -- until the result rides back on it.
        k = n_chunks - 1
        ack = client.push_chunk(
            session_id, rx[k * chunk_samples:], index=k,
            retry_key=(exchange, k))
    if "result" not in ack:
        raise ServiceError(
            f"exchange {exchange}: capture submitted but no decode "
            f"result ({ack})")
    return ack


def run_session(client: ServiceClient, *, scenario: str = "streaming-50",
                exchanges: int = 1, chunk_samples: int | None = None,
                verify: bool = False, warm_start: bool | None = None,
                resume: bool = True, out=sys.stdout) -> int:
    """Open one session, stream ``exchanges`` captures, optionally verify.

    Returns the number of failed exchanges (0 = success): verify
    mismatches, plus -- in the naive arm -- exchanges lost to transport
    errors.  With ``verify`` the session is forced cold
    (``warm_start=False``) because byte-identity with the batch path is
    only claimed for cold decodes.  ``resume=False`` (or a client
    without a retry policy) selects the naive arm: sequential
    un-indexed pushes where any fault loses the exchange.
    """
    if verify:
        warm_start = False
    hardened = resume and client.retry is not None
    opened = client.open_session(scenario, warm_start=warm_start)
    sid = opened["session"]
    canonical = int(opened["chunk_samples"])
    chunk_samples = canonical if hardened else \
        (chunk_samples or canonical)
    # Our own synthesis lockstep with the server's (determinism contract).
    source = CaptureSource(scenario)
    failures = 0
    delivered = 0
    try:
        for i in range(exchanges):
            cap, decode_rng = source.next_exchange()
            try:
                announced = client.start_exchange(
                    sid, expected=i if hardened else None)
                if announced["n_samples"] != cap.n_samples:
                    raise ServiceError(
                        f"exchange {i}: server announced "
                        f"{announced['n_samples']} samples, local "
                        f"synthesis produced {cap.n_samples}")
                if hardened:
                    final = _stream_exchange_hardened(
                        client, sid, i, cap.rx, chunk_samples)
                else:
                    final = _stream_exchange(
                        client, sid, cap.rx, chunk_samples)
            except ServiceError as exc:
                # Naive arm: the exchange is lost; clear any half-fed
                # capture so the session can carry on.
                failures += 1
                print(f"exchange {i}: LOST ({exc})", file=sys.stderr)
                try:
                    client.abort_exchange(sid)
                except ServiceError:
                    pass
                continue
            remote = final["result"]
            delivered += 1
            line = {"exchange": i, "ok": remote["ok"],
                    "payload_sha256": remote["payload_sha256"]}
            if verify:
                local_result = source.built.reader.decode(
                    cap.timeline, cap.rx, source.built.scene.h_env,
                    pa_output=cap.x_pa, rng=decode_rng)
                local = result_summary(local_result)
                diffs = {k: (local[k], remote.get(k))
                         for k in local if remote.get(k) != local[k]}
                line["verified"] = not diffs
                if diffs:
                    failures += 1
                    print(f"exchange {i}: MISMATCH {diffs}",
                          file=sys.stderr)
            print(json.dumps(line), file=out)
    finally:
        try:
            closed = client.close_session(sid)
        except ServiceError as exc:
            closed = {"error": str(exc)}
        print(json.dumps({
            "closed": closed,
            "delivered": delivered,
            "exchanges": exchanges,
            "retries": client.retries,
            "reconnects": client.reconnects,
        }), file=out)
    return failures


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.streaming",
        description="Stream scenario captures to a running `repro serve` "
                    "and (optionally) verify results against the local "
                    "batch decoder byte-for-byte.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--scenario", default="streaming-50",
                        help="registered scenario preset (default: "
                             "%(default)s)")
    parser.add_argument("--exchanges", type=int, default=1,
                        help="exchanges to stream (default: %(default)s)")
    parser.add_argument("--chunk-samples", type=int, default=None,
                        help="samples per pushed chunk (naive arm only; "
                             "resumable streaming always uses the "
                             "service's canonical chunk size)")
    parser.add_argument("--warm-start", action="store_true",
                        help="ask for a warm session (ignored with "
                             "--verify, which requires cold decodes)")
    parser.add_argument("--verify", action="store_true",
                        help="decode locally via the batch path and "
                             "require byte-for-byte agreement")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="per-request deadline in seconds "
                             "(default: %(default)s)")
    parser.add_argument("--retries", type=int, default=8,
                        help="retry budget per request "
                             "(default: %(default)s)")
    parser.add_argument("--retry-seed", type=int, default=0,
                        help="seed of the deterministic backoff jitter")
    parser.add_argument("--no-resume", action="store_true",
                        help="naive arm: sequential un-indexed pushes, "
                             "no retries, any fault loses the exchange")
    parser.add_argument("--min-delivery", type=float, default=None,
                        help="exit non-zero unless delivered/exchanges "
                             "reaches this ratio")
    parser.add_argument("--shutdown", action="store_true",
                        help="POST /shutdown after the session closes "
                             "(CI smoke teardown)")
    args = parser.parse_args(argv)

    retry = None if args.no_resume else RetryPolicy(
        max_attempts=max(args.retries, 1), seed=args.retry_seed)
    client = ServiceClient(args.host, args.port, timeout=args.timeout,
                           retry=retry)
    try:
        failures = run_session(
            client,
            scenario=args.scenario,
            exchanges=args.exchanges,
            chunk_samples=args.chunk_samples,
            verify=args.verify,
            warm_start=args.warm_start or None,
            resume=not args.no_resume,
        )
        if args.shutdown:
            client.shutdown()
    except (OSError, RuntimeError) as exc:
        print(f"streaming client failed: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()
    if args.min_delivery is not None:
        # `failures` counts lost + mismatched exchanges; the delivery
        # gate tolerates the configured loss fraction.
        max_lost = args.exchanges * (1.0 - args.min_delivery)
        if failures > max_lost:
            print(f"delivery below {args.min_delivery:.0%}: "
                  f"{failures} of {args.exchanges} exchange(s) failed",
                  file=sys.stderr)
            return 1
        if failures:
            print(f"{failures} exchange(s) failed (within the "
                  f"{args.min_delivery:.0%} delivery gate)",
                  file=sys.stderr)
        return 0
    if failures:
        print(f"{failures} exchange(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
