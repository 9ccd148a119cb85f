"""The HTTP/WebSocket service surface and the telemetry JSONL schema."""

from __future__ import annotations

import asyncio
import base64
import gc
import hashlib
import http.client
import io
import json
import logging
import socket
import threading
import time
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scenario import StreamingConfig
from repro.streaming import (
    RetryPolicy,
    ServerThread,
    ServiceClient,
    ServiceDisconnect,
    ServiceTimeout,
    run_session,
)
from repro.telemetry import TelemetryCollector

SCENARIO = "streaming-50"
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"


async def _record_loop_errors(errors: list) -> None:
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: errors.append(context))


class _Service(ServerThread):
    """One in-process streaming server on a private event-loop thread.

    A thin preset over :class:`repro.streaming.ServerThread` (the
    shipped embedding harness): small session limit, test scenario, and
    a loop exception handler that records instead of logging.
    """

    def __init__(self, collector: TelemetryCollector | None = None,
                 **config):
        config.setdefault("chunk_samples", 4096)
        config.setdefault("max_sessions", 8)
        super().__init__(config=StreamingConfig(**config),
                         default_scenario=SCENARIO,
                         collector=collector)
        self.loop_errors: list[dict] = []

    def __enter__(self) -> "_Service":
        super().__enter__()
        self.submit(_record_loop_errors(self.loop_errors))
        return self

    def unhandled(self) -> list[dict]:
        """What reached the loop's exception handler so far (e.g.
        "Unhandled exception in client_connected_cb")."""
        self.submit(asyncio.sleep(0))
        return self.loop_errors


def _raw(port: int, method: str, path: str, body: bytes | None = None,
         headers: dict | None = None) -> tuple[int, dict]:
    """One request with the raw status code (ServiceClient raises >=400)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode() or "{}")
    finally:
        conn.close()


def _json(port: int, method: str, path: str, payload: dict):
    return _raw(port, method, path, json.dumps(payload).encode(),
                {"Content-Type": "application/json"})


def _send_raw(port: int, data: bytes, *, half_close: bool = True,
              timeout: float = 10.0) -> list[tuple[int, dict]]:
    """Send ``data`` on a fresh connection, read until the server closes
    it, and return every ``(status, payload)`` it answered, in order.

    With ``half_close`` the client ends its side after ``data``, so the
    server must answer or close; without it, only a server that closes
    by itself lets this return (a hang fails on ``timeout``).
    """
    received = bytearray()
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        try:
            sock.sendall(data)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass                    # the server refused early and closed
        while True:
            try:
                got = sock.recv(1 << 16)
            except ConnectionResetError:
                break               # closed with our input unread
            if not got:
                break
            received += got
    responses, raw = [], bytes(received)
    while raw:
        head, sep, raw = raw.partition(b"\r\n\r\n")
        assert sep, f"truncated response head {head[:80]!r}"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        fields = dict(line.lower().split(": ", 1) for line in lines)
        n = int(fields["content-length"])
        assert len(raw) >= n, "truncated response body"
        responses.append((int(status_line.split()[1]), json.loads(raw[:n])))
        raw = raw[n:]
    return responses


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    collector = TelemetryCollector(
        run_id="stream-test",
        directory=tmp_path_factory.mktemp("telemetry"))
    with _Service(collector=collector) as svc:
        yield svc


@pytest.fixture
def client(service):
    c = ServiceClient(port=service.port)
    yield c
    c.close()


class TestHttpSurface:
    def test_banner_health_and_scenarios(self, client):
        banner = client.request("GET", "/")
        assert "POST /sessions" in banner["endpoints"]
        assert banner["scenario_default"] == SCENARIO
        assert client.healthz()["ok"] is True
        assert SCENARIO in client.request("GET", "/scenarios")

    def test_streamed_decode_verifies_against_batch(self, client):
        out = io.StringIO()
        mismatches = run_session(client, scenario=SCENARIO, exchanges=2,
                                 verify=True, out=out)
        assert mismatches == 0
        lines = [json.loads(line) for line in
                 out.getvalue().splitlines()]
        assert [ln["verified"] for ln in lines if "verified" in ln] \
            == [True, True]
        assert lines[-1]["closed"]["decoded"] == 2

    def test_session_stats_surface(self, client, service):
        opened = client.open_session(SCENARIO)
        stats = client.stats()
        assert opened["session"] in stats["per_session"]
        assert stats["max_sessions"] == 8
        assert "feed_subscribers" in stats
        assert stats["telemetry_run_id"] == "stream-test"
        closed = client.close_session(opened["session"])
        assert closed["scenario"] == SCENARIO
        assert opened["session"] not in client.stats()["per_session"]

    def test_error_mapping(self, client, service):
        port = service.port
        assert _raw(port, "GET", "/nope")[0] == 404
        assert _raw(port, "POST", "/sessions/ghost/chunks", b"")[0] == 404
        assert _json(port, "POST", "/sessions",
                     {"scenario": "no-such-preset"})[0] == 400
        opened = client.open_session(SCENARIO)
        sid = opened["session"]
        # 15 bytes is not a whole complex128 sample.
        assert _raw(port, "POST", f"/sessions/{sid}/chunks",
                    b"\x00" * 15)[0] == 400
        # A whole sample, but no exchange armed: protocol misuse.
        assert _raw(port, "POST", f"/sessions/{sid}/chunks",
                    b"\x00" * 16)[0] == 409
        assert _raw(port, "PUT", f"/sessions/{sid}/chunks")[0] == 405
        client.close_session(sid)

    def test_admission_maps_to_503(self):
        with _Service(max_sessions=1) as svc:
            c = ServiceClient(port=svc.port)
            try:
                first = c.open_session(SCENARIO)
                status, payload = _json(svc.port, "POST", "/sessions",
                                        {"scenario": SCENARIO})
                assert status == 503
                assert "capacity" in payload["error"]
                assert payload["retryable"] is True
                c.close_session(first["session"])
            finally:
                c.close()

    def test_readyz_and_session_checkpoint_surface(self, client):
        assert client.readyz()["ready"] is True
        sid = client.open_session(SCENARIO)["session"]
        state = client.session_state(sid)
        assert state["in_exchange"] is False
        assert state["next_chunk_index"] == 0
        assert state["checkpoint"]["received_samples"] == 0
        assert "feed_shed" in client.stats()
        client.close_session(sid)


def _await_subscriber(client: ServiceClient, baseline: int) -> None:
    deadline = time.monotonic() + 30
    while client.stats()["feed_subscribers"] <= baseline:
        assert time.monotonic() < deadline, "feed never subscribed"
        time.sleep(0.02)


class TestTelemetryFeed:
    def test_ndjson_feed_pushes_live_records(self, service, client):
        baseline = client.stats()["feed_subscribers"]
        sock = socket.create_connection(("127.0.0.1", service.port),
                                        timeout=30)
        try:
            sock.sendall(b"GET /telemetry/feed HTTP/1.1\r\n"
                         b"Host: test\r\n\r\n")
            f = sock.makefile("rb")
            assert b"200" in f.readline()
            while f.readline() not in (b"\r\n", b"\n", b""):
                pass
            _await_subscriber(client, baseline)
            run_session(client, scenario=SCENARIO, exchanges=1,
                        out=io.StringIO())
            record = json.loads(f.readline())
            assert record["kind"] == "span"
            assert record["name"]
            f.close()
        finally:
            sock.close()

    def test_websocket_feed(self, service, client):
        baseline = client.stats()["feed_subscribers"]
        key = base64.b64encode(b"0123456789abcdef").decode()
        expect = base64.b64encode(
            hashlib.sha1((key + _WS_GUID).encode()).digest()).decode()
        sock = socket.create_connection(("127.0.0.1", service.port),
                                        timeout=30)
        try:
            sock.sendall(
                (f"GET /telemetry/ws HTTP/1.1\r\nHost: test\r\n"
                 f"Upgrade: websocket\r\nConnection: Upgrade\r\n"
                 f"Sec-WebSocket-Key: {key}\r\n\r\n").encode())
            f = sock.makefile("rb")
            assert b"101" in f.readline()
            headers = {}
            while (line := f.readline()) not in (b"\r\n", b"\n", b""):
                k, _, v = line.decode("latin-1").partition(":")
                headers[k.strip().lower()] = v.strip()
            assert headers["sec-websocket-accept"] == expect
            _await_subscriber(client, baseline)
            run_session(client, scenario=SCENARIO, exchanges=1,
                        out=io.StringIO())
            b0, b1 = f.read(2)
            assert b0 == 0x81          # FIN + text frame
            n = b1 & 0x7F
            if n == 126:
                n = int.from_bytes(f.read(2), "big")
            record = json.loads(f.read(n))
            assert record["kind"] == "span"
            f.close()
        finally:
            sock.close()

    def test_no_subscriber_no_loop_hop(self, tmp_path):
        """With nobody on the feed, no completed span hops to the event
        loop: each hop would wake the loop thread to deliver nothing."""
        collector = TelemetryCollector(run_id="no-feed",
                                       directory=tmp_path)
        with _Service(collector=collector) as svc:
            hops = []
            broadcast = svc.server._broadcast
            svc.server._broadcast = \
                lambda record: (hops.append(record), broadcast(record))
            before = len(collector.spans)
            c = ServiceClient(port=svc.port)
            try:
                run_session(c, scenario=SCENARIO, exchanges=1,
                            out=io.StringIO())
            finally:
                c.close()
            assert len(collector.spans) > before
            assert svc.unhandled() == []
        assert hops == []


SPAN_KEYS = {"v", "kind", "seq", "name", "parent_seq", "start_s",
             "wall_s", "probes"}
STAGE_SPANS = {"cancellation", "sync", "channel_est", "mrc"}
DECODE_PROBES = {"ok", "n_symbols", "symbol_snr_db", "required_snr_db",
                 "noise_floor_dbm"}


class TestTelemetryGoldenSchema:
    def test_saved_jsonl_matches_schema(self, service, client):
        """Every saved record carries the pinned span/probe fields."""
        run_session(client, scenario=SCENARIO, exchanges=1,
                    out=io.StringIO())
        path = service.server.collector.save()
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert records, "telemetry run is empty"

        meta = records[0]
        assert meta["kind"] == "meta"
        assert meta["run_id"] == "stream-test"
        assert {"v", "label", "created_unix"} <= meta.keys()

        spans = [r for r in records if r["kind"] == "span"]
        assert spans, "no spans recorded"
        for span in spans:
            assert SPAN_KEYS <= span.keys(), span
            assert span["wall_s"] >= 0.0

        decodes = [s for s in spans if s["name"] == "reader.decode"]
        assert decodes, "no reader.decode span recorded"
        top = decodes[-1]
        assert DECODE_PROBES <= top["probes"].keys()
        nested = {s["name"] for s in spans
                  if s["parent_seq"] == top["seq"]}
        assert STAGE_SPANS <= nested


def _statuses(responses: list[tuple[int, dict]]) -> list[int]:
    return [status for status, _ in responses]


class TestMalformedRequests:
    """A head the server cannot frame gets a typed 4xx and a close; the
    JSON routes refuse bodies that are not objects.  None of it may reach
    the loop's exception handler."""

    @pytest.mark.parametrize("length", [b"abc", b"-5", b"", b"+5", b"1e3",
                                        "٣".encode()])
    def test_bad_content_length_is_400_then_close(self, service, length):
        got = _send_raw(service.port,
                        b"POST /sessions HTTP/1.1\r\nContent-Length: "
                        + length + b"\r\n\r\n{}", half_close=False)
        assert _statuses(got) == [400]
        assert "Content-Length" in got[0][1]["error"]
        assert service.unhandled() == []

    def test_oversized_head_is_431_then_close(self, service):
        pad = b"X-Pad: " + b"a" * (70 << 10) + b"\r\n"
        got = _send_raw(service.port,
                        b"GET /healthz HTTP/1.1\r\n" + pad + b"\r\n",
                        half_close=False)
        assert _statuses(got) == [431]
        assert service.unhandled() == []

    def test_oversized_body_is_413_then_close(self, service):
        got = _send_raw(service.port,
                        b"POST /sessions HTTP/1.1\r\nContent-Length: %d"
                        b"\r\n\r\n" % ((64 << 20) + 1), half_close=False)
        assert _statuses(got) == [413]

    @pytest.mark.parametrize("data", [
        b"GARBAGE\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n",
    ])
    def test_malformed_lines_are_400_then_close(self, service, data):
        assert _statuses(_send_raw(service.port, data,
                                   half_close=False)) == [400]
        assert service.unhandled() == []

    def test_pipelined_requests_keep_the_connection(self, service):
        got = _send_raw(service.port, b"GET /healthz HTTP/1.1\r\n\r\n" * 2)
        assert _statuses(got) == [200, 200]

    @pytest.mark.parametrize("body", [b"[]", b"7", b'"s1"', b"null"])
    def test_json_routes_refuse_non_objects(self, service, client, body):
        sid = client.open_session(SCENARIO)["session"]
        try:
            assert _raw(service.port, "POST", "/sessions", body)[0] == 400
            assert _raw(service.port, "POST", f"/sessions/{sid}/exchanges",
                        body)[0] == 400
        finally:
            client.close_session(sid)
        assert service.unhandled() == []

    @pytest.mark.parametrize("spec", [
        {"scenario": 7}, {"overrides": "seed=1"}, {"overrides": [1]},
        {"session_id": 5}, {"session_id": "a/b"}, {"session_id": ""},
        {"warm_start": "yes"},
    ])
    def test_open_session_checks_field_types(self, service, spec):
        before = service.mux.n_sessions
        status, payload = _json(service.port, "POST", "/sessions", spec)
        assert status == 400, payload
        assert service.mux.n_sessions == before

    @pytest.mark.parametrize("override, path", [
        ("seed=abc", "seed"), ("link=3", "link"),
        ('distance_m="far"', "distance_m"),
        ('link={"n_payload_bits": "x"}', "link.n_payload_bits"),
    ])
    def test_mistyped_override_is_a_400(self, service, override, path):
        before = service.mux.n_sessions
        status, payload = _json(service.port, "POST", "/sessions",
                                {"overrides": [override]})
        assert status == 400, payload
        assert repr(path) in payload["error"]
        assert service.mux.n_sessions == before
        assert service.unhandled() == []

    @pytest.mark.parametrize("override, field", [
        ("seed=-1", "seed"), ("link.wifi_rate_mbps=7", "wifi_rate_mbps"),
        ("link.preamble_us=0.3", "preamble_us"),
        ("link.tag_speed_m_s=-1", "tag_speed_m_s"),
        ("scene.env_drift_coherence_us=-5", "env_drift_coherence_us"),
    ])
    def test_refused_override_value_is_a_400(self, service, override,
                                             field):
        """A value of the right type that the scenario refuses is a 400
        at ``POST /sessions``, not a session whose announces all fail."""
        before = service.mux.n_sessions
        status, payload = _json(service.port, "POST", "/sessions",
                                {"overrides": [override]})
        assert status == 400, payload
        assert payload["error"].startswith(field)
        assert service.mux.n_sessions == before
        assert service.unhandled() == []

    def test_exchange_index_must_be_an_integer(self, service, client):
        sid = client.open_session(SCENARIO)["session"]
        try:
            for spec in ({"exchange": [0]}, {"exchange": "0"},
                         {"exchange": True}, {"exchange": 0.5}):
                assert _json(service.port, "POST",
                             f"/sessions/{sid}/exchanges", spec)[0] == 400
            assert client.session_state(sid)["in_exchange"] is False
        finally:
            client.close_session(sid)


_LATIN1 = st.characters(max_codepoint=255)
_FIELD = st.characters(max_codepoint=255, blacklist_characters="\r\n")
_NAME = st.characters(max_codepoint=255, blacklist_characters="\r\n:")


def _fuzz_inputs(sid: str):
    """Request bytes for one connection: request line, header block
    (``Content-Length``, ``X-Chunk-Index``, ``X-Chunk-CRC32`` and other
    fields), and a body that may be cut short or overrun.  One input in
    two is well framed, so the routes see the values too; the rest has
    a junk request line, a malformed header line or an oversized head.

    Paths never name ``/shutdown``, the telemetry feeds or the session
    itself, so no input can stop the service or close ``sid``.
    """
    paths = st.sampled_from([
        "/", "/healthz", "/stats", "/sessions", "/sessions",
        f"/sessions/{sid}/chunks", f"/sessions/{sid}/chunks",
        f"/sessions/{sid}/chunks", f"/sessions/{sid}/exchanges",
        f"/sessions/{sid}/exchanges", "/sessions/ghost/chunks",
        "/sessions//chunks", "*", "/fuzz",
    ])
    numbers = st.integers(-(2 ** 70), 2 ** 70).map(str)
    values = numbers | st.text(_FIELD, max_size=24)
    # Scenario overrides naming real fields, with any value text.
    overrides = st.tuples(
        st.sampled_from(["seed", "link", "distance_m", "tag.modulation",
                         "reader.sync_search_us", "link.preamble_us"]),
        st.text(_LATIN1, max_size=6)).map("=".join)
    json_values = st.recursive(
        st.none() | st.booleans() | st.integers()
        | st.floats(allow_nan=False) | st.text(_LATIN1, max_size=8)
        | overrides,
        lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
            st.sampled_from(["scenario", "overrides", "session_id",
                             "warm_start", "exchange", "other"]),
            kids, max_size=3),
        max_leaves=6)
    bodies = st.binary(max_size=96) \
        | st.integers(0, 6).map(lambda n: bytes(16 * n)) \
        | json_values.map(lambda v: json.dumps(v).encode())

    @st.composite
    def one(draw) -> bytes:
        body = draw(bodies)
        method = draw(st.sampled_from(["GET", "POST", "POST", "POST", "PUT",
                                       "DELETE", "get", "P0ST"]))
        line = f"{method} {draw(paths)} HTTP/1.1"
        length = draw(st.sampled_from(["exact", "exact", "none", "any"]))
        fields = []
        if length != "none":
            fields.append(("Content-Length", str(len(body))
                           if length == "exact"
                           else draw(st.integers(0, 200).map(str) | values)))
        index = draw(st.none() | st.integers(-2, 12).map(str) | values)
        if index is not None:
            fields.append(("X-Chunk-Index", index))
        crc = draw(st.none() | st.just(zlib.crc32(body)) | values)
        if crc is not None:
            fields.append(("X-Chunk-CRC32", crc))
        fields += draw(st.lists(st.tuples(st.text(_NAME, min_size=1,
                                                  max_size=12), values),
                                max_size=2))
        lines = [f"{k}: {v}" for k, v in fields]
        flaw = draw(st.sampled_from(["none"] * 4
                                    + ["line", "header", "oversized"]))
        if flaw == "line":
            line = draw(st.text(_LATIN1, max_size=40))
        elif flaw == "header":
            lines.append(draw(st.text(_LATIN1, max_size=40)))
        elif flaw == "oversized":
            lines.append("X-Pad: " + "a" * (70 << 10))
        head = "\r\n".join([line, *lines]) + "\r\n\r\n"
        sent = draw(st.just(len(body)) | st.integers(0, len(body)))
        tail = draw(st.just(b"") | st.binary(max_size=32))
        return head.encode("latin-1") + body[:sent] + tail

    return one()


class TestInputFuzz:
    def test_every_input_ends_in_a_4xx_or_a_clean_close(self):
        threads = threading.active_count()
        with _Service(max_sessions=4) as svc:
            client = ServiceClient(port=svc.port)
            sid = client.open_session(SCENARIO)["session"]
            client.start_exchange(sid)
            sessions = svc.mux.n_sessions

            @settings(max_examples=150, deadline=None,
                      suppress_health_check=[HealthCheck.too_slow,
                                             HealthCheck.data_too_large])
            @given(data=_fuzz_inputs(sid))
            def check(data: bytes) -> None:
                responses = _send_raw(svc.port, data)
                for status, payload in responses:
                    if status == 201:       # a well-formed open: undo it
                        client.close_session(payload["session"])
                assert all(status < 500 for status in _statuses(responses)), \
                    responses
                assert svc.unhandled() == []
                assert svc.mux.n_sessions == sessions

            try:
                check()
            finally:
                client.close()
        assert threading.active_count() == threads


_WS_KEY = base64.b64encode(b"0123456789abcdef")
_WS_UPGRADE = (b"GET /telemetry/ws HTTP/1.1\r\nHost: test\r\n"
               b"Upgrade: websocket\r\nConnection: Upgrade\r\n"
               b"Sec-WebSocket-Key: " + _WS_KEY + b"\r\n\r\n")
_MASK = b"\x1f\x2e\x3d\x4c"


def _ws_open(port: int) -> socket.socket:
    """A socket past a well-formed ``/telemetry/ws`` upgrade."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.sendall(_WS_UPGRADE)
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        got = sock.recv(1)          # one byte at a time: frames follow
        assert got, head
        head += got
    assert head.startswith(b"HTTP/1.1 101"), head
    return sock


def _ws_frames(raw: bytes) -> list[tuple[int, bytes]]:
    """The server's (unmasked) frames as ``(opcode, payload)``; a frame
    cut short by a reset ends the list."""
    frames = []
    while len(raw) >= 2:
        n, at = raw[1] & 0x7F, 2
        if n >= 126:
            width = 2 if n == 126 else 8
            n, at = int.from_bytes(raw[2:2 + width], "big"), 2 + width
        if len(raw) < at + n:
            break
        frames.append((raw[0] & 0x0F, raw[at:at + n]))
        raw = raw[at + n:]
    return frames


def _ws_exchange(port: int, data: bytes) -> list[tuple[int, bytes]]:
    """Upgrade, send ``data``, end our side and read until the server
    closes; returns every frame it sent."""
    received = bytearray()
    with _ws_open(port) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass                    # the server refused early and closed
        while True:
            try:
                got = sock.recv(1 << 16)
            except ConnectionResetError:
                break
            if not got:
                break
            received += got
    return _ws_frames(bytes(received))


def _masked(b0: int, payload: bytes = b"") -> bytes:
    """A client frame with a <=125-byte payload, masked with _MASK."""
    body = bytes(b ^ _MASK[i % 4] for i, b in enumerate(payload))
    return bytes([b0, 0x80 | len(payload)]) + _MASK + body


def _control(frames):
    return [(op, body) for op, body in frames if op & 0x8]


class TestWebSocketFrames:
    """The feed takes close, ping and pong from a client and nothing
    large: RFC 6455 framing errors fail the connection with 1002, a
    payload over 125 bytes with 1009 before it is read."""

    def test_ping_gets_its_pong_and_close_its_close(self, service):
        close_1000 = _masked(0x88, b"\x03\xe8")
        frames = _ws_exchange(service.port, _masked(0x89, b"hi") + close_1000)
        assert _control(frames) == [(0xA, b"hi"), (0x8, b"\x03\xe8")]
        assert service.unhandled() == []

    @pytest.mark.parametrize("frame, code", [
        (b"\x89\xfe\x00\x80", 1009),                  # 128-byte ping
        (b"\x89\xff" + (1 << 20).to_bytes(8, "big"), 1009),   # 1 MiB
        (b"\x82\xff" + (64 << 20).to_bytes(8, "big"), 1009),  # 64 MiB
        (b"\x89\x02hi", 1002),                           # unmasked
        (b"\x81\x00", 1002),                             # unmasked text
        (_masked(0xC9), 1002),                           # RSV1 set
        (_masked(0x99), 1002),                           # RSV3 set
        (_masked(0x83), 1002),                           # reserved data
        (_masked(0x8B), 1002),                           # reserved control
        (_masked(0x09, b"hi"), 1002),                    # fragmented ping
        (_masked(0x08), 1002),                           # fragmented close
    ])
    def test_refused_frame_closes_with_code(self, service, frame, code):
        frames = _ws_exchange(service.port, frame + _masked(0x89, b"x"))
        assert _control(frames) == [(0x8, code.to_bytes(2, "big"))]
        assert service.unhandled() == []

    @pytest.mark.parametrize("head", [
        _WS_UPGRADE.replace(b"GET", b"POST", 1),
        _WS_UPGRADE.replace(b"Sec-WebSocket-Key: " + _WS_KEY + b"\r\n", b""),
        _WS_UPGRADE.replace(_WS_KEY, base64.b64encode(b"eight by")),
        _WS_UPGRADE.replace(_WS_KEY, b"not base64 at all!"),
        _WS_UPGRADE.replace(_WS_KEY, _WS_KEY[:-1]),
    ], ids=["post", "no-key", "short-key", "junk-key", "bad-padding"])
    def test_bad_upgrade_is_400_then_close(self, service, head):
        got = _send_raw(service.port, head, half_close=False)
        assert _statuses(got) == [400]
        assert service.unhandled() == []

    def test_healthz_answers_while_a_large_frame_arrives(self, service):
        # Announce 64 MiB (the body cap) or 8 MiB, send 8 MiB, and poll
        # /healthz meanwhile: nothing may hold the event loop.
        for announced in (64 << 20, 8 << 20):
            with _ws_open(service.port) as sock:
                try:
                    sock.sendall(b"\x82\xff" + announced.to_bytes(8, "big")
                                 + _MASK + bytes(8 << 20))
                except OSError:
                    pass            # refused before the payload: closed
                worst, deadline = 0.0, time.monotonic() + 0.4
                while time.monotonic() < deadline:
                    t0 = time.perf_counter()
                    status, payload = _raw(service.port, "GET", "/healthz")
                    worst = max(worst, time.perf_counter() - t0)
                    assert status == 200 and payload["ok"] is True
            assert worst < 0.1, (announced, worst)
        assert service.unhandled() == []


@st.composite
def _ws_fuzz_frames(draw):
    """One to three client frames: any first byte, any length field (the
    extended length may announce far more than follows), masked or not,
    and a payload that may be cut short or overrun."""
    out = b""
    for _ in range(draw(st.integers(1, 3))):
        b0 = draw(st.integers(0, 255))
        masked = draw(st.booleans())
        n = draw(st.integers(0, 127))
        out += bytes([b0, (0x80 if masked else 0) | n])
        if n == 126:
            out += draw(st.integers(0, 0xFFFF)).to_bytes(2, "big")
        elif n == 127:
            out += draw(st.integers(0, 2 ** 63 - 1)).to_bytes(8, "big")
        if masked:
            out += draw(st.binary(min_size=4, max_size=4))
        out += draw(st.binary(max_size=160))
    return out


class TestWebSocketFuzz:
    def test_every_frame_sequence_ends_in_a_close(self):
        threads = threading.active_count()
        with _Service(max_sessions=4) as svc:
            client = ServiceClient(port=svc.port)
            baseline = client.stats()["feed_subscribers"]

            @settings(max_examples=100, deadline=None,
                      suppress_health_check=[HealthCheck.too_slow])
            @given(data=_ws_fuzz_frames())
            def check(data: bytes) -> None:
                frames = _ws_exchange(svc.port, data)
                control = _control(frames)
                assert all(len(body) <= 125 for _, body in control)
                assert all(op != 0x8 for op, _ in control[:-1]), control
                assert svc.unhandled() == []
                assert client.stats()["feed_subscribers"] == baseline

            try:
                check()
            finally:
                client.close()
        assert threading.active_count() == threads


_OK = b'{"ok": true}'


class _StubPeer:
    """A scripted HTTP peer for the client transport: one behaviour per
    accepted connection, in order."""

    def __init__(self, *script: str):
        self.accepted = 0
        self.requests: list[bytes] = []
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, args=(script,),
                                        daemon=True)
        self._thread.start()

    def close(self) -> None:
        self._thread.join(timeout=10)
        self._sock.close()

    def _serve(self, script) -> None:
        for mode in script:
            conn, _ = self._sock.accept()
            self.accepted += 1
            with conn:
                self._behave(conn, mode)

    def _request(self, conn: socket.socket) -> bool:
        data = b""
        while b"\r\n\r\n" not in data:
            got = conn.recv(1 << 16)
            if not got:
                return False
            data += got
        head = data.partition(b"\r\n\r\n")[0]
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                while len(data) < len(head) + 4 + int(line.split(b":")[1]):
                    data += conn.recv(1 << 16)
        self.requests.append(data)
        return True

    def _behave(self, conn: socket.socket, mode: str) -> None:
        ok = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
              b"Content-Length: %d\r\n" % len(_OK))
        if mode == "ok":
            while self._request(conn):
                conn.sendall(ok + b"\r\n" + _OK)
            return
        if not self._request(conn):
            return
        if mode == "ok-close":
            conn.sendall(ok + b"Connection: close\r\n\r\n" + _OK)
        elif mode == "short":
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{}")
        elif mode == "no-length":
            conn.sendall(b"HTTP/1.1 200 OK\r\n\r\n{}")
        elif mode == "silent":
            while conn.recv(1 << 16):    # until the client gives up
                pass
        # "close": hang up without a response


class TestClientTransport:
    @pytest.mark.parametrize("mode, error", [
        ("close", ServiceDisconnect),
        ("short", ServiceDisconnect),
        ("no-length", ServiceDisconnect),
        ("silent", ServiceTimeout),
    ])
    def test_failure_is_typed_and_the_next_request_reconnects(
            self, mode, error):
        peer = _StubPeer(mode, "ok")
        client = ServiceClient(port=peer.port, timeout=0.5, retry=None)
        try:
            with pytest.raises(error) as info:
                client.healthz()
            assert client.reconnects == 1
            assert client.healthz() == {"ok": True}
            assert client.reconnects == 1
        finally:
            client.close()
            peer.close()
        assert peer.accepted == 2
        if mode == "close":
            assert str(info.value) == ("GET /healthz failed: Remote end "
                                       "closed connection without response")

    def test_keep_alive_one_write_per_request(self, monkeypatch):
        writes = []
        sendall = socket.socket.sendall

        def spy(sock, data, *args):
            if not bytes(data).startswith(b"HTTP/"):    # not the peer's
                writes.append(bytes(data))
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", spy)
        monkeypatch.setattr(socket.socket, "send", None)
        peer = _StubPeer("ok")
        client = ServiceClient(port=peer.port, retry=None)
        body = bytes(range(32))
        try:
            assert client.request("POST", "/x", body,
                                  headers={"X-Chunk-Index": "3"}) \
                == {"ok": True}
            assert client.healthz() == {"ok": True}
        finally:
            client.close()
            peer.close()
        assert peer.accepted == 1 and client.reconnects == 0
        assert writes == peer.requests
        first = writes[0]
        assert first.startswith(b"POST /x HTTP/1.1\r\n")
        assert b"\r\nContent-Length: 32\r\n" in first
        assert b"\r\nX-Chunk-Index: 3\r\n" in first
        assert first.endswith(b"\r\n\r\n" + body)

    def test_connection_close_reopens_without_a_reconnect(self):
        peer = _StubPeer("ok-close", "ok")
        client = ServiceClient(port=peer.port, retry=None)
        try:
            assert client.healthz() == {"ok": True}
            assert client.healthz() == {"ok": True}
        finally:
            client.close()
            peer.close()
        assert peer.accepted == 2 and client.reconnects == 0

    def test_retry_policy_rides_through_a_peer_close(self):
        peer = _StubPeer("close", "ok")
        client = ServiceClient(
            port=peer.port, timeout=5.0,
            retry=RetryPolicy(base_delay_s=0.001, max_delay_s=0.001))
        try:
            assert client.healthz() == {"ok": True}
        finally:
            client.close()
            peer.close()
        assert client.retries == 1 and client.reconnects == 1


class TestShutdown:
    def test_exit_leaves_no_connection_task_pending(self, caplog):
        # An idle keep-alive connection and a half-sent request each
        # hold a handler blocked on a read when the block exits; both
        # must be cancelled and awaited before the loop closes, or
        # collecting them logs "Task was destroyed but it is pending!".
        # (Debug-mode loops log connections at DEBUG, so warnings up.)
        with ServerThread(default_scenario=SCENARIO) as server:
            caplog.set_level(logging.WARNING, logger="asyncio")
            idle = socket.create_connection(("127.0.0.1", server.port),
                                            timeout=10)
            idle.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert idle.recv(1 << 16).startswith(b"HTTP/1.1 200")
            half = socket.create_connection(("127.0.0.1", server.port),
                                            timeout=10)
            half.sendall(b"POST /sessions HTTP/1.1\r\n"
                         b"Content-Length: 64\r\n\r\n{\"scen")
            deadline = time.monotonic() + 10
            while len(server.server._handlers) < 2:
                assert time.monotonic() < deadline, "connection not handled"
                time.sleep(0.01)
        assert not server.server._handlers
        idle.close()
        half.close()
        gc.collect()
        assert [r.getMessage() for r in caplog.records
                if r.name.startswith("asyncio")] == []
