"""The benchmark's workloads: inputs made from a seed, one closed loop each.

Every workload is a closed loop with one caller; for ``serve-50`` the
caller is a client of a ``repro serve`` process.  An operation is one
exchange.  It fails when it raises, gets an HTTP status of 400 or more,
or decodes a payload other than the one in the frame the tag sent (a
CRC failure counts).

``decode-1m``
    ``BackFiReader.decode`` over pre-synthesized ``paper-1m`` captures: the
    scalar reader alone, the latency a library user sees for one packet.
``cells-near``
    ``run_exchange_batch`` over 32-exchange sweep cells whose scenes are
    built in setup: batched synthesis plus batched decode, QPSK r1/2 at
    1 MHz over 1.0-1.8 m, where nearly every cell shares one sync group.
    There is no far-cell workload: beyond ~2.4 m sync now and then locks
    on a wrong offset and the frame fails its CRC (at 2.4-3.4 m BPSK r1/2
    0.5 MHz, about one distinct exchange in 50000), and a workload must
    not fail.
``serve-50``
    ``repro serve --chunk-samples 512`` in its own process; 50 sessions
    of ``streaming-50`` (8 indexed, CRC'd chunks per exchange), served
    round-robin over one blocking ``ServiceClient`` connection.  The
    service admits 45 sessions warm and downgrades the last 5 to cold.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent


@dataclass
class Phase:
    """What one measured loop produced."""

    latencies_s: list[float] = field(default_factory=list)
    """One per call: a decode, a cell, or a served exchange."""
    starts: list[float] = field(default_factory=list)
    """``perf_counter`` at the start of each call."""
    attempted: int = 0
    failed: int = 0
    """Exchanges that raised, got an HTTP error or delivered no payload
    equal to the one sent (a CRC failure counts)."""
    wrong: int = 0
    """Exchanges the program reported decoded (CRC passed) whose payload
    differs from the one sent: a wrong output, not just a failure."""
    groups: list[int] = field(default_factory=list)
    """Distinct winning preamble starts per call."""
    recoveries: int = 0
    """Results that needed the reader's recovery ladder."""
    ack_s: list[float] = field(default_factory=list)
    """serve-50: round trips of non-final chunk POSTs."""
    ack_starts: list[float] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    """serve-50: the service's ``GET /stats`` after the loop."""
    server_trace: dict = field(default_factory=dict)
    """serve-50 traced: the server-side tracer counters."""


def expected_payload(frame_bits) -> np.ndarray:
    """The payload the tag sent: the oracle every decode is checked with."""
    from repro.link.frames import parse_frame_bits

    return parse_frame_bits(frame_bits).payload_bits


def payload_sha256(bits: np.ndarray) -> str:
    """The service's ``payload_sha256`` of a payload (packed MSB-first)."""
    packed = np.packbits(bits).tobytes() if bits.size else b""
    return hashlib.sha256(packed).hexdigest()


def payload_matches(result, frame_bits) -> bool:
    """A reader result delivered exactly the payload the tag framed."""
    return bool(result.ok) and np.array_equal(
        result.payload_bits, expected_payload(frame_bits))


def count_result(phase: Phase, result, frame_bits) -> None:
    """Account one reader result against the payload the tag framed."""
    right = payload_matches(result, frame_bits)
    phase.attempted += 1
    phase.failed += not right
    phase.wrong += bool(result.ok) and not right
    phase.recoveries += bool(result.recovery_attempts)


class Workload:
    """A single-caller closed loop over inputs built in set-up."""

    name = ""
    n_inputs = 1
    exchanges_per_call = 1

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def call(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out, phase: Phase) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        for i in range(min(self.n_inputs, 2)):
            self.call(i)

    def run(self, seconds: float, calib) -> Phase:
        phase = Phase()
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline:
            k = i % self.n_inputs
            if self.exhausted(k):
                break
            calib.once()
            t0 = time.perf_counter()
            try:
                out = self.call(k)
            except Exception as exc:   # an operation that raises fails
                phase.attempted += self.exchanges_per_call
                phase.failed += self.exchanges_per_call
                print(f"{self.name}: call {k} raised {exc!r}",
                      file=sys.stderr)
            else:
                phase.latencies_s.append(time.perf_counter() - t0)
                phase.starts.append(t0)
                self.check(k, out, phase)
            i += 1
        return phase

    def exhausted(self, i: int) -> bool:
        """Whether input ``i`` has nothing left to run."""
        return False

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


class DecodeWorkload(Workload):
    name = "decode-1m"
    n_inputs = 32

    def setup(self, seed: int) -> None:
        from repro.link import session as link_session
        from repro.scenario import get_scenario

        sc = get_scenario("paper-1m")
        self.seed = seed
        self.inputs = []
        for i in range(self.n_inputs):
            built = sc.build(rng=np.random.default_rng([seed, i, 0]))
            cap = link_session.synthesize_exchange(
                built.scene, built.tag,
                rng=np.random.default_rng([seed, i, 1]),
                **built.session_kwargs())
            self.inputs.append((built.reader, cap, built.scene.h_env))

    def call(self, i: int):
        reader, cap, h_env = self.inputs[i]
        return reader.decode(cap.timeline, cap.rx, h_env,
                             pa_output=cap.x_pa,
                             rng=np.random.default_rng([self.seed, i, 2]))

    def check(self, i: int, out, phase: Phase) -> None:
        count_result(phase, out, self.inputs[i][1].plan.frame_bits)
        phase.groups.append(1)


class CellsWorkload(Workload):
    n_inputs = 32
    n_cell = 32
    exchanges_per_call = 32

    def __init__(self, name: str, tag_config, lo_m: float, hi_m: float):
        self.name = name
        self.tag_config = tag_config
        self.lo_m, self.hi_m = lo_m, hi_m

    def setup(self, seed: int) -> None:
        from repro.channel.environment import Scene
        from repro.wifi import random_payload

        self.seed = seed
        # Every cell spans the band evenly; the seed draws the multipath,
        # payloads and noise, so cells differ less in cost between seeds.
        dist = np.linspace(self.lo_m, self.hi_m, self.n_cell)
        self.cells = []
        for c in range(self.n_inputs):
            psdu = random_payload(1500, np.random.default_rng([seed, c, 0]))
            scenes = [Scene.build(tag_distance_m=float(dist[b]),
                                  rng=np.random.default_rng([seed, c, 2, b]))
                      for b in range(self.n_cell)]
            self.cells.append((psdu, scenes))

    def call(self, i: int):
        from repro.link import batch as link_batch
        from repro.reader.reader import BackFiReader
        from repro.tag.tag import BackFiTag

        psdu, scenes = self.cells[i]
        cfg = self.tag_config
        return link_batch.run_exchange_batch(
            scenes, [BackFiTag(cfg) for _ in scenes], BackFiReader(cfg),
            psdu=psdu,
            rngs=[np.random.default_rng([self.seed, i, 3, b])
                  for b in range(len(scenes))])

    def check(self, i: int, out, phase: Phase) -> None:
        for r in out:
            count_result(phase, r.reader, r.plan.frame_bits)
        phase.groups.append(len({r.reader.sync.preamble_start for r in out
                                 if r.reader.sync is not None}))


class ServerProcess:
    """One ``repro serve`` child process, started through serve_boot."""

    def __init__(self, root: Path, workdir: Path, trace_out: Path | None):
        self.root = root
        self.workdir = workdir
        self.trace_out = trace_out
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout_s: float = 90.0) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        # serve always writes a telemetry JSONL; keep it in the checkout.
        env["REPRO_CACHE_DIR"] = str(self.workdir / "cache")
        log_path = self.workdir / "serve.log"
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "serve_boot.py"),
                 str(self.trace_out) if self.trace_out else "-",
                 "serve", "--scenario", "streaming-50",
                 "--chunk-samples", "512", "--port", "0"],
                cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + timeout_s
        pattern = re.compile(r"on http://[^:\s]+:(\d+)")
        while time.monotonic() < deadline:
            m = pattern.search(log_path.read_text())
            if m:
                self.port = int(m.group(1))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.kill()
        raise RuntimeError("repro serve did not come up:\n"
                           + log_path.read_text()[-2000:])

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1))
        return kb / 1024.0

    def stop(self, client) -> int:
        """``POST /shutdown`` and wait; a server that hangs is killed."""
        try:
            client.shutdown()
        except Exception as exc:   # the wait below decides the outcome
            print(f"serve-50: shutdown request failed: {exc!r}",
                  file=sys.stderr)
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            return -1

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


class ServeWorkload(Workload):
    """One client connection, round-robin over the service's sessions.

    One exchange is in flight at a time, so the service is idle between
    calls and the calibration kernel runs there like in the other loops.
    """

    name = "serve-50"
    n_inputs = 50
    """Sessions; call ``i`` runs the next exchange of session ``i``."""
    chunk_samples = 512
    exchanges_per_session = 64
    """Captures synthesized per set-up; the loop ends if they run out."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.server: ServerProcess | None = None
        self.client = None
        self.n_servers = 0
        self.exit_codes: list[int] = []

    def setup(self, seed: int, trace_out: Path | None = None) -> None:
        from repro.scenario import get_scenario
        from repro.streaming.client import ServiceClient, ServiceError
        from repro.streaming.session import CaptureSource

        self.close()
        # One ``seed=`` override for every session: each session replays
        # the same capture sequence, so the client synthesizes it once.
        overrides = [f"seed={seed}"]
        source = CaptureSource(
            get_scenario("streaming-50").with_overrides(*overrides))
        self.captures = []
        cs = self.chunk_samples
        for _ in range(self.exchanges_per_session):
            cap, _ = source.next_exchange()
            chunks = [cap.rx[k:k + cs] for k in range(0, cap.n_samples, cs)]
            sha = payload_sha256(expected_payload(cap.plan.frame_bits))
            self.captures.append((cap.n_samples, chunks, sha))
        self.n_servers += 1
        self.server = ServerProcess(
            self.root, self.workdir / f"server{self.n_servers}", trace_out)
        self.server.start()
        self.client = ServiceClient("127.0.0.1", self.server.port,
                                    timeout=120.0, retry=None)
        deadline = time.monotonic() + 60
        while True:
            try:
                self.client.healthz()
                break
            except ServiceError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        self.sessions = [
            self.client.request(
                "POST", "/sessions",
                {"scenario": "streaming-50", "overrides": overrides},
                idempotent=False)["session"]
            for _ in range(self.n_inputs)]
        self.next_exchange = [0] * self.n_inputs

    def exhausted(self, i: int) -> bool:
        return self.next_exchange[i] >= len(self.captures)

    def call(self, i: int):
        """Announce, push the indexed chunks, return the final ack."""
        from repro.streaming.client import ServiceError

        sid, e = self.sessions[i], self.next_exchange[i]
        self.next_exchange[i] = e + 1
        n_samples, chunks, _ = self.captures[e]
        acks = []
        try:
            announced = self.client.start_exchange(sid, expected=e)
            if announced.get("n_samples") != n_samples:
                raise ServiceError(f"announced {announced}, expected "
                                   f"{n_samples} samples")
            for k, chunk in enumerate(chunks):
                tk = time.perf_counter()
                ack = self.client.push_chunk(sid, chunk, index=k)
                acks.append((tk, time.perf_counter() - tk))
        except ServiceError:
            try:
                self.client.abort_exchange(sid)
            except ServiceError:
                pass
            raise
        return e, ack, acks[:-1]

    def check(self, i: int, out, phase: Phase) -> None:
        e, ack, acks = out
        result = ack.get("result") or {}
        right = result.get("payload_sha256") == self.captures[e][2]
        phase.attempted += 1
        phase.failed += not (result.get("ok") is True and right)
        phase.wrong += result.get("ok") is True and not right
        phase.groups.append(1)
        phase.recoveries += bool(result.get("recovery_attempts"))
        for tk, dt in acks:
            phase.ack_starts.append(tk)
            phase.ack_s.append(dt)

    def warmup(self) -> None:
        """One exchange per session: each warm session's first is cold."""
        phase = Phase()
        for i in range(self.n_inputs):
            self.check(i, self.call(i), phase)
        if phase.failed:
            raise RuntimeError(f"serve-50: {phase.failed} warm-up "
                               "exchanges failed")

    def run(self, seconds: float, calib) -> Phase:
        phase = super().run(seconds, calib)
        phase.stats = self.client.stats()
        self.rss_mb = self.server.peak_rss_mb()
        return phase

    def run_traced(self, seconds: float, seed: int, calib) -> Phase:
        """A fresh, traced service, warmed up like the untraced one; its
        counters are zeroed after the warm-up, so they cover this loop."""
        trace_out = self.workdir / "server_trace.json"
        marker = Path(str(trace_out) + ".reset")
        self.setup(seed, trace_out=trace_out)
        self.warmup()
        self.server.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not marker.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("serve-50: traced server did not reset")
            time.sleep(0.01)
        phase = super().run(seconds, calib)
        phase.stats = self.client.stats()
        self.close()
        phase.server_trace = json.loads(trace_out.read_text())
        return phase

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def close(self) -> None:
        """Stop the service (if any) and record its exit status."""
        if self.server is not None:
            if self.client is None:      # set-up failed before connecting
                self.server.kill()
                self.exit_codes.append(-1)
            else:
                self.exit_codes.append(self.server.stop(self.client))
                self.client.close()
            self.server = None
            self.client = None


def make(name: str, root: Path, workdir: Path):
    from repro.tag.config import TagConfig

    if name == "decode-1m":
        return DecodeWorkload()
    if name == "cells-near":
        return CellsWorkload(name, TagConfig("qpsk", "1/2", 1e6), 1.0, 1.8)
    if name == "serve-50":
        return ServeWorkload(root, workdir)
    raise ValueError(f"unknown workload {name!r}")
