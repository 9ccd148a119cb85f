"""Service-layer resilience: chaos injection, retry/backoff, resume.

Covers the determinism contract of :class:`repro.faults.ChaosPlan`
(same seed, same faults, at any chunk size), the hardened
:class:`~repro.streaming.ServiceClient` recovering through every
injected failure mode, checkpoint/resume after a client dies
mid-exchange (byte-identical to an uninterrupted decode), the session
watchdog, drain, degradation accounting, and that the server thread
tears down without leaking threads.
"""

from __future__ import annotations

import io
import threading
import time

import pytest

from repro.faults import (
    ChaosConfig,
    ChaosPlan,
    ChunkCorrupt,
    ChunkDrop,
    ConnectionReset,
    LatencySpike,
    WorkerFault,
)
from repro.scenario import StreamingConfig, get_scenario
from repro.streaming import (
    CaptureSource,
    RetryPolicy,
    ServerThread,
    ServiceClient,
    ServiceHttpError,
    result_summary,
    run_session,
)

SCENARIO = "streaming-50"


def _config(**over) -> StreamingConfig:
    base = dict(chunk_samples=256, max_sessions=8, warm_start=False)
    base.update(over)
    return StreamingConfig(**base)


def _local_decode(source: CaptureSource):
    """One exchange's capture plus its batch-decoded summary."""
    cap, rng = source.next_exchange()
    result = source.built.reader.decode(
        cap.timeline, cap.rx, source.built.scene.h_env,
        pa_output=cap.x_pa, rng=rng)
    return cap, result_summary(result)


class TestChaosPlanDeterminism:
    def test_realize_is_pure(self):
        plan = get_scenario("chaos-lab").chaos.plan()
        for i in (0, 3, 17):
            a, b = plan.realize(i), plan.realize(i)
            assert [(type(e), f) for e, f in a.armed] \
                == [(type(e), f) for e, f in b.armed]
            assert a.worker_faults == b.worker_faults

    def test_exchanges_draw_independent_faults(self):
        plan = get_scenario("chaos-lab").chaos.plan()
        draws = {tuple(e.kind for e, _ in plan.realize(i).armed)
                 for i in range(10)}
        assert len(draws) > 1

    def test_intensity_zero_disarms(self):
        assert ChaosConfig(intensity=0.0).plan() is None
        scaled = ChaosPlan([ChunkDrop(probability=0.8)], seed=1).scaled(0)
        assert all(not scaled.realize(i).armed for i in range(20))

    def test_intensity_scales_and_clips(self):
        plan = ChaosPlan([ChunkDrop(probability=0.4)], seed=1)
        assert plan.scaled(0.5).events[0].probability == pytest.approx(0.2)
        assert plan.scaled(9.0).events[0].probability == 1.0

    def test_fault_log_chunk_size_independent(self):
        """The same realization injects the same events, in the same
        order, whatever chunk size covers the anchors."""
        plan = get_scenario("chaos-lab").chaos.plan()
        total = 3760

        def drive(chunk_samples: int) -> list[str]:
            logs: list[str] = []
            for i in range(6):
                real = plan.realize(i)
                for start in range(0, total, chunk_samples):
                    size = min(chunk_samples, total - start)
                    for _ in real.transport_actions(start, size, total):
                        pass
                while real.take_worker_fault():
                    pass
                logs.extend(real.injected)
            return logs

        log_512 = drive(512)
        assert log_512 == drive(256)
        assert log_512 == drive(100)
        assert log_512, "plan injected nothing at intensity 0.8"

    def test_events_fire_exactly_once_across_replays(self):
        plan = ChaosPlan([ChunkDrop(probability=1.0, at_frac=0.5)],
                         seed=0)
        real = plan.realize(0)
        assert len(real.transport_actions(400, 200, 1000)) == 1
        # The retried (replayed) chunk must not re-trigger the drop.
        assert real.transport_actions(400, 200, 1000) == []

    def test_config_round_trip(self):
        cfg = get_scenario("chaos-lab").chaos
        assert ChaosConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ValueError, match="no-such-kind"):
            ChaosConfig.from_dict(
                {"events": [{"kind": "no-such-kind"}]})
        with pytest.raises(ValueError, match="not_a_field"):
            ChaosConfig.from_dict(
                {"events": [{"kind": "chunk-drop", "not_a_field": 1}]})


class TestRetryPolicy:
    def test_schedule_is_deterministic(self):
        a = RetryPolicy(seed=5).schedule(key=(2, 7))
        b = RetryPolicy(seed=5).schedule(key=(2, 7))
        assert a == b
        assert a != RetryPolicy(seed=6).schedule(key=(2, 7))
        assert a != RetryPolicy(seed=5).schedule(key=(2, 8))

    def test_delays_respect_exponential_caps(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=0.4, seed=0)
        for attempt in range(1, policy.max_attempts):
            cap = min(0.1 * 2 ** (attempt - 1), 0.4)
            assert 0.0 <= policy.delay(attempt, (1, 2)) <= cap


class TestHardenedClientRecovery:
    def _run(self, events, *, exchanges=1, timeout=2.0, retries=8):
        plan = ChaosPlan(events, seed=9)
        with ServerThread(config=_config(), chaos=plan) as st:
            client = ServiceClient(
                st.host, st.port, timeout=timeout,
                retry=RetryPolicy(max_attempts=retries))
            try:
                failures = run_session(
                    client, scenario=SCENARIO, exchanges=exchanges,
                    verify=True, out=io.StringIO())
            finally:
                client.close()
            return failures, client, st.mux

    def test_timeout_then_retry_recovers_a_drop(self):
        failures, client, mux = self._run(
            [ChunkDrop(probability=1.0, at_frac=0.5)], timeout=0.5)
        assert failures == 0
        assert client.retries >= 1
        assert [r["event"] for r in mux.chaos_log] \
            == ["chunk-drop(at_frac=0.5)"]

    def test_deadline_shorter_than_latency_spike_retries(self):
        failures, client, _ = self._run(
            [LatencySpike(probability=1.0, at_frac=0.5, delay_s=0.6)],
            timeout=0.25)
        assert failures == 0
        assert client.retries >= 1

    def test_crc_catches_corruption_and_replay_fixes_it(self):
        failures, client, mux = self._run(
            [ChunkCorrupt(probability=1.0, at_frac=0.4)])
        assert failures == 0        # verified byte-identical anyway
        assert client.retries >= 1
        assert mux.chaos_log[0]["event"].startswith("chunk-corrupt")

    def test_reconnect_rides_through_connection_reset(self):
        failures, client, _ = self._run(
            [ConnectionReset(probability=1.0, at_frac=0.5)])
        assert failures == 0
        assert client.reconnects >= 1

    def test_worker_fault_refinishes_without_reingest(self):
        failures, _, mux = self._run(
            [WorkerFault(probability=1.0)], exchanges=2)
        assert failures == 0
        assert mux.worker_faults == 2

    def test_naive_loses_hardened_recovers(self):
        """The acceptance bar: same plan, naive loses >=50%, hardened
        delivers >=95% (here: all of them, byte-verified)."""
        sc = get_scenario("chaos-lab")
        plan = sc.chaos.plan()
        exchanges = 5

        def arm(retry):
            with ServerThread(config=sc.streaming, chaos=plan,
                              default_scenario=sc.name) as st:
                client = ServiceClient(st.host, st.port, timeout=1.0,
                                       retry=retry)
                try:
                    return run_session(
                        client, scenario=sc.name, exchanges=exchanges,
                        verify=True, resume=retry is not None,
                        out=io.StringIO())
                finally:
                    client.close()

        assert arm(RetryPolicy()) == 0
        assert arm(None) >= exchanges // 2


class TestCheckpointResume:
    @pytest.mark.parametrize("cut_frac", [0.1, 0.5, 0.9])
    def test_kill_mid_exchange_resumes_byte_identical(self, cut_frac):
        cfg = _config()
        source = CaptureSource(SCENARIO)
        cap, local = _local_decode(source)
        cs = cfg.chunk_samples
        n_chunks = -(-cap.rx.size // cs)
        cut = min(max(int(cut_frac * n_chunks), 1), n_chunks - 1)
        with ServerThread(config=cfg) as st:
            first = ServiceClient(st.host, st.port, timeout=10.0,
                                  retry=RetryPolicy())
            sid = first.open_session(SCENARIO)["session"]
            first.start_exchange(sid, expected=0)
            for k in range(cut):
                first.push_chunk(sid, cap.rx[k * cs:(k + 1) * cs],
                                 index=k)
            first.close()     # the client dies mid-exchange

            second = ServiceClient(st.host, st.port, timeout=10.0,
                                   retry=RetryPolicy())
            try:
                state = second.session_state(sid)
                assert state["in_exchange"] is True
                assert state["next_chunk_index"] == cut
                assert state["checkpoint"]["received_samples"] == cut * cs
                # The announce replay is idempotent for the in-flight
                # exchange, and replaying an accepted chunk only acks.
                assert second.start_exchange(sid, expected=0)[
                    "n_samples"] == cap.n_samples
                redo = second.push_chunk(
                    sid, cap.rx[(cut - 1) * cs:cut * cs], index=cut - 1)
                assert redo["state"] == "duplicate"
                ack = {}
                for k in range(cut, n_chunks):
                    ack = second.push_chunk(
                        sid, cap.rx[k * cs:(k + 1) * cs], index=k)
                assert ack["state"] == "decoded"
                assert local.items() <= ack["result"].items()  \
                    # byte-identical resume
            finally:
                second.close()

    def test_out_of_order_chunks_stash_and_drain(self):
        source = CaptureSource(SCENARIO)
        cap, local = _local_decode(source)
        orders = {
            # Two gaps, each filled after later chunks landed.
            256: lambda n: [1, 0, *range(3, n), 2],
            # Every chunk but the first, last to first: all of them wait
            # in the stash at once.
            64: lambda n: [*range(n - 1, 0, -1), 0],
        }
        for cs, order_of in orders.items():
            n_chunks = -(-cap.rx.size // cs)
            order = order_of(n_chunks)
            with ServerThread(config=_config(chunk_samples=cs)) as st:
                client = ServiceClient(st.host, st.port, timeout=10.0,
                                       retry=RetryPolicy())
                try:
                    sid = client.open_session(SCENARIO)["session"]
                    client.start_exchange(sid, expected=0)
                    acks = [client.push_chunk(
                        sid, cap.rx[k * cs:(k + 1) * cs], index=k)
                        for k in order]
                finally:
                    client.close()
            # A chunk waits while any earlier one is still to come.
            early = ["stashed" if k > min(order[i:]) else "queued"
                     for i, k in enumerate(order[:-1])]
            assert [a["state"] for a in acks] == early + ["decoded"]
            assert acks[0]["stashed_chunks"] == 1
            assert local.items() <= acks[-1]["result"].items()
        # The reversed capture stashed more chunks than the 32 that once
        # bounded the stash.
        assert acks[-2]["stashed_chunks"] == n_chunks - 1 > 32


class TestWatchdogAndDrain:
    def test_watchdog_reaps_only_stalled_exchanges(self):
        cfg = _config(watchdog_deadline_s=0.4, watchdog_interval_s=0.1)
        source = CaptureSource(SCENARIO)
        cap, _ = _local_decode(source)
        with ServerThread(config=cfg) as st:
            client = ServiceClient(st.host, st.port, timeout=10.0)
            try:
                stalled = client.open_session(SCENARIO)["session"]
                idle = client.open_session(SCENARIO)["session"]
                client.start_exchange(stalled)
                client.push_chunk(stalled, cap.rx[:cfg.chunk_samples],
                                  index=0)
                deadline = time.monotonic() + 10
                while st.mux.watchdog_reaps == 0:
                    assert time.monotonic() < deadline, "never reaped"
                    time.sleep(0.05)
                with pytest.raises(ServiceHttpError) as err:
                    client.session_state(stalled)
                assert err.value.status == 404
                assert err.value.retryable is False
                # Idle-but-not-mid-exchange sessions are left alone.
                assert client.session_state(idle)["in_exchange"] is False
                assert client.stats()["watchdog_reaps"] >= 1
            finally:
                client.close()

    def test_drain_refuses_admissions_but_finishes_inflight(self):
        cfg = _config()
        source = CaptureSource(SCENARIO)
        cap, local = _local_decode(source)
        cs = cfg.chunk_samples
        with ServerThread(config=cfg) as st:
            client = ServiceClient(st.host, st.port, timeout=10.0)
            try:
                assert client.readyz()["ready"] is True
                sid = client.open_session(SCENARIO)["session"]
                client.start_exchange(sid)
                client.push_chunk(sid, cap.rx[:cs], index=0)

                st.submit(_async(st.server.request_drain))
                deadline = time.monotonic() + 10
                while not st.mux.draining:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                with pytest.raises(ServiceHttpError) as err:
                    client.readyz()
                assert err.value.status == 503
                with pytest.raises(ServiceHttpError) as err:
                    client.open_session(SCENARIO)
                assert err.value.status == 503
                assert err.value.retryable is True

                # The in-flight exchange still runs to completion.
                ack = {}
                n_chunks = -(-cap.rx.size // cs)
                for k in range(1, n_chunks):
                    ack = client.push_chunk(
                        sid, cap.rx[k * cs:(k + 1) * cs], index=k)
                assert ack["state"] == "decoded"
                assert local.items() <= ack["result"].items()
            finally:
                client.close()


async def _async(fn, *args):
    return fn(*args)


class TestAccountingAndTeardown:
    def test_warm_admissions_degrade_under_load(self):
        cfg = _config(max_sessions=4, degrade_warm_frac=0.5,
                      warm_start=True)
        with ServerThread(config=cfg) as st:
            client = ServiceClient(st.host, st.port, timeout=10.0)
            try:
                granted = [client.open_session(SCENARIO, warm_start=True)
                           for _ in range(4)]
                warm = [s for s in granted if s["warm_start"]]
                cold = [s for s in granted if not s["warm_start"]]
                assert len(warm) == 2 and len(cold) == 2
                assert all(s["admission_degraded"] for s in cold)
                assert client.stats()["warm_downgrades"] == 2
            finally:
                client.close()

    def test_server_thread_leaves_no_threads_behind(self):
        before = set(threading.enumerate())
        with ServerThread(config=_config()) as st:
            client = ServiceClient(st.host, st.port, timeout=10.0,
                                   retry=RetryPolicy())
            try:
                failures = run_session(client, scenario=SCENARIO,
                                       exchanges=1, out=io.StringIO())
            finally:
                client.close()
            assert failures == 0
        deadline = time.monotonic() + 10
        while True:
            leaked = [t for t in set(threading.enumerate()) - before
                      if t.is_alive()]
            if not leaked:
                break
            assert time.monotonic() < deadline, \
                f"threads leaked past teardown: {leaked}"
            time.sleep(0.05)
