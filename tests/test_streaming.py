"""Streaming decode: chunked byte-identity, warm start, multiplexer."""

from __future__ import annotations

import asyncio
import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import Blocker, ClockDrift, DetectorMiss, FaultPlan
from repro.scenario import StreamingConfig, get_scenario
from repro.streaming import (
    CaptureSource,
    MuxError,
    Overloaded,
    SessionMultiplexer,
    StreamingDecoder,
    UnknownSession,
    exchange_rngs,
)

SCENARIO = "streaming-50"


def _chunks(rx: np.ndarray, size: int):
    for start in range(0, rx.size, size):
        yield rx[start:start + size]


@pytest.fixture(scope="module")
def replay():
    """The scenario build plus its first four synthesized captures."""
    src = CaptureSource(SCENARIO)
    caps = [src.next_exchange()[0] for _ in range(4)]
    return src, caps


def _decode_rng(src, index):
    return exchange_rngs(src.scenario.seed, index)[1]


class TestChunkedEquivalence:
    @pytest.mark.parametrize("chunk", [997, 4096, None])
    def test_byte_identical_to_batch(self, replay, chunk):
        src, caps = replay
        cap = caps[0]
        batch = src.built.reader.decode(
            cap.timeline, cap.rx, src.built.scene.h_env,
            pa_output=cap.x_pa, rng=_decode_rng(src, 0))
        dec = StreamingDecoder(src.built.reader)
        size = cap.rx.size if chunk is None else chunk
        streamed = dec.decode_chunks(
            cap.timeline, src.built.scene.h_env, _chunks(cap.rx, size),
            pa_output=cap.x_pa, rng=_decode_rng(src, 0))
        assert batch.ok and streamed.ok
        assert np.array_equal(streamed.payload_bits, batch.payload_bits)
        assert streamed.symbol_snr_db == batch.symbol_snr_db
        assert streamed.n_symbols == batch.n_symbols

    def test_progress_phases(self, replay):
        src, caps = replay
        cap = caps[0]
        dec = StreamingDecoder(src.built.reader)
        n = dec.begin_exchange(cap.timeline, src.built.scene.h_env,
                               pa_output=cap.x_pa, rng=_decode_rng(src, 0))
        assert n == cap.rx.size
        assert dec.in_exchange and not dec.complete
        p = dec.push(cap.rx[:16])
        assert p.phase == "filling-silent" and not p.complete
        mid = dec._silent_end + 8
        p = dec.push(cap.rx[16:mid])
        assert p.phase == "filling-payload"
        p = dec.push(cap.rx[mid:])
        assert p.phase == "ready" and p.complete
        assert dec.finish().ok
        assert not dec.in_exchange

    def test_lifecycle_guards(self, replay):
        src, caps = replay
        cap = caps[0]
        dec = StreamingDecoder(src.built.reader)
        with pytest.raises(RuntimeError, match="no exchange open"):
            dec.push(np.zeros(4, complex))
        with pytest.raises(RuntimeError, match="incomplete"):
            dec.finish()
        dec.begin_exchange(cap.timeline, src.built.scene.h_env,
                           pa_output=cap.x_pa, rng=_decode_rng(src, 0))
        with pytest.raises(RuntimeError, match="still open"):
            dec.begin_exchange(cap.timeline, src.built.scene.h_env,
                               pa_output=cap.x_pa)
        with pytest.raises(ValueError, match="overruns"):
            dec.push(np.zeros(cap.rx.size + 1, complex))
        with pytest.raises(RuntimeError, match="incomplete"):
            dec.finish()
        dec.abort_exchange()
        assert not dec.in_exchange



class TestChunkPartitionProperty:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_any_partition_matches_one_shot(self, replay, data):
        # A cold decoder enters the one pipeline at the frame barrier,
        # so wherever the chunk boundaries fall the result is the
        # one-shot decode bit for bit.
        src, caps = replay
        cap = caps[1]
        n = cap.rx.size
        cuts = sorted(data.draw(st.lists(st.integers(1, n - 1),
                                         unique=True, max_size=12)))
        bounds = [0, *cuts, n]
        one_shot = src.built.reader.decode(
            cap.timeline, cap.rx, src.built.scene.h_env,
            pa_output=cap.x_pa, rng=_decode_rng(src, 1))
        streamed = StreamingDecoder(src.built.reader).decode_chunks(
            cap.timeline, src.built.scene.h_env,
            (cap.rx[a:b] for a, b in zip(bounds, bounds[1:])),
            pa_output=cap.x_pa, rng=_decode_rng(src, 1))
        assert streamed.ok == one_shot.ok
        assert np.array_equal(streamed.payload_bits, one_shot.payload_bits)
        assert streamed.symbol_snr_db == one_shot.symbol_snr_db
        assert streamed.noise_floor_mw == one_shot.noise_floor_mw
        assert np.array_equal(streamed.cancellation.cleaned,
                              one_shot.cancellation.cleaned)
        assert streamed.sync.preamble_start == one_shot.sync.preamble_start
        assert streamed.sync.metric == one_shot.sync.metric
        assert np.array_equal(streamed.channel.h_fb, one_shot.channel.h_fb)
        assert np.array_equal(streamed.mrc.symbols, one_shot.mrc.symbols)
        assert np.array_equal(streamed.decode.llrs, one_shot.decode.llrs)

class TestWarmStart:
    def test_warm_session_reuses_taps(self, replay):
        src, caps = replay
        dec = StreamingDecoder(src.built.reader, warm_start=True)
        for i, cap in enumerate(caps):
            result = dec.decode_chunks(
                cap.timeline, src.built.scene.h_env,
                _chunks(cap.rx, 4096),
                pa_output=cap.x_pa, rng=_decode_rng(src, i))
            assert result.ok
        # Exchange 0 pays the full fit; later ones ride the carried state.
        assert dec.warm.analog_taps is not None
        assert dec.warm.digital_taps is not None
        assert dec.warm.sync_offset is not None
        assert dec.warm_reuses >= 2
        assert dec.warm_fallbacks == 0
        assert dec.exchanges_decoded == len(caps)

    def test_cold_decoder_carries_nothing(self, replay):
        src, caps = replay
        cap = caps[0]
        dec = StreamingDecoder(src.built.reader)
        dec.decode_chunks(cap.timeline, src.built.scene.h_env,
                          _chunks(cap.rx, 4096),
                          pa_output=cap.x_pa, rng=_decode_rng(src, 0))
        assert dec.warm.analog_taps is None
        assert dec.warm.digital_taps is None
        assert dec.warm_reuses == 0


class TestApSideAnnounce:
    """The service arms each exchange from its AP side alone; that draw
    must be the exact prefix of the client's whole-capture synthesis."""

    @staticmethod
    def _assert_prefix(sc, exchanges=2):
        whole, ap_side = CaptureSource(sc), CaptureSource(sc)
        for _ in range(exchanges):
            cap, whole_rng = whole.next_exchange()
            timeline, x_pa, ap_rng = ap_side.next_transmission()
            assert timeline.samples.tobytes() == cap.timeline.samples.tobytes()
            assert x_pa.tobytes() == cap.x_pa.tobytes()
            assert timeline.wifi_start == cap.timeline.wifi_start
            assert timeline.n_samples == cap.n_samples
            assert ap_rng.bit_generator.state \
                == whole_rng.bit_generator.state
        assert ap_side.index == whole.index == exchanges

    @pytest.mark.parametrize("excitation", ["wifi", "ble", "zigbee", "dsss"])
    def test_bitwise_prefix_of_synthesize_exchange(self, excitation):
        sc = get_scenario(SCENARIO).with_overrides(
            f"link.excitation={excitation}")
        self._assert_prefix(sc)

    def test_bitwise_prefix_under_a_fault_plan(self):
        plan = FaultPlan([DetectorMiss(probability=0.5),
                          Blocker(gain_db=-30.0, probability=0.5),
                          ClockDrift(probability=1.0)], seed=3)
        self._assert_prefix(
            dataclasses.replace(get_scenario(SCENARIO), faults=plan),
            exchanges=3)


def _cfg(**overrides) -> StreamingConfig:
    base = dict(chunk_samples=4096, max_sessions=4, warm_start=False)
    base.update(overrides)
    return StreamingConfig(**base)


async def _drive_one(mux: SessionMultiplexer, sid: str, rx: np.ndarray):
    """One full exchange: announce, push the capture, await the decode.

    The service draws only the exchange's AP side; ``rx`` is the client's
    :class:`CaptureSource` replay of the receive capture.
    """
    opened = await mux.start_exchange(sid)
    step = opened["chunk_samples"]
    ack = None
    for start in range(0, rx.size, step):
        ack = await mux.push_chunk(sid, rx[start:start + step])
    assert ack["submitted"] and ack["remaining_samples"] == 0
    return await mux.wait_result(sid)


class TestMultiplexer:
    def test_roundtrip_matches_batch(self, replay):
        src, caps = replay
        cap = caps[0]

        async def go():
            async with SessionMultiplexer(_cfg()) as mux:
                session = await mux.open_session(get_scenario(SCENARIO))
                result = await _drive_one(mux, session.id, cap.rx)
                closed = await mux.close_session(session.id)
            return result, closed

        result, closed = asyncio.run(go())
        batch = src.built.reader.decode(
            cap.timeline, cap.rx, src.built.scene.h_env,
            pa_output=cap.x_pa, rng=_decode_rng(src, 0))
        assert result.ok
        assert np.array_equal(result.payload_bits, batch.payload_bits)
        assert closed["decoded"] == 1 and closed["failed"] == 0
        assert closed["delivered_bits"] == batch.payload_bits.size

    def test_admission_overload(self):
        async def go():
            async with SessionMultiplexer(_cfg(max_sessions=1)) as mux:
                first = await mux.open_session(get_scenario(SCENARIO))
                with pytest.raises(Overloaded):
                    await mux.open_session(get_scenario(SCENARIO))
                assert mux.refused == 1
                await mux.close_session(first.id)
                second = await mux.open_session(get_scenario(SCENARIO))
                assert second.id != first.id

        asyncio.run(go())

    def test_unknown_session(self):
        async def go():
            async with SessionMultiplexer(_cfg()) as mux:
                with pytest.raises(UnknownSession):
                    await mux.start_exchange("nope")
                with pytest.raises(UnknownSession):
                    await mux.push_chunk("nope", np.zeros(4, complex))
                with pytest.raises(UnknownSession):
                    await mux.close_session("nope")

        asyncio.run(go())

    def test_exchange_protocol_guards(self):
        async def go():
            async with SessionMultiplexer(_cfg()) as mux:
                session = await mux.open_session(get_scenario(SCENARIO))
                with pytest.raises(MuxError, match="no exchange open"):
                    await mux.push_chunk(session.id, np.zeros(4, complex))
                await mux.start_exchange(session.id)
                with pytest.raises(MuxError, match="in flight"):
                    await mux.start_exchange(session.id)

        asyncio.run(go())

    def test_in_order_small_chunks_decode(self, replay):
        rx = replay[1][0].rx

        async def go():
            cfg = _cfg(chunk_samples=1024)
            async with SessionMultiplexer(cfg) as mux:
                session = await mux.open_session(get_scenario(SCENARIO))
                opened = await mux.start_exchange(session.id)
                assert opened["chunk_samples"] == 1024
                for start in range(0, rx.size, 1024):
                    await mux.push_chunk(sid := session.id,
                                         rx[start:start + 1024])
                result = await mux.wait_result(sid)
            return result

        result = asyncio.run(go())
        assert result.ok
        assert result.payload_bits.size > 0

    def test_fifty_concurrent_sessions(self, replay):
        rx = replay[1][0].rx

        async def go():
            sc = get_scenario(SCENARIO)
            async with SessionMultiplexer(_cfg(max_sessions=50)) as mux:
                sessions = [await mux.open_session(sc) for _ in range(50)]
                results = await asyncio.gather(
                    *[_drive_one(mux, s.id, rx) for s in sessions])
                stats = mux.stats()
            return results, stats

        results, stats = asyncio.run(go())
        assert len(results) == 50
        assert all(r.ok for r in results)
        assert stats["decoded"] == 50
        assert stats["sessions"] == 50
        assert stats["refused"] == 0

    def test_abort_during_decode_spares_the_next_exchange(self, replay):
        # An abort (and the next announce) landing while the frame
        # barrier runs on a pool thread must wait for that decode, which
        # then settles only its own exchange.
        src, caps = replay
        gate, running = threading.Event(), threading.Event()

        async def go():
            async with SessionMultiplexer(_cfg(decode_workers=2)) as mux:
                session = await mux.open_session(get_scenario(SCENARIO))
                sid, finish = session.id, session.decoder.finish

                def gated_finish():
                    running.set()
                    gate.wait(timeout=60)
                    return finish()

                session.decoder.finish = gated_finish
                await mux.start_exchange(sid)
                for chunk in _chunks(caps[0].rx, 4096):
                    await mux.push_chunk(sid, chunk)
                try:
                    assert await asyncio.to_thread(running.wait, 30)
                    abort = asyncio.create_task(mux.abort_exchange(sid))
                    announce = asyncio.create_task(mux.start_exchange(sid))
                    done, _ = await asyncio.wait({abort, announce},
                                                 timeout=0.2)
                    assert not done
                finally:
                    gate.set()
                assert (await abort)["exchange"] == 0
                assert (await announce)["exchange"] == 1
                for chunk in _chunks(caps[1].rx, 4096):
                    await mux.push_chunk(sid, chunk)
                return await mux.wait_result(sid)

        result = asyncio.run(go())
        batch = src.built.reader.decode(
            caps[1].timeline, caps[1].rx, src.built.scene.h_env,
            pa_output=caps[1].x_pa, rng=_decode_rng(src, 1))
        assert result.ok and batch.ok
        assert np.array_equal(result.payload_bits, batch.payload_bits)
        assert result.symbol_snr_db == batch.symbol_snr_db
