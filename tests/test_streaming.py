"""Streaming decode: chunked byte-identity, warm start, ring, multiplexer."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario import StreamingConfig, get_scenario
from repro.streaming import (
    CaptureSource,
    ChunkRing,
    ChunkShed,
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


class TestChunkRing:
    def test_fifo_and_accounting(self):
        ring = ChunkRing(2)
        a = np.full(3, 1.0, complex)
        b = np.full(5, 2.0, complex)
        assert ring.push(a) and ring.push(b)
        assert ring.full and len(ring) == 2
        assert ring.samples_queued == 8
        assert not ring.push(a)
        assert ring.dropped == 1
        assert np.array_equal(ring.pop(), a)
        assert ring.high_watermark == 2
        assert ring.clear() == 1
        assert ring.pop() is None
        assert ring.samples_queued == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ChunkRing(0)


def _cfg(**overrides) -> StreamingConfig:
    base = dict(chunk_samples=4096, ring_chunks=8, max_sessions=4,
                backpressure="wait", warm_start=False)
    base.update(overrides)
    return StreamingConfig(**base)


async def _drive_one(mux: SessionMultiplexer, sid: str):
    """One full exchange: announce, push the capture, await the decode."""
    opened = await mux.start_exchange(sid)
    rx = mux._entry(sid).session.capture.rx
    step = opened["chunk_samples"]
    ack = None
    for start in range(0, rx.size, step):
        ack = await mux.push_chunk(sid, rx[start:start + step])
    assert ack["submitted"] and ack["remaining_samples"] == 0
    return await mux.wait_result(sid)


class TestMultiplexer:
    def test_roundtrip_matches_batch(self):
        async def go():
            async with SessionMultiplexer(_cfg()) as mux:
                session = await mux.open_session(get_scenario(SCENARIO))
                result = await _drive_one(mux, session.id)
                closed = await mux.close_session(session.id)
            return result, closed

        result, closed = asyncio.run(go())
        src = CaptureSource(SCENARIO)
        cap, decode_rng = src.next_exchange()
        batch = src.built.reader.decode(
            cap.timeline, cap.rx, src.built.scene.h_env,
            pa_output=cap.x_pa, rng=decode_rng)
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

    def test_shed_policy_refuses_when_ring_full(self):
        async def go():
            cfg = _cfg(backpressure="shed", ring_chunks=1)
            async with SessionMultiplexer(cfg) as mux:
                session = await mux.open_session(get_scenario(SCENARIO))
                await mux.start_exchange(session.id)
                entry = mux._entry(session.id)
                rx = entry.session.capture.rx
                # Fill the ring directly (no cond notify, so the consumer
                # stays parked) and watch the next push get refused.
                assert entry.ring.push(rx[:16])
                with pytest.raises(ChunkShed):
                    await mux.push_chunk(session.id, rx[16:32])
                assert mux.sheds == 1
                assert entry.session.stats.sheds == 1

        asyncio.run(go())

    def test_wait_policy_is_lossless_with_tiny_ring(self):
        async def go():
            cfg = _cfg(ring_chunks=1, chunk_samples=1024)
            async with SessionMultiplexer(cfg) as mux:
                session = await mux.open_session(get_scenario(SCENARIO))
                opened = await mux.start_exchange(session.id)
                rx = mux._entry(session.id).session.capture.rx
                assert opened["chunk_samples"] == 1024
                for start in range(0, rx.size, 1024):
                    await mux.push_chunk(sid := session.id,
                                         rx[start:start + 1024])
                result = await mux.wait_result(sid)
                assert mux._entry(sid).ring.high_watermark <= 1
            return result

        result = asyncio.run(go())
        assert result.ok
        assert result.payload_bits.size > 0

    def test_fifty_concurrent_sessions(self):
        async def go():
            sc = get_scenario(SCENARIO)
            async with SessionMultiplexer(_cfg(max_sessions=50)) as mux:
                sessions = [await mux.open_session(sc) for _ in range(50)]
                results = await asyncio.gather(
                    *[_drive_one(mux, s.id) for s in sessions])
                stats = mux.stats()
            return results, stats

        results, stats = asyncio.run(go())
        assert len(results) == 50
        assert all(r.ok for r in results)
        assert stats["decoded"] == 50
        assert stats["sessions"] == 50
        assert stats["refused"] == 0 and stats["sheds"] == 0
