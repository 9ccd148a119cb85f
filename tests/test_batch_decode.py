"""The stack contract of the one reader pipeline.

``reader.decode`` is the pipeline on a stack of one and
``BatchedDecoder.decode_batch`` the same pipeline on a whole stack, so
every row of a stack must decode exactly as its stack of one: ok flags,
payload bits, failure kinds and recovery attempts bit for bit, float
diagnostics to rtol 1e-10 (BLAS summation-order noise only).  Fixed
snapshots pin it (the 100-element one is the scale the
``bench_batched_decode`` benchmark times), and a property checks it
for generated sub-stacks and permutations of a pool that walks both
recovery rungs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import Scene
from repro.channel.multipath import apply_channel
from repro.channel.noise import awgn
from repro.link import build_ap_transmission
from repro.reader import BackFiReader, BatchedDecoder
from repro.tag import BackFiTag, TagConfig
from repro.wifi import random_payload

RTOL = 1e-10


def _build_batch(n_batch, cfg, *, payload_bytes=300, base_seed=1000,
                 distance_fn=lambda b: 1.0 + 0.02 * b):
    """One shared AP transmission, per-element channels and rx."""
    rng = np.random.default_rng(77)
    psdu = random_payload(payload_bytes, rng)
    scene0 = Scene.build(tag_distance_m=1.0,
                         rng=np.random.default_rng(0))
    tl = build_ap_transmission(psdu, 24, include_cts=False,
                               tx_power_mw=scene0.tx_power_mw)
    x = tl.samples
    rx = np.empty((n_batch, x.size), dtype=np.complex128)
    h_envs = []
    for b in range(n_batch):
        srng = np.random.default_rng(base_seed + b)
        scene = Scene.build(tag_distance_m=distance_fn(b), rng=srng)
        tag = BackFiTag(cfg)
        tag.queue_data(srng.integers(0, 2, size=600, dtype=np.uint8))
        z_tag = apply_channel(scene.h_f, x)
        plan = tag.backscatter(z_tag, wake_index=tl.wifi_start)
        si = apply_channel(scene.h_env, x)
        back = apply_channel(scene.h_b, z_tag * plan.reflection)
        rx[b] = si + back + awgn(x.size, scene.noise_floor_mw, srng)
        h_envs.append(scene.h_env)
    return tl, rx, h_envs


def _assert_equivalent(loop, batch):
    assert len(loop) == len(batch)
    for a, b in zip(loop, batch):
        assert a.ok == b.ok
        np.testing.assert_array_equal(a.payload_bits, b.payload_bits)
        assert a.n_symbols == b.n_symbols
        assert (a.failure is None) == (b.failure is None)
        if a.failure is not None:
            assert a.failure.kind == b.failure.kind
        assert a.recovery_attempts == b.recovery_attempts
        np.testing.assert_allclose(b.noise_floor_mw, a.noise_floor_mw,
                                   rtol=RTOL)
        np.testing.assert_allclose(b.symbol_snr_db, a.symbol_snr_db,
                                   rtol=RTOL, equal_nan=True)
        assert (a.sync is None) == (b.sync is None)
        if a.sync is not None:
            assert a.sync.preamble_start == b.sync.preamble_start
            assert a.sync.offset_samples == b.sync.offset_samples
            np.testing.assert_allclose(b.sync.metric, a.sync.metric,
                                       rtol=RTOL)
            scale = float(np.max(np.abs(a.channel.h_fb)))
            np.testing.assert_allclose(b.channel.h_fb, a.channel.h_fb,
                                       rtol=RTOL, atol=RTOL * scale)
            np.testing.assert_allclose(b.channel.residual_power,
                                       a.channel.residual_power,
                                       rtol=RTOL)
        if a.mrc is not None:
            sym_scale = float(np.max(np.abs(a.mrc.symbols)))
            np.testing.assert_allclose(b.mrc.symbols, a.mrc.symbols,
                                       rtol=RTOL, atol=RTOL * sym_scale)
            np.testing.assert_allclose(b.mrc.noise_var, a.mrc.noise_var,
                                       rtol=RTOL)
        if a.decode is not None:
            np.testing.assert_array_equal(a.decode.decoded_bits,
                                          b.decode.decoded_bits)


class TestBatchedDecoder:
    def test_100_tag_snapshot_matches_loop(self):
        cfg = TagConfig("qpsk", "1/2", 1e6)
        tl, rx, h_envs = _build_batch(100, cfg)
        reader = BackFiReader(cfg)
        loop = [
            reader.decode(tl, rx[b], h_envs[b],
                          rng=np.random.default_rng(5000 + b))
            for b in range(rx.shape[0])
        ]
        batch = BatchedDecoder(reader).decode_batch(
            tl, rx, h_envs,
            rngs=[np.random.default_rng(5000 + b)
                  for b in range(rx.shape[0])],
        )
        # The snapshot must actually exercise the happy path: near tags
        # at 1-3 m decode reliably.
        assert sum(r.ok for r in loop) >= 90
        _assert_equivalent(loop, batch)

    def test_failures_and_recovery_match_loop(self):
        # Far tags fail CRC; a pure-noise element fails with a raised
        # residual floor and walks the recovery ladder (deeper digital
        # canceller) in both paths.
        cfg = TagConfig("qpsk", "1/2", 1e6)
        tl, rx, h_envs = _build_batch(
            12, cfg, distance_fn=lambda b: 4.0 + 0.5 * b)
        nrng = np.random.default_rng(9)
        rx[0] = (nrng.standard_normal(rx.shape[1])
                 + 1j * nrng.standard_normal(rx.shape[1])) * 1e-9
        reader = BackFiReader(cfg)
        loop = [
            reader.decode(tl, rx[b], h_envs[b],
                          rng=np.random.default_rng(6000 + b))
            for b in range(rx.shape[0])
        ]
        batch = BatchedDecoder(reader).decode_batch(
            tl, rx, h_envs,
            rngs=[np.random.default_rng(6000 + b)
                  for b in range(rx.shape[0])],
        )
        assert any(not r.ok for r in loop)
        _assert_equivalent(loop, batch)

    def test_default_rngs_match_loop(self):
        # rngs=None must reproduce the scalar path's seeded default.
        cfg = TagConfig("qpsk", "1/2", 1e6)
        tl, rx, h_envs = _build_batch(4, cfg)
        reader = BackFiReader(cfg)
        loop = [reader.decode(tl, rx[b], h_envs[b])
                for b in range(rx.shape[0])]
        batch = BatchedDecoder(reader).decode_batch(tl, rx, h_envs)
        _assert_equivalent(loop, batch)

    def test_phase_tracking_matches_loop(self):
        # Tracking runs per row inside the pass; there is no
        # per-exchange fallback.
        cfg = TagConfig("qpsk", "1/2", 1e6)
        tl, rx, h_envs = _build_batch(4, cfg)
        reader = BackFiReader(cfg, track_phase=True)
        loop = [reader.decode(tl, rx[b], h_envs[b],
                              rng=np.random.default_rng(b))
                for b in range(rx.shape[0])]
        batch = BatchedDecoder(reader).decode_batch(
            tl, rx, h_envs,
            rngs=[np.random.default_rng(b) for b in range(rx.shape[0])])
        assert all(r.ok for r in loop)
        _assert_equivalent(loop, batch)

    def test_rejects_misaligned_batch(self):
        cfg = TagConfig("qpsk", "1/2", 1e6)
        tl, rx, h_envs = _build_batch(2, cfg)
        dec = BatchedDecoder(BackFiReader(cfg))
        with pytest.raises(ValueError):
            dec.decode_batch(tl, rx[:, :-5], h_envs)
        with pytest.raises(ValueError):
            dec.decode_batch(tl, rx, h_envs[:1])

    def test_empty_stack_returns_empty(self):
        # An empty stack returns before any stage runs, with or without
        # phase tracking.
        cfg = TagConfig("qpsk", "1/2", 1e6)
        tl, rx, _ = _build_batch(1, cfg)
        empty = np.empty((0, rx.shape[1]), dtype=np.complex128)
        for track in (False, True):
            reader = BackFiReader(cfg, track_phase=track)
            assert BatchedDecoder(reader).decode_batch(tl, empty, []) == []


POOL_DISTANCES = (1.0, 1.5, 2.0, 7.0, 1.2, 1.7)
"""Pool rows: four tags (the 7 m one fails its CRC), then row 4 becomes
pure noise and row 5 a dead capture."""


def _pool_rng(b):
    return np.random.default_rng(8000 + b)


@pytest.fixture(scope="module")
def pool():
    """A fixed pool and each row's stack-of-one decode.

    Row 4 is receiver noise only: it fails with the noise floor far
    above thermal and climbs the deeper-canceller rung.  Row 5 is a
    dead capture (no signal, no self-interference): no timing offset
    is feasible, so it climbs the widened-search rung.
    """
    cfg = TagConfig("qpsk", "1/2", 1e6)
    tl, rx, h_envs = _build_batch(len(POOL_DISTANCES), cfg,
                                  distance_fn=POOL_DISTANCES.__getitem__)
    nrng = np.random.default_rng(9)
    rx[4] = (nrng.standard_normal(rx.shape[1])
             + 1j * nrng.standard_normal(rx.shape[1])) * 1e-9
    rx[5] = 0.0
    h_envs[5] = np.zeros_like(h_envs[5])
    reader = BackFiReader(cfg)
    singles = [reader.decode(tl, rx[b], h_envs[b], rng=_pool_rng(b))
               for b in range(rx.shape[0])]
    kinds = [r.failure.kind.value if r.failure else "ok" for r in singles]
    assert kinds == ["ok", "ok", "ok", "crc", "residual-floor", "sync"]
    assert [len(r.recovery_attempts) for r in singles] == [0] * 4 + [1, 1]
    return reader, tl, rx, h_envs, singles


class TestStackContract:
    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(range(len(POOL_DISTANCES))).flatmap(
        lambda p: st.integers(1, len(p)).map(lambda k: p[:k])))
    def test_any_substack_matches_stack_of_one(self, pool, order):
        reader, tl, rx, h_envs, singles = pool
        stacked = BatchedDecoder(reader).decode_batch(
            tl, rx[order], [h_envs[b] for b in order],
            rngs=[_pool_rng(b) for b in order])
        _assert_equivalent([singles[b] for b in order], stacked)
