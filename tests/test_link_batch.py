"""Equivalence suite for the batched exchange synthesizer.

:func:`repro.link.run_exchange_batch` promises: decoded bits, ``ok``
flags and payloads **exactly** equal to the scalar per-element
``run_backscatter_session`` loop, float diagnostics to rtol 1e-10, and
a transparent scalar fallback whenever the batch cannot share one AP
transmission.  These tests are what lets the experiment engine route
whole sweep cells through the batch without changing a byte of any
result table.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.channel.environment import Scene
from repro.link import run_exchange_batch
from repro.link.session import run_backscatter_session
from repro.reader.reader import BackFiReader
from repro.tag.tag import BackFiTag, TagConfig
from repro.wifi.frames import random_payload

RTOL = 1e-10


def _build(n, *, spread=0.4, seed0=300, rng0=9000):
    cfg = TagConfig("qpsk", "1/2", 1e6)
    scenes = [
        Scene.build(tag_distance_m=1.0 + spread * b,
                    rng=np.random.default_rng(seed0 + b))
        for b in range(n)
    ]
    tags = [BackFiTag(cfg) for _ in range(n)]
    rngs = [np.random.default_rng(rng0 + b) for b in range(n)]
    return scenes, tags, rngs


def _scalar_loop(scenes, tags, rngs, **kwargs):
    """The per-element reference the batch must reproduce."""
    reader = BackFiReader()
    return [run_backscatter_session(scene, tag, reader, rng=rng, **kwargs)
            for scene, tag, rng in zip(scenes, tags, rngs)]


def _assert_equivalent(fast, direct):
    assert len(fast) == len(direct)
    for a, b in zip(fast, direct):
        assert a.reader.ok == b.reader.ok
        assert np.array_equal(a.reader.payload_bits,
                              b.reader.payload_bits)
        assert np.array_equal(a.payload_bits, b.payload_bits)
        assert np.isclose(a.reader.symbol_snr_db, b.reader.symbol_snr_db,
                          rtol=RTOL, equal_nan=True)
        assert np.isclose(a.reader.cancellation.total_depth_db,
                          b.reader.cancellation.total_depth_db,
                          rtol=RTOL, equal_nan=True)


PSDU = random_payload(300, np.random.default_rng(42))


class TestEquivalence:
    def test_matches_scalar_loop(self):
        scenes, tags, rngs = _build(6)
        fast = run_exchange_batch(scenes, tags, BackFiReader(),
                                  psdu=PSDU, rngs=rngs)
        scenes, tags, rngs = _build(6)
        direct = _scalar_loop(scenes, tags, rngs, psdu=PSDU)
        _assert_equivalent(fast, direct)
        assert sum(r.reader.ok for r in fast) >= 4

    def test_single_element_batch(self):
        scenes, tags, rngs = _build(1)
        fast = run_exchange_batch(scenes, tags, BackFiReader(),
                                  psdu=PSDU, rngs=rngs)
        scenes, tags, rngs = _build(1)
        direct = _scalar_loop(scenes, tags, rngs, psdu=PSDU)
        _assert_equivalent(fast, direct)

    def test_empty_batch(self):
        assert run_exchange_batch([], [], BackFiReader(),
                                  psdu=PSDU, rngs=[]) == []

    def test_shared_timeline_built_once(self):
        # All elements decode against the same timeline object when the
        # batch path runs -- the whole point of sharing the excitation.
        scenes, tags, rngs = _build(3)
        out = run_exchange_batch(scenes, tags, BackFiReader(),
                                 psdu=PSDU, rngs=rngs)
        assert all(r.timeline is out[0].timeline for r in out)

    def test_fixed_payload_bits_short_circuit_draws(self):
        bits = np.ones(600, dtype=np.uint8)
        scenes, tags, rngs = _build(3)
        fast = run_exchange_batch(scenes, tags, BackFiReader(),
                                  psdu=PSDU, rngs=rngs,
                                  payload_bits=bits)
        scenes, tags, rngs = _build(3)
        direct = _scalar_loop(scenes, tags, rngs, psdu=PSDU,
                              payload_bits=bits)
        _assert_equivalent(fast, direct)
        assert all(np.array_equal(r.payload_bits, bits) for r in fast)


class TestFallbacks:
    def test_mismatched_lengths_rejected(self):
        scenes, tags, rngs = _build(3)
        with pytest.raises(ValueError):
            run_exchange_batch(scenes, tags[:2], BackFiReader(),
                               psdu=PSDU, rngs=rngs)

    def test_differing_tag_ids_fall_back_to_scalar(self):
        scenes, tags, rngs = _build(3)
        for i, t in enumerate(tags):
            t.tag_id = i + 1
        fast = run_exchange_batch(scenes, tags, BackFiReader(),
                                  psdu=PSDU, rngs=rngs)
        # Per-element timelines prove the scalar loop ran.
        assert fast[0].timeline is not fast[1].timeline

    def test_scalar_fallback_is_counted(self):
        from repro.telemetry import TelemetryCollector, use_collector

        scenes, tags, rngs = _build(3)
        tags[1].tag_id = 7
        collector = TelemetryCollector()
        with use_collector(collector):
            run_exchange_batch(scenes, tags, BackFiReader(),
                               psdu=PSDU, rngs=rngs)
        assert collector.counters.get("link.batch_scalar_fallback") == 1

    def test_addressed_tag_id_keeps_batch_shareable(self):
        scenes, tags, rngs = _build(3)
        for i, t in enumerate(tags):
            t.tag_id = i + 1
        out = run_exchange_batch(scenes, tags, BackFiReader(),
                                 psdu=PSDU, rngs=rngs,
                                 addressed_tag_id=2)
        assert all(r.timeline is out[0].timeline for r in out)
