"""The exchange synthesizer's contract.

:func:`repro.link.batch.synthesize_stack` is the only exchange
synthesizer, and these tests hold its two callers to it:

* a stack of one is the scalar synthesizer bit for bit --
  :func:`repro.link.session.synthesize_exchange` against the verbatim
  scalar form in ``synthesis_oracle.py`` over excitations, packet sizes,
  fault plans, interferers, mobility, the wake-up detector, env drift
  and EVM, and :func:`repro.link.run_exchange_batch` on one element
  against ``run_backscatter_session``;
* :func:`repro.link.run_exchange_batch` on a bigger stack matches the
  per-element ``run_backscatter_session`` loop -- decoded bits, ``ok``
  flags and payloads exactly, float diagnostics to rtol 1e-10 -- with
  env drift on, off and mixed across rows, and elements that differ in
  transmission key (tag id, preamble, TX power) are grouped, each group
  sharing one AP transmission.
"""

import dataclasses
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))

import synthesis_oracle  # noqa: E402

from repro.channel.environment import Scene, SceneConfig
from repro.constants import BACKSCATTER_EVM_RMS, TX_POWER_DBM
from repro.faults import (
    AdcSaturation,
    Blocker,
    Brownout,
    ClockDrift,
    DetectorMiss,
    FaultPlan,
    InterferenceBurst,
)
from repro.link import run_exchange_batch
from repro.link.session import run_backscatter_session, synthesize_exchange
from repro.reader.reader import BackFiReader
from repro.tag.tag import BackFiTag, TagConfig
from repro.wifi.frames import random_payload

RTOL = 1e-10
CFG = TagConfig("qpsk", "1/2", 1e6)

# Env drift per row: the default process, none, or a mix of two
# processes and none (three drift keys in one stack).
_DRIFTS = {
    "on": [SceneConfig()],
    "off": [SceneConfig(env_drift_rms=0.0)],
    "mixed": [SceneConfig(), SceneConfig(env_drift_rms=0.0),
              SceneConfig(env_drift_rms=1e-5, env_drift_coherence_us=80.0)],
}


def _build(n, *, spread=0.4, seed0=300, rng0=9000, drift="on"):
    configs = _DRIFTS[drift]
    scenes = [
        Scene.build(tag_distance_m=1.0 + spread * b,
                    config=configs[b % len(configs)],
                    rng=np.random.default_rng(seed0 + b))
        for b in range(n)
    ]
    tags = [BackFiTag(CFG) for _ in range(n)]
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


def _same(a, b) -> bool:
    """Bitwise equality over nested dataclasses, arrays and floats."""
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


PSDU = random_payload(300, np.random.default_rng(42))


class TestEquivalence:
    def test_matches_scalar_loop(self):
        cases = [(6, 0.4, "on")] + [
            (n, 2.0 / max(n - 1, 1), drift)
            for n in (1, 2, 3, 5, 32) for drift in ("on", "off", "mixed")
        ]
        for n, spread, drift in cases:
            scenes, tags, rngs = _build(n, spread=spread, drift=drift)
            fast = run_exchange_batch(scenes, tags, BackFiReader(),
                                      psdu=PSDU, rngs=rngs)
            scenes, tags, rngs = _build(n, spread=spread, drift=drift)
            direct = _scalar_loop(scenes, tags, rngs, psdu=PSDU)
            _assert_equivalent(fast, direct)
            assert sum(r.reader.ok for r in fast) >= 2 * n // 3, (n, drift)

    def test_single_element_batch(self):
        # A stack of one is the scalar session bit for bit, at captures
        # on both sides of numpy's 256 KiB temporary-elision size.
        for n_bytes in (300, 1500, 4000):
            psdu = random_payload(n_bytes, np.random.default_rng(n_bytes))
            scenes, tags, rngs = _build(1)
            (fast,) = run_exchange_batch(scenes, tags, BackFiReader(),
                                         psdu=psdu, rngs=rngs)
            scenes, tags, ref_rngs = _build(1)
            (direct,) = _scalar_loop(scenes, tags, ref_rngs, psdu=psdu)
            assert _same(fast.reader, direct.reader), n_bytes
            assert _same(fast.plan, direct.plan), n_bytes
            assert _same(fast.payload_bits, direct.payload_bits)
            assert (rngs[0].bit_generator.state
                    == ref_rngs[0].bit_generator.state)

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
        # One transmission per tag id: three groups of one.
        assert fast[0].timeline is not fast[1].timeline

    def test_mixed_transmissions_are_grouped(self):
        # Two tag ids x two TX powers: four groups, each decoded off
        # one AP transmission, every row as the per-element loop.
        def build():
            scenes = [
                Scene.build(tag_distance_m=1.0 + 0.25 * b,
                            config=SceneConfig(
                                tx_power_dbm=TX_POWER_DBM - 3.0 * (b % 4 > 1)),
                            rng=np.random.default_rng(300 + b))
                for b in range(8)
            ]
            tags = [BackFiTag(CFG, tag_id=1 + b % 2) for b in range(8)]
            return scenes, tags, [np.random.default_rng(9000 + b)
                                  for b in range(8)]

        scenes, tags, rngs = build()
        keys = [(t.tag_id, s.tx_power_mw) for s, t in zip(scenes, tags)]
        assert len(set(keys)) == 4
        fast = run_exchange_batch(scenes, tags, BackFiReader(),
                                  psdu=PSDU, rngs=rngs)
        for a in range(8):
            for b in range(8):
                same = fast[a].timeline is fast[b].timeline
                assert same == (keys[a] == keys[b]), (a, b)
        scenes, tags, rngs = build()
        _assert_equivalent(fast, _scalar_loop(scenes, tags, rngs,
                                              psdu=PSDU))
        assert sum(r.reader.ok for r in fast) >= 6

    def test_addressed_tag_id_keeps_batch_shareable(self):
        scenes, tags, rngs = _build(3)
        for i, t in enumerate(tags):
            t.tag_id = i + 1
        out = run_exchange_batch(scenes, tags, BackFiReader(),
                                 psdu=PSDU, rngs=rngs,
                                 addressed_tag_id=2)
        assert all(r.timeline is out[0].timeline for r in out)


# -- a stack of one is the scalar synthesizer ---------------------------

_FAULTS = (DetectorMiss, Blocker, ClockDrift, InterferenceBurst, Brownout,
           AdcSaturation)


@st.composite
def _exchange_options(draw):
    fault = draw(st.none() | st.sampled_from(_FAULTS))
    return dict(
        seed=draw(st.integers(0, 2 ** 16)),
        excitation=draw(st.sampled_from(["wifi", "ble", "zigbee", "dsss"])),
        wifi_payload_bytes=draw(st.sampled_from([300, 1500, 4000])),
        faults=None if fault is None else FaultPlan(
            [fault(probability=1.0)], seed=draw(st.integers(0, 99))),
        interferer=draw(st.booleans()),
        tag_speed_m_s=draw(st.just(0.0) | st.floats(0.1, 3.0)),
        use_tag_detector=draw(st.booleans()),
        env_drift=draw(st.booleans()),
        backscatter_evm=draw(st.sampled_from([0.0, BACKSCATTER_EVM_RMS])),
    )


def _synthesize(synth, opts):
    """One exchange from ``opts`` on fresh objects; returns the capture,
    the tag and the generator after the call."""
    seed = opts["seed"]
    config = SceneConfig() if opts["env_drift"] else \
        SceneConfig(env_drift_rms=0.0)
    scene = Scene.build(tag_distance_m=1.5, config=config,
                        rng=np.random.default_rng([seed, 0]))
    interferers = None
    if opts["interferer"]:
        interferers = [(BackFiTag(CFG), Scene.build(
            tag_distance_m=2.5, rng=np.random.default_rng([seed, 1])))]
    tag = BackFiTag(CFG)
    rng = np.random.default_rng([seed, 2])
    cap = synth(scene, tag,
                excitation=opts["excitation"],
                wifi_payload_bytes=opts["wifi_payload_bytes"],
                faults=opts["faults"],
                interferers=interferers,
                tag_speed_m_s=opts["tag_speed_m_s"],
                use_tag_detector=opts["use_tag_detector"],
                backscatter_evm=opts["backscatter_evm"],
                rng=rng)
    return cap, tag, rng


@settings(deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.too_slow])
@given(opts=_exchange_options())
def test_stack_of_one_is_the_scalar_synthesizer(opts):
    got, got_tag, got_rng = _synthesize(synthesize_exchange, opts)
    ref, ref_tag, ref_rng = _synthesize(synthesis_oracle.synthesize_exchange,
                                        opts)
    for name in ("payload_bits", "x_pa", "rx", "z_tag", "reflection"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.timeline.samples.tobytes() == ref.timeline.samples.tobytes()
    assert _same(got.plan.frame_bits, ref.plan.frame_bits)
    assert got.injected_faults == ref.injected_faults
    assert got_tag.pending_bits == ref_tag.pending_bits
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state
