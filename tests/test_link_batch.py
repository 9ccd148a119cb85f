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
  sharing one AP transmission;
* the stage-ordered stack is the stack that drew each row's stages in
  one pass (``synthesis_oracle.synthesize_stack``) bit for bit, at
  stack sizes on both sides of numpy's temporary-elision size, and one
  generator passed for two rows is refused.
"""

import dataclasses
import struct
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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
from repro.link.batch import synthesize_stack
from repro.link.session import (
    run_backscatter_session,
    synthesize_ap_transmission,
    synthesize_exchange,
)
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
    "two": [SceneConfig(),
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

    def test_shared_generator_is_refused(self):
        scenes, tags, rngs = _build(4)
        rngs[3] = rngs[1]
        with pytest.raises(ValueError, match="rows 1 and 3"):
            run_exchange_batch(scenes, tags, BackFiReader(),
                               psdu=PSDU, rngs=rngs)
        timeline, x_pa = synthesize_ap_transmission(
            scenes[0], tags[0], psdu=PSDU, rng=rngs[0])
        with pytest.raises(ValueError, match="rows 1 and 3"):
            synthesize_stack((timeline, x_pa), scenes, tags, rngs)

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


# -- the stage-ordered stack is the one-pass stack ------------------------


def _stack_capture(synth, opts):
    """``synth``'s stack from ``opts`` on fresh objects: the receive
    stack, every capture field and every generator's end state."""
    n, seed = opts["n"], opts["seed"]
    configs = _DRIFTS[opts["drift"]]
    scenes = [Scene.build(tag_distance_m=1.0 + 0.05 * b,
                          config=configs[b % len(configs)],
                          rng=np.random.default_rng([seed, b]))
              for b in range(n)]
    tags = [BackFiTag(CFG) for _ in range(n)]
    rngs = [np.random.default_rng([seed, 100, b]) for b in range(n)]
    psdu = random_payload(opts["psdu_bytes"], np.random.default_rng(seed))
    transmission = synthesize_ap_transmission(scenes[0], tags[0], psdu=psdu,
                                              rng=rngs[0])
    interferers = [(BackFiTag(CFG), Scene.build(
        tag_distance_m=2.5, rng=np.random.default_rng([seed, 999])))] \
        if opts["interferer"] else None
    fault = opts["fault"]
    y, captures = synth(
        transmission, scenes, tags, rngs,
        backscatter_evm=opts["backscatter_evm"],
        tag_speed_m_s=opts["tag_speed_m_s"],
        interferers=interferers,
        faults=None if fault is None else FaultPlan(
            [fault(probability=0.7)], seed=seed),
        exchange_index=opts["exchange_index"])
    out = [y.tobytes(), y.shape, y.flags.c_contiguous]
    for cap in captures:
        out += [cap.rx.tobytes(), cap.z_tag.tobytes(),
                cap.reflection.tobytes(), cap.payload_bits.tobytes(),
                cap.injected_faults,
                getattr(cap.plan.detection, "detected", None),
                None if cap.plan.frame_bits is None
                else np.asarray(cap.plan.frame_bits).tobytes()]
    return out + [r.bit_generator.state for r in rngs]


@st.composite
def _stack_options(draw):
    return dict(
        n=draw(st.sampled_from([1, 2, 3, 5, 32])),
        seed=draw(st.integers(0, 2 ** 16)),
        # 300-byte captures are under numpy's 256 KiB elision size up to
        # four rows, 1500-byte ones at one row; 4000-byte ones never.
        psdu_bytes=draw(st.sampled_from([300, 1500, 4000])),
        drift=draw(st.sampled_from(sorted(_DRIFTS))),
        backscatter_evm=draw(st.sampled_from([0.0, BACKSCATTER_EVM_RMS])),
        tag_speed_m_s=draw(st.just(0.0) | st.floats(0.1, 3.0)),
        fault=draw(st.none() | st.sampled_from(_FAULTS)),
        interferer=draw(st.booleans()),
        exchange_index=draw(st.integers(0, 3)),
    )


_BIG = dict(seed=5, psdu_bytes=1500, tag_speed_m_s=0.0, fault=None,
            interferer=False, exchange_index=0)


@settings(deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.too_slow])
@given(opts=_stack_options())
@example(opts=dict(_BIG, n=32, drift="on",
                   backscatter_evm=BACKSCATTER_EVM_RMS))
@example(opts=dict(_BIG, n=32, drift="mixed", backscatter_evm=0.0))
@example(opts=dict(_BIG, n=1, drift="two",
                   backscatter_evm=BACKSCATTER_EVM_RMS))
@example(opts=dict(_BIG, n=3, drift="off", psdu_bytes=300,
                   backscatter_evm=BACKSCATTER_EVM_RMS, tag_speed_m_s=1.2,
                   fault=Blocker, interferer=True))
def test_stage_ordered_stack_is_the_one_pass_stack(opts):
    assert _stack_capture(synthesize_stack, opts) == \
        _stack_capture(synthesis_oracle.synthesize_stack, opts)


# -- the working set of a batched cell ------------------------------------

_STACK_UNITS_MAX = 7.2
"""Transient allocation peak of one 32-row near cell, in stacks (one
stack is the cell's ``(32, n_samples)`` complex128 receive array, 6.02
MB for a 1500-byte PSDU).  Measured at 6.13 with stage-ordered draws,
in-place drift, ADC and digital stages, the copy-free stacked
convolution and the analog residual freed once the ADC has quantized
it, plus one stack of headroom; holding that residual through the
digital stage peaked at 6.89, and the one-pass synthesis with its
padded copy and complex temporaries at 10.2."""


def test_cell_working_set_stays_bounded():
    cfg = TagConfig("qpsk", "1/2", 1e6)
    psdu = random_payload(1500, np.random.default_rng([7, 0, 0]))
    scenes = [Scene.build(tag_distance_m=float(d),
                          rng=np.random.default_rng([7, 0, 2, b]))
              for b, d in enumerate(np.linspace(1.0, 1.8, 32))]

    def cell():
        return run_exchange_batch(
            scenes, [BackFiTag(cfg) for _ in scenes], BackFiReader(cfg),
            psdu=psdu, rngs=[np.random.default_rng([7, 0, 3, b])
                             for b in range(32)])

    cell()                  # fill the per-exchange invariant caches
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        results = cell()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack_bytes = results[0].timeline.samples.size * 32 * 16
    assert sum(r.reader.ok for r in results) >= 30
    assert (peak - base) / stack_bytes <= _STACK_UNITS_MAX
