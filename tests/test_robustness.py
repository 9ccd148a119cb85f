"""Failure-injection and robustness tests for the reader pipeline."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.channel import Scene
from repro.faults import (
    AdcSaturation,
    Blocker,
    Brownout,
    ClockDrift,
    DetectorMiss,
    FaultPlan,
    InterferenceBurst,
)
from repro.link import build_ap_transmission, run_backscatter_session
from repro.reader import BackFiReader, FailureKind, ReaderFailure
from repro.reader import batch as reader_batch
from repro.reader.reader import ReaderResult
from repro.tag import BackFiTag, TagConfig
from repro.wifi import random_payload


def _session(faults=None, exchange_index=0, *, scene_seed=404,
             session_seed=405, distance_m=1.0):
    """One exchange with fully pinned randomness."""
    cfg = TagConfig("qpsk", "1/2", 1e6)
    scene = Scene.build(tag_distance_m=distance_m,
                        rng=np.random.default_rng(scene_seed))
    return run_backscatter_session(
        scene, BackFiTag(cfg), BackFiReader(cfg),
        payload_bits=np.ones(200, dtype=np.uint8),
        faults=faults, exchange_index=exchange_index,
        rng=np.random.default_rng(session_seed),
    )


class TestReaderRobustness:
    def test_noise_only_rx_fails_cleanly(self, rng):
        cfg = TagConfig()
        scene = Scene.build(tag_distance_m=1.0, rng=rng)
        reader = BackFiReader(cfg)
        tl = build_ap_transmission(random_payload(500, rng), 24,
                                   tx_power_mw=scene.tx_power_mw)
        rx = (rng.standard_normal(tl.n_samples)
              + 1j * rng.standard_normal(tl.n_samples)) * 1e-9
        out = reader.decode(tl, rx, scene.h_env)
        assert not out.ok
        assert out.failure is not None

    def test_wrong_preamble_seed_degrades_estimate(self, rng):
        # Reader configured for a different tag preamble: derotating
        # with the wrong PN sequence decorrelates most of the preamble
        # energy, collapsing the channel-estimate gain (the regularised
        # LS may still recover a scaled channel from the residual
        # correlation, so decoding is not guaranteed to fail -- but the
        # estimate must be much weaker than with the right sequence).
        cfg = TagConfig()
        metrics = {}
        for label, pre_seed in (("right", 0x35), ("wrong", 0x77)):
            srng = np.random.default_rng(123)
            scene = Scene.build(tag_distance_m=1.0, rng=srng)
            reader = BackFiReader(cfg, preamble_seed=pre_seed)
            out = run_backscatter_session(scene, BackFiTag(cfg), reader,
                                          rng=srng)
            assert out.reader.sync is not None
            metrics[label] = out.reader.sync.metric
        assert metrics["wrong"] > 10.0 * metrics["right"]

    def test_zero_rx_does_not_crash(self, rng):
        cfg = TagConfig()
        scene = Scene.build(tag_distance_m=1.0, rng=rng)
        reader = BackFiReader(cfg)
        tl = build_ap_transmission(random_payload(500, rng), 24)
        out = reader.decode(tl, np.zeros(tl.n_samples, dtype=complex),
                            scene.h_env)
        assert not out.ok

    def test_saturating_interference(self, rng):
        # An absurdly strong SI channel (no isolation at all): the chain
        # must degrade, not crash.
        cfg = TagConfig()
        from repro.channel import SceneConfig

        scfg = SceneConfig(circulator_isolation_db=0.0)
        scene = Scene.build(tag_distance_m=1.0, config=scfg, rng=rng)
        out = run_backscatter_session(scene, BackFiTag(cfg),
                                      BackFiReader(cfg), rng=rng)
        assert isinstance(out.ok, bool)

    def test_tiny_wifi_packet_no_room(self, rng):
        cfg = TagConfig("bpsk", "1/2", 100e3)
        scene = Scene.build(tag_distance_m=1.0, rng=rng)
        out = run_backscatter_session(
            scene, BackFiTag(cfg), BackFiReader(cfg),
            wifi_payload_bytes=40, wifi_rate_mbps=54, rng=rng,
        )
        assert not out.ok
        assert out.plan.info_bits_sent == 0

    def test_result_throughput_helpers_on_failure(self, rng):
        cfg = TagConfig("16psk", "2/3", 2.5e6)
        scene = Scene.build(tag_distance_m=25.0, rng=rng)
        out = run_backscatter_session(scene, BackFiTag(cfg),
                                      BackFiReader(cfg), rng=rng)
        assert not out.ok
        assert out.delivered_bits == 0
        assert out.goodput_bps == 0.0
        assert out.reader.throughput_bps(1.0) == 0.0

    def test_session_rejects_bad_rate(self, rng):
        cfg = TagConfig()
        scene = Scene.build(tag_distance_m=1.0, rng=rng)
        with pytest.raises(ValueError):
            run_backscatter_session(
                scene, BackFiTag(cfg), BackFiReader(cfg),
                wifi_rate_mbps=13, rng=rng,
            )

    def test_reader_result_repr_safe(self, rng):
        # Diagnostics dataclasses must not explode on repr (arrays are
        # excluded from repr fields).
        cfg = TagConfig()
        scene = Scene.build(tag_distance_m=1.0, rng=rng)
        out = run_backscatter_session(scene, BackFiTag(cfg),
                                      BackFiReader(cfg), rng=rng)
        assert "ReaderResult" in repr(out.reader)
        assert "SessionResult" in repr(out)


class TestNumericalEdges:
    def test_very_short_silent_margin(self, rng):
        from repro.link.protocol import ApTimeline

        cfg = TagConfig()
        reader = BackFiReader(cfg)
        tl = build_ap_transmission(random_payload(200, rng), 24)
        with pytest.raises(ValueError):
            reader.silent_rows(tl, margin_us=8.0)

    def test_scene_with_extreme_exponent(self, rng):
        from repro.channel import SceneConfig

        scfg = SceneConfig(pathloss_exponent=4.0)
        scene = Scene.build(tag_distance_m=6.0, config=scfg, rng=rng)
        out = run_backscatter_session(
            scene, BackFiTag(TagConfig()), BackFiReader(TagConfig()),
            rng=rng,
        )
        assert not out.ok  # the link budget collapses, gracefully

    def test_deterministic_given_seed(self):
        cfg = TagConfig()

        def once():
            rng = np.random.default_rng(77)
            scene = Scene.build(tag_distance_m=1.5, rng=rng)
            return run_backscatter_session(
                scene, BackFiTag(cfg), BackFiReader(cfg), rng=rng,
            )

        a, b = once(), once()
        assert a.ok == b.ok
        assert a.reader.symbol_snr_db == pytest.approx(
            b.reader.symbol_snr_db)


class TestFaultDeterminism:
    """Fault realisations are pure functions of (seed, exchange_index)."""

    def test_same_plan_bit_identical(self):
        def plan():
            return FaultPlan(
                [Blocker(gain_db=-40.0, probability=0.7),
                 InterferenceBurst(probability=0.5)], seed=5)

        a = _session(plan())
        b = _session(plan())
        assert a.ok == b.ok
        assert a.injected_faults == b.injected_faults
        assert np.array_equal(a.reader.payload_bits,
                              b.reader.payload_bits)
        assert a.reader.symbol_snr_db == b.reader.symbol_snr_db

    def test_untriggered_plan_identical_to_no_plan(self):
        # An armed-but-silent plan must not perturb the session RNG.
        silent = FaultPlan([Blocker(probability=0.0),
                            DetectorMiss(probability=0.0)], seed=9)
        a = _session(None)
        b = _session(silent)
        assert b.injected_faults == ()
        assert a.ok == b.ok
        assert a.reader.symbol_snr_db == b.reader.symbol_snr_db
        assert np.array_equal(a.reader.payload_bits,
                              b.reader.payload_bits)

    def test_exchange_index_varies_draws(self):
        plan = FaultPlan([Blocker(probability=0.5)], seed=3)
        fired = [bool(plan.realize(i).events) for i in range(24)]
        assert any(fired) and not all(fired)
        # ... and the same index always draws the same way.
        assert fired == [bool(plan.realize(i).events)
                         for i in range(24)]

    def test_detector_miss_preserves_tag_queue(self):
        cfg = TagConfig("qpsk", "1/2", 1e6)
        scene = Scene.build(tag_distance_m=1.0,
                            rng=np.random.default_rng(404))
        tag = BackFiTag(cfg)
        out = run_backscatter_session(
            scene, tag, BackFiReader(cfg),
            payload_bits=np.ones(200, dtype=np.uint8),
            faults=FaultPlan([DetectorMiss()], seed=1),
            rng=np.random.default_rng(405),
        )
        assert not out.ok
        assert not out.plan.detection.detected
        assert tag.pending_bits == 200  # data survives the miss

    def test_each_event_kind_injects(self):
        events = [Blocker(), InterferenceBurst(), ClockDrift(),
                  Brownout(), AdcSaturation()]
        out = _session(FaultPlan(events, seed=2))
        assert len(out.injected_faults) == len(events)
        # Descriptions record the drawn window, not the -1 sentinel.
        assert all("-1" not in d for d in out.injected_faults)

    def test_sweep_identical_at_any_jobs(self):
        from repro.experiments import robustness_sweep

        kwargs = dict(intensities=(0.6,), trials=2, seed=31)
        serial = robustness_sweep.run(jobs=1, **kwargs)
        pooled = robustness_sweep.run(jobs=2, **kwargs)
        assert str(serial.table) == str(pooled.table)


class TestTypedFailures:
    def test_str_matches_old_format(self):
        f = ReaderFailure(FailureKind.SYNC, "no peak found")
        assert str(f) == "sync: no peak found"
        assert str(ReaderFailure(FailureKind.CRC)) == "crc"

    def test_recoverable_partition(self):
        assert ReaderFailure(FailureKind.SYNC).recoverable
        assert ReaderFailure(FailureKind.RESIDUAL_FLOOR).recoverable
        assert ReaderFailure(FailureKind.SATURATION).recoverable
        assert not ReaderFailure(FailureKind.CRC).recoverable
        assert not ReaderFailure(FailureKind.NO_CAPACITY).recoverable

    def test_noise_only_failure_is_typed(self, rng):
        cfg = TagConfig()
        scene = Scene.build(tag_distance_m=1.0, rng=rng)
        reader = BackFiReader(cfg)
        tl = build_ap_transmission(random_payload(500, rng), 24,
                                   tx_power_mw=scene.tx_power_mw)
        rx = (rng.standard_normal(tl.n_samples)
              + 1j * rng.standard_normal(tl.n_samples)) * 1e-9
        out = reader.decode(tl, rx, scene.h_env)
        assert not out.ok
        assert isinstance(out.failure, ReaderFailure)
        assert out.failure.kind in FailureKind


class _ScriptedReader(BackFiReader):
    """Reader whose decode passes follow a scripted failure sequence.

    :meth:`run` decodes a stack of one through the real recovery ladder
    (:func:`repro.reader.batch.decode_stack`) with the pipeline pass
    replaced by :meth:`scripted_pass`.
    """

    _TIMELINE = SimpleNamespace(samples=np.zeros(4, dtype=np.complex128))

    def __init__(self, script, **kwargs):
        super().__init__(TagConfig(), **kwargs)
        self.script = list(script)
        self.calls = []

    def scripted_pass(self, reader, timeline, x, rx, h_env, rngs, *,
                      canceller, search_us, center=None,
                      cancellation=None):
        assert reader is self and rx.shape[0] == 1
        self.calls.append((search_us, canceller.digital.n_taps))
        if self.script:
            kind = self.script.pop(0)
            return [ReaderResult(
                ok=False, failure=ReaderFailure(kind, "scripted"))]
        return [ReaderResult(ok=True)]

    def run(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reader_batch, "decode_pass", self.scripted_pass)
            return self.decode(self._TIMELINE, np.zeros(4), np.ones(1))


class TestRecoveryEscalation:
    def test_sync_failure_widens_search_window(self):
        reader = _ScriptedReader([FailureKind.SYNC])
        out = reader.run()
        assert out.ok and out.recovered
        assert len(reader.calls) == 2
        assert reader.calls[1][0] == pytest.approx(
            reader.calls[0][0] * reader.sync_widen_factor)
        assert "widened search window" in out.recovery_attempts[0]

    def test_floor_failure_deepens_canceller(self):
        reader = _ScriptedReader([FailureKind.RESIDUAL_FLOOR])
        out = reader.run()
        assert out.ok and out.recovered
        assert reader.calls[1][1] == 2 * reader.calls[0][1]

    def test_escalations_compose_and_are_bounded(self):
        # sync -> floor -> still failing: three passes, then stop.
        reader = _ScriptedReader([FailureKind.SYNC,
                                  FailureKind.SATURATION,
                                  FailureKind.SYNC,
                                  FailureKind.SYNC])
        out = reader.run()
        assert not out.ok and not out.recovered
        assert len(reader.calls) == 3
        assert len(out.recovery_attempts) == 2
        # The widened window persisted into the deeper-canceller pass.
        assert reader.calls[2][0] > reader.calls[0][0]
        assert reader.calls[2][1] > reader.calls[0][1]

    def test_unrecoverable_kind_not_escalated(self):
        reader = _ScriptedReader([FailureKind.CRC])
        out = reader.run()
        assert not out.ok
        assert len(reader.calls) == 1
        assert out.recovery_attempts == ()

    def test_recovery_disabled(self):
        reader = _ScriptedReader([FailureKind.SYNC], recovery=False)
        out = reader.run()
        assert not out.ok
        assert len(reader.calls) == 1
