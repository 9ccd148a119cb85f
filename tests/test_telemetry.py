"""Tests for the telemetry layer: collector, pipeline spans, trace CLI."""

import json
import math

import numpy as np
import pytest

from repro.channel import Scene
from repro.experiments.engine import ExperimentEngine, JobRecord
from repro.link import run_backscatter_session
from repro.reader import BackFiReader
from repro.tag import BackFiTag, TagConfig
from repro.telemetry import (
    NullCollector,
    TelemetryCollector,
    get_collector,
    load_run,
    resolve_run_path,
    set_collector,
    summarize,
    use_collector,
)
from repro.telemetry.collector import _NULL_SPAN, decode_scalar
from repro.telemetry.trace import main as trace_main

PIPELINE_STAGES = ("cancellation", "sync", "channel_est", "mrc", "decode")


def _decode_once(rng, tm=None):
    config = TagConfig("qpsk", "1/2", 1e6)
    scene = Scene.build(tag_distance_m=1.0, rng=rng)
    if tm is None:
        return run_backscatter_session(
            scene, BackFiTag(config), BackFiReader(config), rng=rng)
    with use_collector(tm):
        return run_backscatter_session(
            scene, BackFiTag(config), BackFiReader(config), rng=rng)


class TestNullDefault:
    def test_default_collector_is_null(self):
        c = get_collector()
        assert isinstance(c, NullCollector)
        assert c.enabled is False

    def test_null_span_is_shared_noop(self):
        c = NullCollector()
        assert c.span("anything") is _NULL_SPAN
        with c.span("x") as sp:
            sp.probe("ignored", 1.0)
        c.count("n")
        c.probe("free", 2.0)
        assert c.save() is None


class TestCollector:
    def test_span_nesting_records_parent_seq(self):
        tm = TelemetryCollector(run_id="nest")
        with tm.span("outer"):
            with tm.span("inner") as sp:
                sp.probe("x", 3)
        outer = next(s for s in tm.spans if s["name"] == "outer")
        inner = next(s for s in tm.spans if s["name"] == "inner")
        assert outer["parent_seq"] is None
        assert inner["parent_seq"] == outer["seq"]
        assert inner["probes"] == {"x": 3}
        # inner completes (and is recorded) before outer
        assert tm.spans[0]["name"] == "inner"

    def test_wall_time_recorded(self):
        tm = TelemetryCollector(run_id="t")
        with tm.span("s"):
            pass
        assert tm.spans[0]["wall_s"] >= 0.0
        assert math.isfinite(tm.spans[0]["start_s"])

    def test_counters_accumulate(self):
        tm = TelemetryCollector(run_id="c")
        tm.count("hits")
        tm.count("hits", 2)
        assert tm.counters == {"hits": 3}

    def test_free_probe_attaches_to_innermost_span(self):
        tm = TelemetryCollector(run_id="p")
        with tm.span("a"):
            tm.probe("inside", 1.5)
        tm.probe("dropped", 9.9)  # no open span: silently dropped
        assert tm.spans[0]["probes"] == {"inside": 1.5}

    def test_nonfinite_probes_round_trip(self):
        tm = TelemetryCollector(run_id="nan")
        with tm.span("s") as sp:
            sp.probe("a", float("nan"))
            sp.probe("b", float("inf"))
            sp.probe("c", float("-inf"))
            sp.probe("flag", True)
        probes = tm.spans[0]["probes"]
        assert probes["a"] == "nan" and probes["flag"] == 1
        assert math.isnan(decode_scalar(probes["a"]))
        assert decode_scalar(probes["b"]) == float("inf")
        assert decode_scalar(probes["c"]) == float("-inf")

    def test_set_and_use_collector_restore(self):
        tm = TelemetryCollector(run_id="u")
        before = get_collector()
        with use_collector(tm):
            assert get_collector() is tm
        assert get_collector() is before
        old = set_collector(tm)
        try:
            assert get_collector() is tm
        finally:
            set_collector(old)
        assert get_collector() is before


class TestRecordRing:
    """``max_records`` bounds the in-memory records to a ring: the most
    recent spans, in completion order, with the dropped ones counted."""

    @staticmethod
    def _spans(tm, names):
        for name in names:
            with tm.span(name):
                pass

    def test_keeps_the_newest_in_order_and_counts_the_rest(self):
        tm = TelemetryCollector(run_id="ring", max_records=3)
        seen = []
        tm.add_sink(seen.append)
        for i in range(6):
            self._spans(tm, [f"s{i}"])
            kept = [f"s{j}" for j in range(max(0, i - 2), i + 1)]
            assert [r["name"] for r in tm.spans] == kept
            assert tm.dropped_records == max(0, i - 2)
        # The sinks still saw every record as it completed.
        assert [r["name"] for r in seen] == [f"s{i}" for i in range(6)]
        assert [r["seq"] for r in tm.records()[1:]] == [4, 5, 6]

    def test_save_writes_the_drop_count_in_the_meta_line(self, tmp_path):
        tm = TelemetryCollector(run_id="ring", directory=tmp_path,
                                max_records=2)
        self._spans(tm, ["a", "b", "c"])
        tm.count("decodes")
        lines = [json.loads(ln)
                 for ln in tm.save().read_text().splitlines()]
        assert lines[0]["kind"] == "meta"
        assert lines[0]["dropped_records"] == 1
        assert [r["name"] for r in lines[1:3]] == ["b", "c"]
        assert lines[3] == {"v": 1, "kind": "counter", "name": "decodes",
                            "value": 1}

    def test_unbounded_and_empty_rings(self):
        tm = TelemetryCollector(run_id="all")
        self._spans(tm, ["a", "b", "c"])
        assert len(tm.spans) == 3 and tm.dropped_records == 0
        assert "dropped_records" not in tm.records()[0]
        tm = TelemetryCollector(run_id="none", max_records=0)
        self._spans(tm, ["a", "b"])
        assert tm.spans == [] and tm.dropped_records == 2

    def test_negative_size_is_refused(self):
        with pytest.raises(ValueError, match="max_records"):
            TelemetryCollector(run_id="neg", max_records=-1)

    def test_serve_refuses_a_negative_ring(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main(["serve", "--telemetry-records", "-1"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --telemetry-records: must be non-negative, " \
            "got -1" in err


class TestJsonlRoundTrip:
    def test_save_and_load(self, tmp_path):
        tm = TelemetryCollector(run_id="run1", directory=tmp_path,
                                label="unit test")
        with tm.span("stage") as sp:
            sp.probe("snr_db", 12.5)
            sp.probe("bad", float("nan"))
        tm.count("decodes")
        path = tm.save()
        assert path == tmp_path / "run1.jsonl"

        # every line is valid JSON with a schema version
        lines = path.read_text().strip().splitlines()
        assert all(json.loads(ln)["v"] == 1 for ln in lines)

        run = load_run(path)
        assert run.run_id == "run1"
        assert run.meta["label"] == "unit test"
        assert run.counters == {"decodes": 1}
        (span,) = run.spans_named("stage")
        assert span["probes"]["snr_db"] == 12.5
        assert math.isnan(span["probes"]["bad"])  # sentinel decoded

    def test_context_manager_installs_and_saves(self, tmp_path):
        with TelemetryCollector(run_id="ctx", directory=tmp_path) as tm:
            assert get_collector() is tm
            with tm.span("s"):
                pass
        assert get_collector().enabled is False
        assert tm.path is not None and tm.path.exists()

    def test_resolve_run_path(self, tmp_path):
        for name in ("older", "newer"):
            TelemetryCollector(run_id=name, directory=tmp_path).save()
        # by id, by path, and latest-by-mtime
        by_id = resolve_run_path("older", tmp_path)
        assert by_id.name == "older.jsonl"
        direct = resolve_run_path(str(by_id))
        assert direct == by_id
        assert resolve_run_path(None, tmp_path).name == "newer.jsonl"
        with pytest.raises(FileNotFoundError):
            resolve_run_path("missing", tmp_path)


class TestInstrumentedPipeline:
    """The acceptance criterion: one decode emits all five stage spans
    with non-NaN probe values, and the trace renders from them."""

    def test_decode_emits_all_stage_spans(self, rng, tmp_path):
        tm = TelemetryCollector(run_id="decode", directory=tmp_path)
        out = _decode_once(rng, tm)
        assert out.ok

        names = {s["name"] for s in tm.spans}
        assert names.issuperset({*PIPELINE_STAGES, "reader.decode"})

        root = next(s for s in tm.spans if s["name"] == "reader.decode")
        for stage in PIPELINE_STAGES:
            span = next(s for s in tm.spans if s["name"] == stage)
            assert span["parent_seq"] == root["seq"], stage
            assert span["wall_s"] >= 0.0

    def test_key_probes_are_finite(self, rng, tmp_path):
        tm = TelemetryCollector(run_id="probes", directory=tmp_path)
        assert _decode_once(rng, tm).ok
        probes = {s["name"]: s["probes"] for s in tm.spans}
        finite = [
            ("cancellation", "residual_si_dbm"),
            ("cancellation", "total_depth_db"),
            ("sync", "offset_samples"),
            ("sync", "metric"),
            ("channel_est", "gain_db"),
            ("channel_est", "condition_number"),
            ("mrc", "mean_snr_db"),
            ("decode", "viterbi_agreement"),
            ("decode", "evm_rms"),
            ("reader.decode", "symbol_snr_db"),
            ("reader.decode", "required_snr_db"),
        ]
        for stage, probe in finite:
            value = decode_scalar(probes[stage][probe])
            assert math.isfinite(float(value)), f"{stage}.{probe}={value!r}"
        assert probes["reader.decode"]["ok"] == 1
        assert probes["decode"]["frame_ok"] == 1

    def test_trace_summary_renders(self, rng, tmp_path, capsys):
        with TelemetryCollector(run_id="render", directory=tmp_path) as tm:
            assert _decode_once(rng).ok
        report = summarize(load_run(tm.path))
        assert "per-stage timing" in report
        assert "reader.decode" in report
        assert "link diagnosis: DECODED" in report

        assert trace_main([str(tm.path)]) == 0
        assert "stage margins" in capsys.readouterr().out

    def test_trace_cli_subcommand(self, rng, tmp_path, capsys):
        from repro.cli import main as cli_main

        with TelemetryCollector(run_id="cli", directory=tmp_path):
            assert _decode_once(rng).ok
        assert cli_main(["trace", "cli", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry run cli" in out
        assert "link diagnosis: DECODED" in out

    def test_decode_identical_with_and_without_telemetry(self):
        base = _decode_once(np.random.default_rng(7))
        tm = TelemetryCollector(run_id="det")
        instrumented = _decode_once(np.random.default_rng(7), tm)
        assert instrumented.ok == base.ok
        assert np.array_equal(instrumented.reader.payload_bits,
                              base.reader.payload_bits)
        assert instrumented.reader.symbol_snr_db == \
            base.reader.symbol_snr_db


class TestEngineSpans:
    def test_job_record_as_dict(self):
        rec = JobRecord(name="fig8", seconds=1.25, cached=True, jobs=2,
                        key="abc")
        assert rec.as_dict() == {"name": "fig8", "seconds": 1.25,
                                 "cached": True, "jobs": 2, "key": "abc",
                                 "n_failed": 0, "n_cell_fallbacks": 0}

    def test_engine_run_emits_experiment_span(self, tmp_path):
        tm = TelemetryCollector(run_id="eng", directory=tmp_path)
        with use_collector(tm):
            with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng:
                assert eng.run("answer", lambda: 42) == 42
                assert eng.run("answer", lambda: 42) == 42  # cached
        spans = [s for s in tm.spans if s["name"] == "experiment.answer"]
        assert len(spans) == 2
        assert spans[0]["probes"]["cached"] == 0
        assert spans[1]["probes"]["cached"] == 1
        assert all(s["probes"]["jobs"] == 1 for s in spans)
