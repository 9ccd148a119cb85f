"""Tests for the parallel + cached experiment engine."""

import numpy as np
import pytest

from repro.experiments.engine import (
    ExperimentEngine,
    JobRecord,
    TrialFailure,
    cache_key,
    cell_map,
    code_fingerprint,
    get_engine,
    parallel_map,
    resolve_jobs,
    spawn_rngs,
    spawn_seeds,
    use_engine,
)
from repro.telemetry import TelemetryCollector, use_collector

_CALLS = {"n": 0}


def _square(x):
    """Module-level so it pickles into pool workers."""
    return x * x


def _maybe_boom(x):
    """Module-level crashy trial for the isolation tests."""
    if x == 2:
        raise ValueError("boom on 2")
    return x + 100


def _boomy_sweep():
    return parallel_map(_maybe_boom, range(4))


def _draw(seed_seq):
    """First uniform draw of a spawned trial generator."""
    return float(np.random.default_rng(seed_seq).uniform())


def _cell_tens(cell):
    """Vectorized cell primary: whole cell in one call."""
    return [x * 10 for x in cell]


def _cell_boom_on_2(cell):
    """Cell primary that dies when trial 2 is in the cell."""
    if 2 in cell:
        raise ValueError("cell boom")
    return [x * 10 for x in cell]


def _cell_trial_loop(cell):
    """Per-trial fallback: same answers, computed one trial at a time."""
    return [x * 10 for x in cell]


def _cell_sweep(boom):
    """An experiment whose sweep submits whole cells with a fallback."""
    return cell_map(_cell_boom_on_2 if boom else _cell_tens,
                    [[0, 1], [2, 3], [4, 5, 6]], fallback=_cell_trial_loop)


def _counted(n=3):
    _CALLS["n"] += 1
    return list(range(n))


class TestSeeding:
    def test_spawn_deterministic(self):
        a = [_draw(s) for s in spawn_seeds(123, 5)]
        b = [_draw(s) for s in spawn_seeds(123, 5)]
        assert a == b

    def test_spawn_prefix_stable(self):
        # Trial i's stream must not depend on how many trials run.
        few = [_draw(s) for s in spawn_seeds(9, 3)]
        many = [_draw(s) for s in spawn_seeds(9, 8)]
        assert many[:3] == few

    def test_children_independent(self):
        draws = [_draw(s) for s in spawn_seeds(7, 16)]
        assert len(set(draws)) == 16

    def test_spawn_rngs(self):
        r1, r2 = spawn_rngs(5, 2)
        assert r1.uniform() != r2.uniform()

    def test_accepts_seed_sequence_root(self):
        root = np.random.SeedSequence(11)
        a = [_draw(s) for s in spawn_seeds(root.spawn(1)[0], 2)]
        root2 = np.random.SeedSequence(11)
        b = [_draw(s) for s in spawn_seeds(root2.spawn(1)[0], 2)]
        assert a == b


class TestCacheKey:
    def test_stable(self):
        assert cache_key("e", {"a": 1}) == cache_key("e", {"a": 1})

    def test_sensitive_to_name_and_params(self):
        base = cache_key("e", {"a": 1})
        assert cache_key("f", {"a": 1}) != base
        assert cache_key("e", {"a": 2}) != base
        assert cache_key("e", {"b": 1}) != base

    def test_param_order_irrelevant(self):
        assert cache_key("e", {"a": 1, "b": 2}) == \
            cache_key("e", {"b": 2, "a": 1})

    def test_numpy_params_canonicalised(self):
        assert cache_key("e", {"a": np.int64(3)}) == \
            cache_key("e", {"a": 3})
        assert cache_key("e", {"a": np.arange(3)}) == \
            cache_key("e", {"a": np.arange(3)})

    def test_fingerprint_in_key(self):
        assert len(code_fingerprint()) == 16

    def test_unserializable_param_rejected(self):
        with pytest.raises(TypeError, match="cache_key"):
            cache_key("e", {"a": object()})
        with pytest.raises(TypeError, match="cache_key"):
            cache_key("e", {"a": lambda: None})

    def test_scenario_param_keyed_by_hash(self):
        from repro.scenario import ScenarioConfig

        base = ScenarioConfig()
        assert cache_key("e", {"scenario": base}) == \
            cache_key("e", {"scenario": ScenarioConfig()})
        far = base.replace(distance_m=5.0)
        assert cache_key("e", {"scenario": far}) != \
            cache_key("e", {"scenario": base})
        # The name does not participate (it is not physics).
        named = base.replace(name="x")
        assert cache_key("e", {"scenario": named}) == \
            cache_key("e", {"scenario": base})


class TestParallelMap:
    def test_serial_matches_parallel(self):
        items = list(range(12))
        assert parallel_map(_square, items, jobs=1) == \
            parallel_map(_square, items, jobs=2)

    def test_order_preserved(self):
        with ExperimentEngine(jobs=2, cache=False) as eng:
            assert eng.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_uses_current_engine(self):
        with ExperimentEngine(jobs=2, cache=False) as eng, \
                use_engine(eng):
            assert resolve_jobs(None) == 2
            assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]
        assert resolve_jobs(None) == get_engine().jobs

    def test_resolve_explicit(self):
        assert resolve_jobs(4) == 4
        assert resolve_jobs(0) >= 1


class TestEngineRun:
    def test_cache_roundtrip(self, tmp_path):
        _CALLS["n"] = 0
        with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng:
            first = eng.run("counted", _counted, {"n": 4})
            second = eng.run("counted", _counted, {"n": 4})
        assert first == second == [0, 1, 2, 3]
        assert _CALLS["n"] == 1
        assert [r.cached for r in eng.records] == [False, True]
        assert len(list((tmp_path / "counted").glob("*.pkl"))) == 1

    def test_param_change_recomputes(self, tmp_path):
        _CALLS["n"] = 0
        with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng:
            eng.run("counted", _counted, {"n": 4})
            eng.run("counted", _counted, {"n": 5})
        assert _CALLS["n"] == 2

    def test_cache_disabled_writes_nothing(self, tmp_path):
        _CALLS["n"] = 0
        with ExperimentEngine(jobs=1, cache=False,
                              cache_dir=tmp_path) as eng:
            eng.run("counted", _counted)
            eng.run("counted", _counted)
        assert _CALLS["n"] == 2
        assert not (tmp_path / "counted").exists()

    def test_cache_shared_between_engines(self, tmp_path):
        _CALLS["n"] = 0
        with ExperimentEngine(cache_dir=tmp_path) as eng:
            eng.run("counted", _counted, {"n": 2})
        with ExperimentEngine(cache_dir=tmp_path) as eng2:
            eng2.run("counted", _counted, {"n": 2})
        assert _CALLS["n"] == 1
        assert eng2.records[0].cached

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        _CALLS["n"] = 0
        with ExperimentEngine(cache_dir=tmp_path) as eng:
            eng.run("counted", _counted, {"n": 2})
            pkl, = (tmp_path / "counted").glob("*.pkl")
            pkl.write_bytes(pkl.read_bytes()[:10])  # truncate
            again = eng.run("counted", _counted, {"n": 2})
        assert again == [0, 1]
        assert _CALLS["n"] == 2  # recomputed, not crashed
        assert not eng.records[1].cached

    def test_records_and_report(self, tmp_path):
        with ExperimentEngine(cache_dir=tmp_path) as eng:
            eng.run("counted", _counted)
        rec = eng.records[0]
        assert rec.name == "counted" and rec.seconds >= 0
        assert "counted" in rec.describe()
        assert "counted" in eng.report()
        assert eng.total_seconds() >= 0

    def test_jobs_zero_means_all_cpus(self):
        eng = ExperimentEngine(jobs=0, cache=False)
        assert eng.jobs >= 1

    def test_describe_wording(self):
        assert "(cache)" in JobRecord("x", 0.1, True, 4).describe()
        assert "4 workers" in JobRecord("x", 0.1, False, 4).describe()
        assert "1 worker)" in JobRecord("x", 0.1, False, 1).describe()


class TestCrashIsolation:
    """A raising trial must not take the sweep down with it."""

    def test_serial_failure_recorded_sweep_continues(self):
        with ExperimentEngine(jobs=1, cache=False) as eng, \
                use_engine(eng):
            out = parallel_map(_maybe_boom, range(5))
        assert out == [100, 101, None, 103, 104]
        assert len(eng.trial_failures) == 1
        failure = eng.trial_failures[0]
        assert isinstance(failure, TrialFailure)
        assert failure.index == 2
        assert "ValueError" in failure.error
        assert "boom on 2" in failure.traceback

    def test_pool_failure_recorded_sweep_continues(self):
        with ExperimentEngine(jobs=2, cache=False) as eng, \
                use_engine(eng):
            out = parallel_map(_maybe_boom, range(5))
        assert out == [100, 101, None, 103, 104]
        assert [f.index for f in eng.trial_failures] == [2]
        assert "boom on 2" in eng.trial_failures[0].traceback

    def test_job_record_carries_failures(self, tmp_path):
        with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng, \
                use_engine(eng):
            out = eng.run("boomy", _boomy_sweep)
        assert out == [100, 101, None, 103]
        rec = eng.records[-1]
        assert rec.n_failed == 1
        assert "boom on 2" in rec.tracebacks[0]
        assert "FAILED" in rec.describe()
        assert rec.as_dict()["n_failed"] == 1

    def test_on_error_raise_restores_fail_fast(self):
        with ExperimentEngine(jobs=1, cache=False) as eng, \
                use_engine(eng):
            with pytest.raises(RuntimeError, match="boom on 2"):
                parallel_map(_maybe_boom, range(5), on_error="raise")

    def test_on_error_validated(self):
        with pytest.raises(ValueError, match="on_error"):
            parallel_map(_square, [1, 2], on_error="nope")


class TestCellMap:
    """Whole-cell submission with per-trial fallback semantics."""

    CELLS = [[0, 1], [2, 3], [4, 5, 6]]
    EXPECT = [[0, 10], [20, 30], [40, 50, 60]]

    def test_serial_matches_parallel(self):
        with ExperimentEngine(jobs=1, cache=False) as eng, \
                use_engine(eng):
            serial = cell_map(_cell_tens, self.CELLS)
        with ExperimentEngine(jobs=2, cache=False) as eng, \
                use_engine(eng):
            pooled = cell_map(_cell_tens, self.CELLS)
        assert serial == pooled == self.EXPECT

    def test_empty_cells(self):
        assert cell_map(_cell_tens, []) == []

    def test_failed_cell_reruns_via_fallback(self):
        collector = TelemetryCollector()
        with ExperimentEngine(jobs=1, cache=False) as eng, \
                use_engine(eng), use_collector(collector):
            clean = cell_map(_cell_tens, self.CELLS,
                             fallback=_cell_trial_loop)
            assert "engine.cell_fallback" not in collector.counters
            out = cell_map(_cell_boom_on_2, self.CELLS,
                           fallback=_cell_trial_loop)
        # The crashed cell was recovered trial-by-trial; nothing lost,
        # and the re-run is counted.
        assert clean == out == self.EXPECT
        assert eng.trial_failures == []
        assert collector.counters.get("engine.cell_fallback") == 1

    def test_job_record_counts_cell_fallbacks(self, tmp_path):
        collector = TelemetryCollector()
        with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng, \
                use_engine(eng), use_collector(collector):
            clean = eng.run("cells_clean", _cell_sweep, {"boom": False})
            rerun = eng.run("cells_boom", _cell_sweep, {"boom": True})
            cached = eng.run("cells_boom", _cell_sweep, {"boom": True})
        assert clean == rerun == cached == self.EXPECT
        first, second, third = eng.records
        assert first.n_cell_fallbacks == 0
        assert "re-run" not in first.describe()
        # The crashed cell is counted on the record that ran it, not on
        # a later cache hit, and no trial failed.
        assert second.n_cell_fallbacks == 1 and second.n_failed == 0
        assert "1 cell(s) re-run per trial" in second.describe()
        assert "FAILED" not in second.describe()
        assert second.as_dict()["n_cell_fallbacks"] == 1
        assert third.cached and third.n_cell_fallbacks == 0
        assert eng.cell_fallbacks == 1
        spans = [s for s in collector.spans
                 if s["name"] == "experiment.cells_boom"]
        assert [s["probes"]["n_cell_fallbacks"] for s in spans] == [1, 0]

    def test_failed_cell_without_fallback_records_failure(self):
        with ExperimentEngine(jobs=1, cache=False) as eng, \
                use_engine(eng):
            out = cell_map(_cell_boom_on_2, self.CELLS)
        assert out == [[0, 10], None, [40, 50, 60]]
        assert [f.index for f in eng.trial_failures] == [1]
        assert "cell boom" in eng.trial_failures[0].traceback

    def test_failing_fallback_records_failure(self):
        with ExperimentEngine(jobs=1, cache=False) as eng, \
                use_engine(eng):
            out = cell_map(_cell_boom_on_2, self.CELLS,
                           fallback=_cell_boom_on_2)
        assert out == [[0, 10], None, [40, 50, 60]]
        assert [f.index for f in eng.trial_failures] == [1]


class TestExperimentDeterminism:
    """Tables must be byte-identical at any worker count."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mobility_identical(self, jobs, tmp_path):
        from repro.experiments import mobility

        res = mobility.run(speeds_m_s=(0.0, 8.0), trials=2, seed=71,
                           jobs=jobs)
        path = tmp_path / f"j{jobs}.txt"
        path.write_text(str(res.table))
        # Compare against the serial run recomputed fresh.
        serial = mobility.run(speeds_m_s=(0.0, 8.0), trials=2, seed=71,
                              jobs=1)
        assert str(res.table) == str(serial.table)
