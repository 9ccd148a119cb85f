"""Parallel, cached experiment engine.

Every paper experiment is a Monte-Carlo sweep over independent trials --
the embarrassingly-parallel shape.  This module provides the shared
substrate all `repro.experiments` modules run on:

* **Deterministic fan-out** -- trial randomness comes from child
  :class:`numpy.random.SeedSequence` objects spawned from one root seed
  (:func:`spawn_seeds` / :func:`spawn_rngs`).  A trial's generator
  depends only on its index, never on worker count or scheduling, so a
  sweep is bit-identical at ``--jobs 1`` and ``--jobs 32``.
* **Process-pool mapping** -- :func:`parallel_map` fans picklable,
  module-level task functions out over a ``ProcessPoolExecutor`` and
  gathers results in submission order.
* **On-disk result cache** -- :meth:`ExperimentEngine.run` memoises a
  whole experiment under ``.repro_cache/`` keyed by the experiment name,
  its parameters and a fingerprint of the package source, so re-runs and
  ``--plot``-only passes are free and any code change invalidates stale
  entries.
* **Structured timing** -- each :meth:`ExperimentEngine.run` call is
  recorded as a :class:`JobRecord` (name, wall seconds, cache hit,
  worker count) instead of ad-hoc ``time.time()`` prints.

Experiments resolve their worker count through the *current engine*
(:func:`get_engine` / :func:`use_engine`), so ``run_all --jobs N``
parallelises every sweep without touching their signatures, while a
``jobs=`` argument on any ``run()`` still overrides it for direct calls.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import time
import traceback as _traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "ExperimentEngine",
    "JobRecord",
    "TrialFailure",
    "cache_key",
    "cell_map",
    "code_fingerprint",
    "get_engine",
    "parallel_map",
    "resolve_jobs",
    "spawn_rngs",
    "spawn_seeds",
    "use_engine",
]

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro_cache"

_CACHE_FORMAT = 1
"""Bump to invalidate every cached result on disk."""


# -- deterministic fan-out -------------------------------------------------

def spawn_seeds(seed: int | np.random.SeedSequence,
                n: int) -> list[np.random.SeedSequence]:
    """``n`` independent child seed sequences of one root seed.

    Children are a pure function of ``(seed, index)``: worker count,
    scheduling and gather order cannot change the stream any trial sees.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    return root.spawn(n)


def spawn_rngs(seed: int | np.random.SeedSequence,
               n: int) -> list[np.random.Generator]:
    """``n`` independent generators spawned from one root seed."""
    return [np.random.default_rng(s) for s in spawn_seeds(seed, n)]


# -- cache keying ----------------------------------------------------------

_fingerprint: str | None = None


def code_fingerprint() -> str:
    """Hash of every ``repro`` source file (the cache's code version).

    Any edit anywhere in the package -- channel models, decoder,
    experiment logic -- changes the fingerprint and orphans stale cache
    entries rather than serving results the current code cannot produce.
    """
    global _fingerprint
    if _fingerprint is None:
        pkg_root = Path(__file__).resolve().parents[1]
        h = hashlib.sha256()
        h.update(f"fmt{_CACHE_FORMAT}|numpy{np.__version__}".encode())
        for path in sorted(pkg_root.rglob("*.py")):
            h.update(str(path.relative_to(pkg_root)).encode())
            h.update(path.read_bytes())
        _fingerprint = h.hexdigest()[:16]
    return _fingerprint


def _canonical(value: Any) -> Any:
    """Parameters reduced to a stable, JSON-serializable form.

    Anything that cannot be canonicalised raises ``TypeError``: a
    ``str()``/``repr()`` fallback would let two distinct configs whose
    reprs collide (or objects with address-based reprs) silently alias
    each other's cache entries.
    """
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    if isinstance(value, np.ndarray):
        return ["__ndarray__", list(value.shape), str(value.dtype),
                value.tobytes().hex()]
    scenario_hash = getattr(value, "scenario_hash", None)
    if callable(scenario_hash):
        # A ScenarioConfig (or compatible): key on its canonical hash,
        # which already excludes labels and is stable across spellings.
        return ["__scenario__", scenario_hash()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return ["__dataclass__", type(value).__name__,
                _canonical(dataclasses.asdict(value))]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cache_key cannot canonicalise parameter of type "
        f"{type(value).__name__} ({value!r}); pass JSON-compatible "
        "values, numpy scalars/arrays, dataclasses, or a ScenarioConfig"
    )


def cache_key(name: str, params: dict[str, Any] | None = None) -> str:
    """Digest of (experiment name, parameters, code version)."""
    blob = json.dumps(
        [name, _canonical(params or {}), code_fingerprint()],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


# -- the engine ------------------------------------------------------------

@dataclass(frozen=True)
class TrialFailure:
    """One crashed trial inside a sweep (isolated, not fatal)."""

    index: int
    error: str
    traceback: str

    def __str__(self) -> str:
        return f"trial {self.index}: {self.error}"


@dataclass(frozen=True)
class JobRecord:
    """One timed experiment run (replaces the ad-hoc timing prints)."""

    name: str
    seconds: float
    cached: bool
    jobs: int
    key: str = ""
    n_failed: int = 0
    """Trials that raised during this run (isolated by
    :func:`parallel_map`; their slots carry ``None`` in the results)."""
    tracebacks: tuple[str, ...] = ()
    n_cell_fallbacks: int = 0
    """Sweep cells whose batched evaluation raised during this run and
    were re-run trial by trial (:func:`cell_map`'s fallback)."""

    def describe(self) -> str:
        """One log line for progress output."""
        src = "cache" if self.cached else f"{self.jobs} worker" + \
            ("s" if self.jobs != 1 else "")
        failed = f", {self.n_failed} trial(s) FAILED" if self.n_failed \
            else ""
        if self.n_cell_fallbacks:
            failed += (f", {self.n_cell_fallbacks} cell(s) re-run "
                       f"per trial")
        return f"[{self.name}: {self.seconds:.2f} s ({src}){failed}]"

    def as_dict(self) -> dict[str, Any]:
        """The record as plain data (telemetry probes, JSON export)."""
        return {"name": self.name, "seconds": self.seconds,
                "cached": self.cached, "jobs": self.jobs,
                "key": self.key, "n_failed": self.n_failed,
                "n_cell_fallbacks": self.n_cell_fallbacks}


class ExperimentEngine:
    """Runs experiments with a worker pool and an on-disk result cache.

    Parameters
    ----------
    jobs:
        Worker processes for :meth:`map`.  ``jobs <= 0`` means "all
        CPUs"; ``1`` runs inline (no pool, no pickling requirements).
    cache:
        Enable the on-disk result cache for :meth:`run`.
    cache_dir:
        Cache location; defaults to ``$REPRO_CACHE_DIR`` or
        ``.repro_cache/`` under the current directory.
    """

    def __init__(self, *, jobs: int = 1, cache: bool = True,
                 cache_dir: str | os.PathLike | None = None):
        if jobs <= 0:
            jobs = os.cpu_count() or 1
        self.jobs = int(jobs)
        self.cache_enabled = bool(cache)
        self.cache_dir = Path(
            cache_dir or os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        )
        self.records: list[JobRecord] = []
        self.trial_failures: list[TrialFailure] = []
        self.cell_fallbacks = 0
        """Cells :func:`cell_map` re-ran through their fallback."""
        self._pool: ProcessPoolExecutor | None = None

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- parallel mapping --------------------------------------------------

    def map(self, fn: Callable[[Any], Any],
            items: Iterable[Any]) -> list[Any]:
        """``[fn(x) for x in items]``, fanned out over the worker pool.

        ``fn`` and every item must be picklable (a module-level function
        of one argument) when ``jobs > 1``.  Results always come back in
        item order, independent of completion order.
        """
        items = list(items)
        if self.jobs <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return list(self._pool.map(fn, items))

    def record_trial_failures(self,
                              failures: Iterable[TrialFailure]) -> None:
        """Log crashed trials (called by :func:`parallel_map`)."""
        self.trial_failures.extend(failures)

    # -- cached experiment calls -------------------------------------------

    def _cache_path(self, name: str, key: str) -> Path:
        return self.cache_dir / name / f"{key}.pkl"

    def run(self, name: str, fn: Callable[..., Any],
            params: dict[str, Any] | None = None) -> Any:
        """Run (or load) one experiment and record its timing.

        ``fn(**params)`` is invoked in-process; its sweeps parallelise
        through :func:`parallel_map`.  The pickled result lands in the
        cache so the next identical call -- same name, same parameters,
        same package source -- returns it without recomputing.

        Each call also opens an ``experiment.<name>`` telemetry span
        carrying the :class:`JobRecord` fields, so a collector installed
        around a sweep sees per-experiment timing next to the per-decode
        pipeline spans.
        """
        from ..telemetry import get_collector

        params = params or {}
        key = cache_key(name, params)
        path = self._cache_path(name, key)
        with get_collector().span(f"experiment.{name}") as sp:
            record = None
            t0 = time.perf_counter()
            if self.cache_enabled and path.exists():
                try:
                    with open(path, "rb") as f:
                        result = pickle.load(f)
                except Exception:
                    # A truncated or stale-format entry is a miss, not
                    # a crash: drop it and recompute.
                    path.unlink(missing_ok=True)
                else:
                    record = JobRecord(
                        name=name, seconds=time.perf_counter() - t0,
                        cached=True, jobs=self.jobs, key=key,
                    )
            if record is None:
                n_failures_before = len(self.trial_failures)
                n_fallbacks_before = self.cell_fallbacks
                result = fn(**params)
                new_failures = self.trial_failures[n_failures_before:]
                if self.cache_enabled:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    tmp = path.with_suffix(f".tmp{os.getpid()}")
                    with open(tmp, "wb") as f:
                        pickle.dump(result, f,
                                    protocol=pickle.HIGHEST_PROTOCOL)
                    os.replace(tmp, path)
                record = JobRecord(
                    name=name, seconds=time.perf_counter() - t0,
                    cached=False, jobs=self.jobs, key=key,
                    n_failed=len(new_failures),
                    tracebacks=tuple(f.traceback for f in new_failures),
                    n_cell_fallbacks=self.cell_fallbacks
                    - n_fallbacks_before,
                )
            self.records.append(record)
            for field_name, value in record.as_dict().items():
                if field_name != "name":
                    sp.probe(field_name, value)
        return result

    # -- reporting ---------------------------------------------------------

    def total_seconds(self) -> float:
        """Wall time summed over recorded jobs."""
        return sum(r.seconds for r in self.records)

    def report(self) -> str:
        """Aligned per-job timing table (for stderr, not the tables)."""
        from .common import ExperimentTable

        table = ExperimentTable(
            title="engine job records",
            columns=["experiment", "seconds", "source", "workers"],
        )
        for r in self.records:
            table.add_row(r.name, f"{r.seconds:.2f}",
                          "cache" if r.cached else "run", r.jobs)
        table.add_row("total", f"{self.total_seconds():.2f}", "", "")
        return table.format()


# -- current-engine plumbing ----------------------------------------------

_current: ExperimentEngine | None = None


def get_engine() -> ExperimentEngine:
    """The engine experiments resolve to (serial, uncached by default)."""
    global _current
    if _current is None:
        _current = ExperimentEngine(jobs=1, cache=False)
    return _current


@contextmanager
def use_engine(engine: ExperimentEngine) -> Iterator[ExperimentEngine]:
    """Install ``engine`` as the current engine for the ``with`` body."""
    global _current
    previous = _current
    _current = engine
    try:
        yield engine
    finally:
        _current = previous


def resolve_jobs(jobs: int | None) -> int:
    """An explicit ``jobs=`` argument, else the current engine's."""
    if jobs is None:
        return get_engine().jobs
    if jobs <= 0:
        return os.cpu_count() or 1
    return int(jobs)


def _guarded_call(task: tuple[Callable[[Any], Any], int, Any]
                  ) -> tuple[int, Any, TrialFailure | None]:
    """Run one trial, converting an exception into a TrialFailure.

    Module-level so it pickles into worker processes; the wrapped
    exception crosses the process boundary as plain strings (exception
    objects themselves may not pickle).
    """
    fn, index, item = task
    try:
        return index, fn(item), None
    except Exception as exc:  # crash isolation: any trial error
        return index, None, TrialFailure(
            index=index,
            error=f"{type(exc).__name__}: {exc}",
            traceback=_traceback.format_exc(),
        )


def parallel_map(fn: Callable[[Any], Any], items: Sequence[Any], *,
                 jobs: int | None = None,
                 on_error: str = "record") -> list[Any]:
    """Map a picklable task over items with the resolved worker count.

    The workhorse every experiment sweep calls.  With ``jobs=None`` the
    current engine's pool is reused; an explicit ``jobs`` spins up a
    dedicated pool for just this map.

    A raising trial does not abort the sweep: with the default
    ``on_error="record"`` its slot comes back as ``None``, the failure
    (with traceback) lands on the current engine's ``trial_failures``
    list, and every other trial completes.  ``on_error="raise"``
    restores fail-fast semantics.
    """
    if on_error not in ("record", "raise"):
        raise ValueError(f"on_error must be 'record' or 'raise', "
                         f"got {on_error!r}")
    items = list(items)
    n = resolve_jobs(jobs)
    tasks = [(fn, i, item) for i, item in enumerate(items)]
    engine = get_engine()
    if n <= 1 or len(items) <= 1:
        outs = [_guarded_call(t) for t in tasks]
    elif jobs is None or n == engine.jobs:
        outs = engine.map(_guarded_call, tasks)
    else:
        with ProcessPoolExecutor(max_workers=min(n, len(items))) as pool:
            outs = list(pool.map(_guarded_call, tasks))
    results: list[Any] = [None] * len(items)
    failures: list[TrialFailure] = []
    for index, value, failure in outs:
        if failure is None:
            results[index] = value
        else:
            failures.append(failure)
    if failures:
        if on_error == "raise":
            raise RuntimeError(
                f"{len(failures)} trial(s) failed; first: "
                f"{failures[0]}\n{failures[0].traceback}"
            )
        engine.record_trial_failures(failures)
    return results


def cell_map(fn, cells: Sequence[Any], *,
             jobs: int | None = None,
             fallback: Callable[[Any], Any] | None = None) -> list[Any]:
    """Map whole sweep *cells* -- one engine task per cell.

    The batched counterpart of :func:`parallel_map`: instead of one
    task per trial, each item is a whole sweep cell (a group of trials
    sharing an excitation) that ``fn`` evaluates in one vectorized
    call.  Pool selection is :func:`parallel_map`'s -- the current
    engine's pool when ``jobs`` is unset or matches, a dedicated pool
    otherwise, inline for a single cell or a single worker.

    ``fallback`` restores per-trial crash isolation: a cell whose
    batched evaluation raises is re-run inline through
    ``fallback(cell)``, which is expected to loop the cell's trials
    individually and substitute per-trial failure sentinels.  Each
    re-run counts ``engine.cell_fallback`` on the telemetry collector
    and on the current engine (the owning :class:`JobRecord` reports
    ``n_cell_fallbacks``), so a broken batched path shows up as a
    count, not only as a slower run.  A fallback that itself raises records a
    :class:`TrialFailure` and yields ``None`` for that cell, exactly
    like :func:`parallel_map`.
    """
    from ..telemetry import get_collector

    cells = list(cells)
    engine = get_engine()
    n = resolve_jobs(jobs)
    tasks = [(fn, i, cell) for i, cell in enumerate(cells)]
    if n <= 1 or len(cells) <= 1:
        outs = [_guarded_call(t) for t in tasks]
    elif jobs is None or n == engine.jobs:
        outs = engine.map(_guarded_call, tasks)
    else:
        with ProcessPoolExecutor(max_workers=min(n, len(cells))) as pool:
            outs = list(pool.map(_guarded_call, tasks))
    if fallback is not None:
        for k, (index, _, failure) in enumerate(outs):
            if failure is not None:
                get_collector().count("engine.cell_fallback")
                engine.cell_fallbacks += 1
                outs[k] = _guarded_call((fallback, index, cells[index]))
    results: list[Any] = [None] * len(cells)
    failures: list[TrialFailure] = []
    for index, value, failure in outs:
        if failure is None:
            results[index] = value
        else:
            failures.append(failure)
    if failures:
        engine.record_trial_failures(failures)
    return results
