"""The span/probe collector behind :mod:`repro.telemetry`.

Design constraints, in order:

1. **Zero cost when disabled.**  The default collector is a process-wide
   :class:`NullCollector` singleton whose ``span()`` hands back one shared
   no-op context manager; an instrumented hot path pays a couple of
   attribute lookups and nothing else.  Instrumentation sites that need
   extra computation for a probe (e.g. the channel-estimate condition
   number) must guard it with ``get_collector().enabled``.
2. **No behavioural coupling.**  Telemetry never touches the RNG stream,
   never changes a return value, and never raises into the pipeline --
   a decode with telemetry on is bit-identical to one with it off.
3. **Flat, greppable output.**  One JSONL line per span (plus one meta
   line and one line per counter) under ``.repro_cache/telemetry/``; see
   ``docs/TELEMETRY.md`` for the schema.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

__all__ = [
    "RECORD_VERSION",
    "TELEMETRY_DIR_ENV",
    "NullCollector",
    "Span",
    "TelemetryCollector",
    "count",
    "default_telemetry_dir",
    "get_collector",
    "probe",
    "probe_rows",
    "set_collector",
    "span",
    "use_collector",
]

RECORD_VERSION = 1
"""Schema version stamped on every JSONL record (``"v"`` key)."""

TELEMETRY_DIR_ENV = "REPRO_TELEMETRY_DIR"
"""Environment override for where run files land."""


def default_telemetry_dir() -> Path:
    """``$REPRO_TELEMETRY_DIR``, else ``<cache dir>/telemetry``."""
    explicit = os.environ.get(TELEMETRY_DIR_ENV)
    if explicit:
        return Path(explicit)
    from ..experiments.engine import CACHE_DIR_ENV, DEFAULT_CACHE_DIR

    cache = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
    return Path(cache) / "telemetry"


def _scalar(value: Any) -> Any:
    """Coerce a probe value to something JSON can hold losslessly."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, str)):
        return value
    try:
        f = float(value)
    except (TypeError, ValueError):
        return repr(value)
    if math.isnan(f):
        return "nan"
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    return f


def decode_scalar(value: Any) -> Any:
    """Inverse of :func:`_scalar` for the float sentinels."""
    if value == "nan":
        return float("nan")
    if value == "inf":
        return float("inf")
    if value == "-inf":
        return float("-inf")
    return value


class Span:
    """One timed pipeline stage with attached signal-quality probes.

    Use as a context manager (the normal path, via
    :meth:`TelemetryCollector.span`); the record is appended to the
    collector when the ``with`` block exits.
    """

    __slots__ = ("name", "seq", "parent_seq", "start_s", "wall_s",
                 "probes", "_collector", "_t0")

    def __init__(self, collector: "TelemetryCollector", name: str,
                 seq: int, parent_seq: int | None):
        self.name = name
        self.seq = seq
        self.parent_seq = parent_seq
        self.start_s = float("nan")
        self.wall_s = float("nan")
        self.probes: dict[str, Any] = {}
        self._collector = collector
        self._t0 = 0.0

    def probe(self, name: str, value: Any) -> None:
        """Attach one named measurement to this span."""
        self.probes[name] = _scalar(value)

    def __enter__(self) -> "Span":
        c = self._collector
        c._stack.append(self)
        self._t0 = time.perf_counter()
        self.start_s = self._t0 - c._epoch
        return self

    def __exit__(self, *exc: Any) -> None:
        self.wall_s = time.perf_counter() - self._t0
        c = self._collector
        if c._stack and c._stack[-1] is self:
            c._stack.pop()
        c._append({
            "v": RECORD_VERSION,
            "kind": "span",
            "seq": self.seq,
            "name": self.name,
            "parent_seq": self.parent_seq,
            "start_s": round(self.start_s, 6),
            "wall_s": round(self.wall_s, 6),
            "probes": self.probes,
        })


class _NullSpan:
    """Shared do-nothing span; the disabled path's entire cost."""

    __slots__ = ()

    def probe(self, name: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullCollector:
    """The default collector: accepts everything, records nothing."""

    enabled = False

    def span(self, name: str) -> _NullSpan:
        """A no-op span (one shared instance, no allocation)."""
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        """No-op counter increment."""

    def probe(self, name: str, value: Any) -> None:
        """No-op free-standing probe."""

    def save(self, path: str | os.PathLike | None = None) -> None:
        """Nothing to save."""
        return None

    def set_scenario(self, scenario: Any) -> None:
        """No-op scenario stamp."""

    def add_sink(self, sink: Callable[[dict], None]) -> Callable[[dict], None]:
        """No-op sink registration (nothing will ever be emitted)."""
        return sink

    def remove_sink(self, sink: Callable[[dict], None]) -> None:
        """No-op sink removal."""


class TelemetryCollector:
    """Buffers spans/counters for one run and writes them as JSONL.

    Parameters
    ----------
    run_id:
        Name of the run (the JSONL filename stem).  Defaults to a
        wall-clock timestamp plus the PID, unique enough for a local
        tree of runs.
    directory:
        Where :meth:`save` writes; defaults to
        ``$REPRO_TELEMETRY_DIR`` or ``<cache dir>/telemetry/``.
    label:
        Free-form description stored in the meta record.
    max_records:
        Keep only the most recent N span records in memory (the
        long-running streaming service would otherwise grow without
        bound).  ``None`` (the default) keeps everything.  Dropped spans
        are counted in :attr:`dropped_records`; sinks still see every
        record as it completes.

    Use directly, or as a context manager that installs itself as the
    current collector and saves on exit::

        with TelemetryCollector(run_id="link-1m") as tm:
            reader.decode(...)
        print(tm.path)        # .repro_cache/telemetry/link-1m.jsonl

    The collector is thread-compatible: record/counter appends and seq
    allocation are lock-protected, and the open-span stack is
    thread-local, so parentage stays correct when decodes run on worker
    threads (the streaming multiplexer's executor).  Registered *sinks*
    (:meth:`add_sink`) receive each completed span record as a dict --
    the live push feed of the streaming API; a raising sink is dropped
    rather than allowed to break the pipeline.
    """

    enabled = True

    def __init__(self, run_id: str | None = None, *,
                 directory: str | os.PathLike | None = None,
                 label: str = "",
                 max_records: int | None = None):
        if run_id is None:
            run_id = time.strftime("%Y%m%d-%H%M%S") + f"-{os.getpid()}"
        self.run_id = str(run_id)
        self.directory = Path(directory) if directory is not None \
            else default_telemetry_dir()
        self.label = label
        self.max_records = max_records
        self.created_unix = time.time()
        self.scenario: dict[str, Any] | None = None
        self.scenario_hash: str | None = None
        self.path: Path | None = None
        self.dropped_records = 0
        self._records: list[dict[str, Any]] = []
        self._counters: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._sinks: list[Callable[[dict], None]] = []
        self._seq = 0
        self._epoch = time.perf_counter()
        self._restore: Any = None

    @property
    def _stack(self) -> list[Span]:
        """The calling thread's open-span stack."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording ---------------------------------------------------------

    def span(self, name: str) -> Span:
        """Open a new span; nest by entering it as a context manager."""
        with self._lock:
            self._seq += 1
            seq = self._seq
        stack = self._stack
        parent = stack[-1].seq if stack else None
        return Span(self, name, seq, parent)

    def count(self, name: str, n: int = 1) -> None:
        """Bump a run-wide counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def _append(self, record: dict[str, Any]) -> None:
        """Store one completed record and fan it out to the sinks."""
        with self._lock:
            self._records.append(record)
            if self.max_records is not None \
                    and len(self._records) > self.max_records:
                drop = len(self._records) - self.max_records
                del self._records[:drop]
                self.dropped_records += drop
            sinks = tuple(self._sinks)
        for sink in sinks:
            try:
                sink(record)
            except Exception:
                self.remove_sink(sink)

    # -- push sinks --------------------------------------------------------

    def add_sink(self, sink: Callable[[dict], None]) -> Callable[[dict], None]:
        """Register a callable to receive each completed span record.

        Returns ``sink`` (handy for later :meth:`remove_sink`).  Sinks
        run on whatever thread completes the span, so they must be cheap
        and thread-safe -- the streaming server's sinks just enqueue onto
        an asyncio loop via ``call_soon_threadsafe``.
        """
        with self._lock:
            if sink not in self._sinks:
                self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Callable[[dict], None]) -> None:
        """Unregister a sink added with :meth:`add_sink` (idempotent)."""
        with self._lock:
            try:
                self._sinks.remove(sink)
            except ValueError:
                pass

    def probe(self, name: str, value: Any) -> None:
        """Attach a probe to the innermost open span (or drop it)."""
        if self._stack:
            self._stack[-1].probe(name, value)

    def set_scenario(self, scenario: Any) -> None:
        """Stamp the run with the scenario it realises.

        The scenario's hash and full serialized dict land in the meta
        record, so a saved JSONL alone is enough to rebuild the exact
        operating point (``ScenarioConfig.from_dict``).  Accepts a
        :class:`repro.scenario.ScenarioConfig` or any object with
        compatible ``to_dict``/``scenario_hash`` methods (or a plain
        dict, stored as-is without a hash).
        """
        to_dict = getattr(scenario, "to_dict", None)
        self.scenario = to_dict() if callable(to_dict) else dict(scenario)
        hash_fn = getattr(scenario, "scenario_hash", None)
        self.scenario_hash = hash_fn() if callable(hash_fn) else None

    # -- introspection -----------------------------------------------------

    @property
    def spans(self) -> list[dict[str, Any]]:
        """Completed span records, in completion order."""
        with self._lock:
            return [r for r in self._records if r["kind"] == "span"]

    @property
    def counters(self) -> dict[str, int]:
        """Current counter values."""
        with self._lock:
            return dict(self._counters)

    # -- output ------------------------------------------------------------

    def records(self) -> list[dict[str, Any]]:
        """Everything :meth:`save` would write, as dicts."""
        meta = {
            "v": RECORD_VERSION,
            "kind": "meta",
            "run_id": self.run_id,
            "label": self.label,
            "created_unix": self.created_unix,
        }
        if self.scenario is not None:
            meta["scenario_hash"] = self.scenario_hash
            meta["scenario"] = self.scenario
        with self._lock:
            records = list(self._records)
            counter_items = sorted(self._counters.items())
            if self.dropped_records:
                meta["dropped_records"] = self.dropped_records
        counters = [
            {"v": RECORD_VERSION, "kind": "counter", "name": k, "value": n}
            for k, n in counter_items
        ]
        return [meta, *records, *counters]

    def save(self, path: str | os.PathLike | None = None) -> Path:
        """Write the run as JSONL and return the file path."""
        out = Path(path) if path is not None \
            else self.directory / f"{self.run_id}.jsonl"
        out.parent.mkdir(parents=True, exist_ok=True)
        tmp = out.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as f:
            for record in self.records():
                f.write(json.dumps(record, sort_keys=True) + "\n")
        os.replace(tmp, out)
        self.path = out
        return out

    # -- context-manager installation --------------------------------------

    def __enter__(self) -> "TelemetryCollector":
        self._restore = set_collector(self)
        return self

    def __exit__(self, *exc: Any) -> None:
        set_collector(self._restore)
        self._restore = None
        self.save()


# -- current-collector plumbing ---------------------------------------------

_NULL = NullCollector()
_current: TelemetryCollector | NullCollector = _NULL


def get_collector() -> TelemetryCollector | NullCollector:
    """The collector instrumentation sites currently report to."""
    return _current


def set_collector(
    collector: TelemetryCollector | NullCollector | None,
) -> TelemetryCollector | NullCollector:
    """Install ``collector`` (``None`` = the null one); return the old."""
    global _current
    previous = _current
    _current = collector if collector is not None else _NULL
    return previous


@contextmanager
def use_collector(
    collector: TelemetryCollector | NullCollector,
) -> Iterator[TelemetryCollector | NullCollector]:
    """Install ``collector`` for the ``with`` body, then restore."""
    previous = set_collector(collector)
    try:
        yield collector
    finally:
        set_collector(previous)


def span(name: str):
    """Open a span on the current collector."""
    return _current.span(name)


def count(name: str, n: int = 1) -> None:
    """Bump a counter on the current collector."""
    _current.count(name, n)


def probe(name: str, value: Any) -> None:
    """Attach a probe to the current collector's innermost span."""
    _current.probe(name, value)


def probe_rows(sp, name: str, values) -> None:
    """Probe a per-row quantity of a stacked pass on span ``sp``: the
    row's own value for a stack of one, else the mean over the rows."""
    values = np.asarray(values)
    sp.probe(name, values.item() if values.size == 1
             else float(np.mean(values)))
