"""Observability for the BackFi pipeline: spans, probes, counters.

The decode chain (cancellation -> sync -> channel estimation -> MRC ->
Viterbi) used to fail silently: experiments reported only end-of-pipe
BER/throughput, so a regression inside one stage was invisible until a
headline table moved.  This package gives every stage a *span* (wall
time) and typed *signal probes* (residual SI power, sync offset,
channel-estimate condition number, post-MRC SNR/EVM, Viterbi path
metric), exported as JSONL and summarised by ``repro trace``.

Usage::

    from repro.telemetry import TelemetryCollector

    with TelemetryCollector(run_id="my-run") as tm:
        reader.decode(timeline, rx, h_env)
    print(tm.path)           # .repro_cache/telemetry/my-run.jsonl

Then ``python -m repro.cli trace my-run`` renders the per-stage timing
table, the probe digest, and the stage-margin waterfall.

The default collector is a no-op singleton, so instrumented code pays
nothing when telemetry is off; see ``docs/TELEMETRY.md`` for the record
schema and the full hook map.
"""

from .collector import (
    RECORD_VERSION,
    NullCollector,
    Span,
    TelemetryCollector,
    count,
    default_telemetry_dir,
    get_collector,
    probe,
    probe_rows,
    set_collector,
    span,
    use_collector,
)
from .trace import TraceRun, load_run, resolve_run_path, summarize

__all__ = [
    "RECORD_VERSION",
    "NullCollector",
    "Span",
    "TelemetryCollector",
    "TraceRun",
    "count",
    "default_telemetry_dir",
    "get_collector",
    "load_run",
    "probe",
    "probe_rows",
    "resolve_run_path",
    "set_collector",
    "span",
    "summarize",
    "use_collector",
]
