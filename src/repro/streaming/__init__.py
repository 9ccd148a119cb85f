"""Streaming decode-as-a-service: chunked ingest, warm sessions, HTTP.

The batch pipeline (``repro.reader``) decodes one complete capture per
call.  This package turns it into a long-running service:

* :class:`~repro.streaming.decoder.StreamingDecoder` -- chunked,
  stateful decoding of one tag session; cold decodes are byte-identical
  to ``reader.decode``, warm ones carry cancellation/sync state across
  exchanges.
* :class:`~repro.streaming.mux.SessionMultiplexer` -- many concurrent
  sessions on one asyncio loop with explicit admission control, chunk
  ingest inside the request that carries the chunk, idempotent indexed
  ingest with checkpoint/resume, a stall watchdog, and graceful drain.
* :class:`~repro.streaming.server.StreamingServer` -- the HTTP/WebSocket
  front-end behind ``repro serve``, with a live telemetry push feed,
  ``/healthz`` + ``/readyz`` probes, and optional deterministic fault
  injection (:class:`repro.faults.ChaosPlan`).
  :class:`~repro.streaming.server.ServerThread` runs one on a private
  loop thread for tests and in-process experiments.
* :class:`~repro.streaming.client.ServiceClient` -- the stdlib reference
  client (``python -m repro.streaming``), including ``--verify``
  byte-for-byte checking against the local batch decoder and a hardened
  transport (deadline + :class:`~repro.streaming.client.RetryPolicy`
  backoff + idempotent chunk replay + checkpoint resume).

Configuration lives in the scenario layer
(:class:`repro.scenario.StreamingConfig`; presets ``streaming-50`` and
``chaos-lab``).  ``docs/STREAMING.md`` walks the service end to end;
``docs/ROBUSTNESS.md`` covers the resilience harness.
"""

from .client import RetryBudget, RetryPolicy, ServiceClient, \
    ServiceDisconnect, ServiceError, ServiceHttpError, ServiceTimeout, \
    run_session
from .decoder import DEFAULT_WARM_SYNC_SEARCH_US, StreamProgress, \
    StreamingDecoder, WarmState
from .mux import InjectedWorkerFault, MuxError, Overloaded, \
    SessionMultiplexer, UnknownSession
from .server import DEFAULT_PORT, ServerThread, StreamingServer, \
    result_summary
from .session import CaptureSource, SessionStats, StreamSession, \
    exchange_rngs

__all__ = [
    "CaptureSource",
    "DEFAULT_PORT",
    "DEFAULT_WARM_SYNC_SEARCH_US",
    "InjectedWorkerFault",
    "MuxError",
    "Overloaded",
    "RetryBudget",
    "RetryPolicy",
    "ServerThread",
    "ServiceClient",
    "ServiceDisconnect",
    "ServiceError",
    "ServiceHttpError",
    "ServiceTimeout",
    "SessionMultiplexer",
    "SessionStats",
    "StreamProgress",
    "StreamSession",
    "StreamingDecoder",
    "StreamingServer",
    "UnknownSession",
    "WarmState",
    "exchange_rngs",
    "result_summary",
    "run_session",
]
