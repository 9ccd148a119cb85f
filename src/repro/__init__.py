"""BackFi: High Throughput WiFi Backscatter -- a full-system reproduction.

This package reimplements the BackFi system (Bharadia, Joshi, Kotaru,
Katti -- SIGCOMM 2015) and every substrate it depends on, in pure
numpy/scipy:

* :mod:`repro.wifi` -- a complete 802.11a/g OFDM PHY (the excitation
  signal and the client the AP talks to),
* :mod:`repro.channel` -- path loss, multipath, noise and RF-hardware
  models standing in for the paper's over-the-air testbed,
* :mod:`repro.tag` -- the BackFi IoT tag: wake-up detector, SPDT
  switch-tree phase modulator, convolutional encoder, energy model,
* :mod:`repro.reader` -- the full-duplex BackFi AP: analog+digital
  self-interference cancellation, combined channel estimation, MRC
  decoding, rate adaptation,
* :mod:`repro.link` -- the Fig. 4 link-layer protocol and end-to-end
  session simulation,
* :mod:`repro.baselines` -- the prior Wi-Fi Backscatter system and a
  tone-excitation RFID reader for comparison,
* :mod:`repro.traces` -- synthetic loaded-network traffic for the
  deployment experiments,
* :mod:`repro.experiments` -- one module per paper table/figure,
* :mod:`repro.telemetry` -- per-stage spans and signal probes for the
  decode pipeline (``repro trace`` renders a saved run),
* :mod:`repro.scenario` -- declarative, serializable deployment
  descriptions and the preset registry every entry point builds from,
* :mod:`repro.streaming` -- the decode pipeline as a long-running
  service: chunked ingest, warm multi-exchange sessions, an asyncio
  session multiplexer and the ``repro serve`` HTTP/WebSocket front-end
  with a live telemetry feed; hardened with health/readiness
  endpoints, a session watchdog, graceful drain, checkpoint/resume,
  and a retrying client -- provable under the seedable chaos harness
  in :mod:`repro.faults.chaos`.

Quickstart::

    import numpy as np
    from repro import get_scenario

    out = get_scenario("paper-1m").build().run()
    assert out.ok

or, explicitly seeded and tweaked::

    sc = get_scenario("paper-1m").with_overrides("distance_m=2.5")
    rng = np.random.default_rng(0)
    out = sc.build(rng=rng).run(rng=rng)
"""

from .channel import Scene, SceneConfig
from .link import (
    LinkBudget,
    SessionResult,
    build_ap_transmission,
    run_backscatter_session,
)
from .reader import BackFiReader, ReaderConfig, ReaderResult, select_config
from .scenario import (
    ChaosConfig,
    LinkConfig,
    ScenarioConfig,
    StreamingConfig,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from .tag import BackFiTag, TagConfig, all_tag_configs, default_energy_model
from .telemetry import TelemetryCollector
from .wifi import WifiReceiver, WifiTransmitter

__version__ = "1.1.0"

_SERVICE_NAMES = frozenset({
    "RetryPolicy", "ServerThread", "ServiceClient", "SessionMultiplexer",
    "StreamingDecoder", "StreamingServer",
})


def __getattr__(name: str):
    # The service names load :mod:`repro.streaming` (asyncio, ssl, the
    # HTTP front-end) at their first access (PEP 562), so a process that
    # only synthesizes and decodes never imports the service layer.
    if name not in _SERVICE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import streaming

    value = globals()[name] = getattr(streaming, name)
    return value


def __dir__():
    return sorted(set(globals()) | _SERVICE_NAMES)

__all__ = [
    "Scene",
    "SceneConfig",
    "LinkConfig",
    "ScenarioConfig",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "ReaderConfig",
    "LinkBudget",
    "SessionResult",
    "build_ap_transmission",
    "run_backscatter_session",
    "BackFiReader",
    "ReaderResult",
    "select_config",
    "BackFiTag",
    "TagConfig",
    "all_tag_configs",
    "default_energy_model",
    "ChaosConfig",
    "RetryPolicy",
    "ServerThread",
    "ServiceClient",
    "SessionMultiplexer",
    "StreamingConfig",
    "StreamingDecoder",
    "StreamingServer",
    "TelemetryCollector",
    "WifiReceiver",
    "WifiTransmitter",
    "__version__",
]
