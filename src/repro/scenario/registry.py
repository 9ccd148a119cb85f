"""The preset registry: the paper's named operating points.

Presets are plain :class:`ScenarioConfig` values registered under a
name.  ``get_scenario`` returns the frozen config -- derive variations
with :meth:`ScenarioConfig.replace` / :meth:`ScenarioConfig.with_overrides`
rather than re-registering.

Registered families:

* ``paper-1m`` / ``paper-5m`` -- the canonical near/far operating
  points (QPSK r1/2 @ 1 MHz, the quickstart configuration).
* ``fig8-<d>m`` -- one rung per distance of the paper's Fig. 8
  throughput-vs-range sweep.
* ``robust-p<p>-(arq|noarq)`` -- the robustness-sweep arms: a
  probabilistic blocker at intensity ``p``, with ARQ enabled or
  single-shot.
* ``sensor-2m`` / ``coex-0.25m`` / ``mobility-2m`` -- the example
  deployments (sensor uplink, client-coexistence study, mobile tag).
* ``warehouse-10k`` / ``city-block-1m`` -- multi-tag deployments for
  the discrete-event network simulator (``repro network``).
* ``streaming-50`` -- the streaming decode service's default operating
  point: 50 concurrent warm sessions of short exchanges
  (``repro serve``, the sessions/sec benchmark).
* ``chaos-lab`` -- the streaming-50 service under a deterministic
  transport-chaos plan (the resilience harness's fixed operating
  point; ``repro serve --scenario chaos-lab``).
"""

from __future__ import annotations

from ..faults import Blocker, ChaosConfig, FaultPlan
from ..link.arq import ArqConfig
from ..link.simulator import NetworkConfig
from ..reader.config import ReaderConfig
from ..tag.config import TagConfig
from .config import LinkConfig, ScenarioConfig, StreamingConfig

__all__ = [
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "resolve_scenario",
]

_REGISTRY: dict[str, ScenarioConfig] = {}


def register_scenario(
    config: ScenarioConfig, *, overwrite: bool = False
) -> ScenarioConfig:
    """Register a named scenario; returns it for chaining."""
    if not config.name:
        raise ValueError("scenario must have a name to be registered")
    if config.name in _REGISTRY and not overwrite:
        raise ValueError(
            f"scenario {config.name!r} is already registered "
            "(pass overwrite=True to replace it)"
        )
    _REGISTRY[config.name] = config
    return config


def get_scenario(name: str) -> ScenarioConfig:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(
            f"unknown scenario {name!r}; registered: {known}"
        ) from None


def list_scenarios() -> list[str]:
    """Sorted names of all registered scenarios."""
    return sorted(_REGISTRY)


def resolve_scenario(spec: "str | ScenarioConfig") -> ScenarioConfig:
    """A scenario from either a registered name or a config object."""
    if isinstance(spec, ScenarioConfig):
        return spec
    return get_scenario(spec)


# -- the paper's operating points ----------------------------------------

ROBUSTNESS_BLOCKER_GAIN_DB = -40.0
"""Forward-link attenuation of the robustness-sweep blocker."""


def arq_disabled_config() -> ArqConfig:
    """An ARQ policy reduced to single-shot delivery (the no-ARQ arm)."""
    return ArqConfig(
        max_retries_per_fragment=0,
        backoff_base_slots=0,
        fallback_after=10**9,
    )


def _register_presets() -> None:
    register_scenario(ScenarioConfig(
        name="paper-1m",
        description="Canonical near operating point: QPSK r1/2 @ 1 MHz, "
                    "tag 1 m from the AP (quickstart / `repro link` "
                    "defaults).",
    ))
    register_scenario(ScenarioConfig(
        name="paper-5m",
        description="Canonical far operating point: the 1 m setup moved "
                    "to 5 m, where rate adaptation starts to matter.",
        distance_m=5.0,
    ))
    for d in (0.5, 1.0, 2.0, 3.0, 5.0, 7.0):
        register_scenario(ScenarioConfig(
            name=f"fig8-{d:g}m",
            description=f"Fig. 8 throughput-vs-range rung at {d:g} m "
                        "(4000-byte excitation, 32 us preamble; the "
                        "sweep picks the best feasible rate here).",
            distance_m=d,
            seed=7,
            link=LinkConfig(wifi_payload_bytes=4000, preamble_us=32.0),
        ))
    for p in (0.0, 0.3, 0.6, 0.9):
        for arq_on in (True, False):
            arm = "arq" if arq_on else "noarq"
            register_scenario(ScenarioConfig(
                name=f"robust-p{p:g}-{arm}",
                description=f"Robustness-sweep arm: blocker probability "
                            f"{p:g}, {'ARQ' if arq_on else 'single-shot'} "
                            "delivery.",
                seed=47,
                link=LinkConfig(wifi_payload_bytes=3000),
                arq=ArqConfig() if arq_on else arq_disabled_config(),
                faults=FaultPlan(
                    [Blocker(
                        gain_db=ROBUSTNESS_BLOCKER_GAIN_DB,
                        probability=p,
                        start_frac=0.15,
                        duration_frac=0.7,
                    )],
                    seed=47,
                ),
            ))
    register_scenario(ScenarioConfig(
        name="sensor-2m",
        description="Battery-free sensor uplink: QPSK r2/3 @ 2 MHz, "
                    "tag 2 m from the AP (sensor_uplink / "
                    "battery_free_deployment examples).",
        distance_m=2.0,
        tag=TagConfig("qpsk", "2/3", 2e6),
    ))
    register_scenario(ScenarioConfig(
        name="coex-0.25m",
        description="Client-coexistence study: 16-PSK r2/3 @ 2.5 MHz "
                    "with the tag 0.25 m from the AP "
                    "(coexistence_study example, Fig. 13 regime).",
        distance_m=0.25,
        tag=TagConfig("16psk", "2/3", 2.5e6),
    ))
    register_scenario(ScenarioConfig(
        name="warehouse-10k",
        description="Warehouse inventory deployment: 10k tags across 8 "
                    "APs in 6 m cells, round-robin polling, 16 kbit "
                    "backlogs (`repro network` smoke scenario).",
        seed=61,
        network=NetworkConfig(
            n_tags=10_000,
            n_aps=8,
            scheduler="round_robin",
            cell_radius_m=6.0,
            min_distance_m=0.5,
            queue_bits=16_384,
        ),
    ))
    register_scenario(ScenarioConfig(
        name="city-block-1m",
        description="City-block sensing deployment: one million tags "
                    "across 64 APs in 12 m cells, backlog-proportional "
                    "polling with small per-tag queues.",
        seed=67,
        network=NetworkConfig(
            n_tags=1_000_000,
            n_aps=64,
            scheduler="proportional",
            cell_radius_m=12.0,
            min_distance_m=0.5,
            queue_bits=4096,
        ),
    ))
    register_scenario(ScenarioConfig(
        name="streaming-50",
        description="Streaming decode service at 50 concurrent warm "
                    "sessions: short exchanges (300-byte excitation, "
                    "200-bit payloads) sized for sessions/sec "
                    "benchmarking (`repro serve` default).",
        seed=71,
        link=LinkConfig(wifi_payload_bytes=300, n_payload_bits=200),
        streaming=StreamingConfig(
            max_sessions=50,
            chunk_samples=4096,
            warm_start=True,
        ),
    ))
    register_scenario(ScenarioConfig(
        name="chaos-lab",
        description="Service-resilience harness: the streaming-50 "
                    "operating point under a deterministic transport "
                    "chaos plan (drops, dups, reorders, corruption, "
                    "resets, latency spikes, worker faults) with the "
                    "session watchdog armed.",
        seed=71,
        link=LinkConfig(wifi_payload_bytes=300, n_payload_bits=200),
        streaming=StreamingConfig(
            max_sessions=50,
            # Small chunks so every exchange spans many chunks: the
            # chaos anchors then land on distinct chunks and
            # drop/reorder/resume actually get exercised.
            chunk_samples=512,
            warm_start=False,
            watchdog_deadline_s=30.0,
        ),
        chaos=ChaosConfig(intensity=0.8, seed=23),
    ))
    register_scenario(ScenarioConfig(
        name="mobility-2m",
        description="Mobile-tag operating point at 2 m with "
                    "decision-directed tracking enabled "
                    "(mobility experiment regime).",
        distance_m=2.0,
        reader=ReaderConfig(track_phase=True),
        link=LinkConfig(wifi_payload_bytes=3000),
    ))


_register_presets()
