"""Declarative scenario configs: one serializable object per operating point.

A :class:`ScenarioConfig` is the single source of truth for a BackFi
operating point -- geometry, channel statistics, tag modulation, reader
knobs, link/session parameters, and (optionally) an ARQ policy and a
fault plan.  It is frozen, hashable, round-trips losslessly through
``to_dict``/``from_dict`` and JSON, and :meth:`ScenarioConfig.build`
realises it into ready-to-run scene/tag/reader objects.

Design rules that keep scenario runs byte-identical to hand-wiring:

* ``build(rng=...)`` consumes the RNG stream exactly like the historical
  inline pattern: one :meth:`Scene.build` draw, and nothing else.  Tag
  and reader construction never touch the RNG.
* Every :class:`LinkConfig` default equals the corresponding
  :func:`repro.link.session.run_backscatter_session` default, so passing
  them explicitly changes nothing.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import numbers
import sys
import types
import typing
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any

import numpy as np

from ..channel.environment import Scene, SceneConfig
from ..faults import (
    AdcSaturation,
    Blocker,
    Brownout,
    ChaosConfig,
    ClockDrift,
    DetectorMiss,
    FaultEvent,
    FaultPlan,
    InterferenceBurst,
)
from ..link.arq import ArqConfig
from ..link.simulator import NetworkConfig
from ..reader.config import ReaderConfig
from ..reader.reader import BackFiReader
from ..tag.config import TagConfig
from ..tag.tag import PREAMBLE_CHIP_US, BackFiTag
from ..wifi.params import SUPPORTED_RATES_MBPS

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from ..link.session import SessionResult
    from ..reader.cancellation import SelfInterferenceCanceller

__all__ = [
    "BuiltScenario",
    "ChaosConfig",
    "LinkConfig",
    "ScenarioConfig",
    "StreamingConfig",
    "fault_plan_from_dict",
    "fault_plan_to_dict",
]

_FAULT_EVENT_TYPES: dict[str, type[FaultEvent]] = {
    cls.kind: cls
    for cls in (
        Blocker,
        InterferenceBurst,
        DetectorMiss,
        ClockDrift,
        Brownout,
        AdcSaturation,
    )
}


def _from_fields(cls: type, data: dict[str, Any], what: str) -> Any:
    """Build dataclass ``cls`` from ``data``, rejecting unknown keys."""
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown {what} field(s) {unknown}; known: {sorted(known)}"
        )
    return cls(**data)


def fault_plan_to_dict(plan: FaultPlan) -> dict[str, Any]:
    """A fault plan as plain data, each event tagged with its ``kind``."""
    events = []
    for ev in plan.events:
        d = {"kind": ev.kind}
        d.update(dataclasses.asdict(ev))
        events.append(d)
    return {"seed": plan.seed, "events": events}


def fault_plan_from_dict(data: dict[str, Any]) -> FaultPlan:
    """Inverse of :func:`fault_plan_to_dict`."""
    events = []
    for spec in data.get("events", ()):
        spec = dict(spec)
        kind = spec.pop("kind", None)
        cls = _FAULT_EVENT_TYPES.get(kind)
        if cls is None:
            raise ValueError(
                f"unknown fault event kind {kind!r}; "
                f"known: {sorted(_FAULT_EVENT_TYPES)}"
            )
        events.append(_from_fields(cls, spec, f"fault event {kind!r}"))
    return FaultPlan(events, seed=int(data.get("seed", 0)))


_SCALARS: dict[type, tuple[tuple[type, ...], str]] = {
    bool: ((bool, np.bool_), "true or false"),
    int: ((numbers.Integral,), "an integer"),
    float: ((numbers.Real,), "a number"),
    str: ((str,), "a string"),
}


@functools.cache
def _field_hints(cls: type) -> dict[str, Any]:
    """The type hint of each dataclass field of ``cls``, and ``str`` for
    the ``kind`` tag that names an event's class."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)} \
        | ({"kind": str} if "kind" in hints else {})


def _kind_class(cls: type, data: dict[str, Any]) -> type:
    """The subclass of ``cls`` whose ``kind`` ``data`` names (fault and
    chaos events), else ``cls`` itself."""
    stack = [cls]
    while stack:
        sub = stack.pop()
        if getattr(sub, "kind", None) == data.get("kind"):
            return sub
        stack.extend(sub.__subclasses__())
    return cls


def _check_value(path: str, hint: Any, value: Any) -> None:
    """Raise ``ValueError`` naming ``path`` when a parsed value does not
    fit a field annotated ``hint``: an integer a float holds may set a
    float, ``X | None`` also takes null, a section takes an object whose
    fields fit (unknown keys are left to the builders, which name them),
    and ``tuple[X, ...]`` a list of fitting items."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if value is None:
            return
        (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) is tuple:
        what, ok = "a list", isinstance(value, (list, tuple))
        for i, item in enumerate(value if ok else ()):
            _check_value(f"{path}[{i}]", typing.get_args(hint)[0], item)
    elif dataclasses.is_dataclass(hint):
        what, ok = "an object", isinstance(value, (hint, dict))
        hints = _field_hints(_kind_class(hint, value)) \
            if isinstance(value, dict) else {}
        for key in [k for k in hints if k in value]:
            _check_value(f"{path}.{key}".lstrip("."), hints[key], value[key])
    else:
        kinds, what = _SCALARS[hint]
        ok = isinstance(value, kinds) and (
            hint is bool or not isinstance(value, (bool, np.bool_)))
        if ok and hint is float and isinstance(value, numbers.Integral):
            ok = abs(value) <= sys.float_info.max   # converts to a float
    if not ok:
        raise ValueError(f"{path or 'scenario'!r} expects {what}, "
                         f"got {json.dumps(value, default=repr)}")


def _arq_to_dict(arq: ArqConfig) -> dict[str, Any]:
    return dataclasses.asdict(arq)


def _arq_from_dict(data: dict[str, Any]) -> ArqConfig:
    data = dict(data)
    floor = data.get("floor_config")
    if isinstance(floor, dict):
        data["floor_config"] = _from_fields(
            TagConfig, floor, "arq.floor_config")
    return _from_fields(ArqConfig, data, "arq")


@dataclass(frozen=True)
class LinkConfig:
    """Session-layer knobs of a scenario.

    Defaults mirror :func:`repro.link.session.run_backscatter_session`
    exactly; ``None`` means "use the session default" for knobs whose
    defaults live in the session layer (preamble length, backscatter
    EVM).
    """

    n_payload_bits: int = 1000
    """Random payload length when no explicit payload is supplied."""

    wifi_rate_mbps: int = 24
    """Excitation WiFi rate."""

    wifi_payload_bytes: int = 1500
    """Excitation packet payload size (sets the tag's airtime window)."""

    preamble_us: float | None = None
    """Tag PN preamble length; ``None`` = protocol default."""

    excitation: str = "wifi"
    """Excitation waveform: ``wifi``, ``ble``, ``zigbee`` or ``dsss``."""

    backscatter_evm: float | None = None
    """Tag modulator EVM; ``None`` = the measured paper default."""

    tag_speed_m_s: float = 0.0
    """Tag radial speed (Doppler) during the exchange."""

    include_cts: bool = True
    """Count the CTS-to-self handshake in the airtime accounting."""

    def __post_init__(self) -> None:
        if self.n_payload_bits < 0:
            raise ValueError("n_payload_bits must be >= 0")
        if self.wifi_rate_mbps not in SUPPORTED_RATES_MBPS:
            raise ValueError(
                f"wifi_rate_mbps must be one of {SUPPORTED_RATES_MBPS}, "
                f"got {self.wifi_rate_mbps}")
        if self.wifi_payload_bytes <= 0:
            raise ValueError("wifi_payload_bytes must be positive")
        if self.preamble_us is not None \
                and not self.preamble_us >= PREAMBLE_CHIP_US:
            raise ValueError(
                f"preamble_us must be null or at least one tag chip "
                f"({PREAMBLE_CHIP_US} us), got {self.preamble_us}")
        if self.excitation not in ("wifi", "ble", "zigbee", "dsss"):
            raise ValueError(
                f"unknown excitation {self.excitation!r}: "
                "expected wifi, ble, zigbee or dsss"
            )
        if self.backscatter_evm is not None \
                and not self.backscatter_evm >= 0:
            raise ValueError("backscatter_evm must be null or >= 0, got "
                             f"{self.backscatter_evm}")
        if not self.tag_speed_m_s >= 0:
            raise ValueError(
                f"tag_speed_m_s must be >= 0, got {self.tag_speed_m_s}")


@dataclass(frozen=True)
class StreamingConfig:
    """Streaming-service knobs of a scenario (``repro serve``).

    Controls how the decode service serves this scenario's sessions:
    chunking, the multiplexer's session ceiling, warm decoding, the
    watchdog and graceful degradation.  See ``docs/STREAMING.md``.
    """

    chunk_samples: int = 4096
    """Samples per ingest chunk the service advertises to producers."""

    max_sessions: int = 64
    """Concurrent-session ceiling; opening one more is refused
    (overload shedding, HTTP 503)."""

    warm_start: bool = False
    """Carry digital-canceller taps and the sync offset across a
    session's exchanges instead of re-fitting per capture."""

    decode_workers: int | None = None
    """Decode thread-pool size; ``None`` sizes it to the host."""

    watchdog_deadline_s: float | None = None
    """Reap a session whose in-flight exchange makes no ingest progress
    for this long (slow-loris protection); ``None`` disables the
    watchdog."""

    watchdog_interval_s: float = 0.5
    """How often the watchdog sweeps the session table."""

    degrade_warm_frac: float = 0.9
    """Past this fraction of ``max_sessions``, new sessions requesting
    warm start are admitted *cold* instead of refused (degradation
    ladder step 2); ``1.0`` disables the downgrade."""

    feed_shed_after_drops: int = 256
    """Disconnect a telemetry feed subscriber after this many dropped
    records (degradation ladder step 1: shed observers before decode
    capacity)."""

    drain_timeout_s: float = 30.0
    """How long a graceful shutdown waits for in-flight exchanges
    before force-closing."""

    def __post_init__(self) -> None:
        if self.chunk_samples <= 0:
            raise ValueError("chunk_samples must be positive")
        if self.max_sessions <= 0:
            raise ValueError("max_sessions must be positive")
        if self.decode_workers is not None and self.decode_workers <= 0:
            raise ValueError("decode_workers must be positive or None")
        if self.watchdog_deadline_s is not None \
                and self.watchdog_deadline_s <= 0:
            raise ValueError("watchdog_deadline_s must be positive or None")
        if self.watchdog_interval_s <= 0:
            raise ValueError("watchdog_interval_s must be positive")
        if not 0.0 <= self.degrade_warm_frac <= 1.0:
            raise ValueError("degrade_warm_frac must be in [0, 1]")
        if self.feed_shed_after_drops < 1:
            raise ValueError("feed_shed_after_drops must be >= 1")
        if self.drain_timeout_s <= 0:
            raise ValueError("drain_timeout_s must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully-specified BackFi operating point, as data."""

    name: str = ""
    """Registry name; empty for ad-hoc scenarios."""

    description: str = ""
    """One-line human description (shown by ``repro scenarios``)."""

    distance_m: float = 1.0
    """AP <-> tag distance."""

    client_distance_m: float = 10.0
    """AP <-> WiFi client distance."""

    client_angle_deg: float = 60.0
    """Client bearing relative to the AP->tag axis."""

    seed: int = 0
    """Default RNG seed used by :meth:`build` when no rng is passed."""

    scene: SceneConfig = field(default_factory=SceneConfig)
    tag: TagConfig = field(default_factory=TagConfig)
    reader: ReaderConfig = field(default_factory=ReaderConfig)
    link: LinkConfig = field(default_factory=LinkConfig)

    arq: ArqConfig | None = None
    """Reliability policy for ARQ transfers; ``None`` = plain sessions."""

    faults: FaultPlan | None = None
    """Deterministic fault environment; ``None`` = clean channel."""

    network: NetworkConfig | None = None
    """Multi-tag deployment for the discrete-event simulator
    (``repro network``); ``None`` = single-tag scenario."""

    streaming: StreamingConfig | None = None
    """Streaming-service knobs for ``repro serve``; ``None`` = serve
    with the service defaults."""

    chaos: ChaosConfig | None = None
    """Deterministic transport-fault injection for the streaming
    service (the wire-level sibling of ``faults``); ``None`` = perfect
    transport."""

    def __post_init__(self) -> None:
        if self.distance_m <= 0:
            raise ValueError("distance_m must be positive")
        if self.client_distance_m <= 0:
            raise ValueError("client_distance_m must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The scenario as plain nested data (JSON-serializable)."""
        out: dict[str, Any] = {
            "name": self.name,
            "description": self.description,
            "distance_m": self.distance_m,
            "client_distance_m": self.client_distance_m,
            "client_angle_deg": self.client_angle_deg,
            "seed": self.seed,
            "scene": dataclasses.asdict(self.scene),
            "tag": dataclasses.asdict(self.tag),
            "reader": dataclasses.asdict(self.reader),
            "link": dataclasses.asdict(self.link),
            "arq": None if self.arq is None else _arq_to_dict(self.arq),
            "faults": None if self.faults is None
            else fault_plan_to_dict(self.faults),
            "network": None if self.network is None
            else dataclasses.asdict(self.network),
            "streaming": None if self.streaming is None
            else dataclasses.asdict(self.streaming),
            "chaos": None if self.chaos is None
            else self.chaos.to_dict(),
        }
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioConfig":
        """Inverse of :meth:`to_dict`.

        Missing sections fall back to defaults; unknown keys raise, so a
        typo'd override or stale file fails loudly instead of silently
        configuring nothing.  A value that does not fit its field's type
        raises ``ValueError`` naming the field (``link.n_payload_bits``).
        """
        _check_value("", cls, data)
        data = dict(data)
        kwargs: dict[str, Any] = {}
        for key in ("name", "description", "distance_m",
                    "client_distance_m", "client_angle_deg", "seed"):
            if key in data:
                kwargs[key] = data.pop(key)
        section_builders = {
            "scene": lambda d: _from_fields(SceneConfig, d, "scene"),
            "tag": lambda d: _from_fields(TagConfig, d, "tag"),
            "reader": lambda d: _from_fields(ReaderConfig, d, "reader"),
            "link": lambda d: _from_fields(LinkConfig, d, "link"),
            "arq": _arq_from_dict,
            "faults": fault_plan_from_dict,
            "network": lambda d: _from_fields(NetworkConfig, d, "network"),
            "streaming": lambda d: _from_fields(
                StreamingConfig, d, "streaming"),
            "chaos": ChaosConfig.from_dict,
        }
        for key, build in section_builders.items():
            if key in data:
                raw = data.pop(key)
                if raw is not None:
                    kwargs[key] = build(raw)
        if data:
            raise ValueError(
                f"unknown scenario field(s) {sorted(data)}; "
                f"known: {sorted(f.name for f in fields(cls))}"
            )
        return cls(**kwargs)

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        return cls.from_dict(json.loads(text))

    def scenario_hash(self) -> str:
        """A stable digest of the physics.

        ``name`` and ``description`` are excluded: two spellings of the
        same operating point hash identically, so cache keys and
        telemetry headers identify *configurations*, not labels.
        """
        payload = self.to_dict()
        payload.pop("name")
        payload.pop("description")
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    # -- derivation -------------------------------------------------------

    def replace(self, **changes: Any) -> "ScenarioConfig":
        """A copy with top-level fields replaced."""
        return dataclasses.replace(self, **changes)

    def with_overrides(self, *assignments: str) -> "ScenarioConfig":
        """A copy with dotted-path assignments applied.

        Each assignment is ``path=value``; the path addresses a field of
        the serialized form (``reader.sync_search_us=4``,
        ``tag.modulation=bpsk``, ``distance_m=5``).  Values parse as
        JSON, falling back to a raw string (so ``tag.code_rate=1/2``
        works without quoting).  Paths must name existing fields, and
        values must fit their fields' types (see :meth:`from_dict`).
        """
        data = self.to_dict()
        for assignment in assignments:
            path, sep, raw = assignment.partition("=")
            if not sep or not path.strip():
                raise ValueError(
                    f"override {assignment!r} is not of the form key=value"
                )
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            keys = path.strip().split(".")
            node: Any = data
            for i, key in enumerate(keys[:-1]):
                if not isinstance(node, dict) or key not in node:
                    raise KeyError(
                        f"override path {path!r} has no field "
                        f"{'.'.join(keys[:i + 1])!r}"
                    )
                if node[key] is None:
                    # e.g. "arq.fallback_after=2" on a scenario without
                    # ARQ: start from the section's defaults.
                    defaults = {
                        "arq": lambda: _arq_to_dict(ArqConfig()),
                        "faults": lambda: fault_plan_to_dict(FaultPlan()),
                        "network": lambda: dataclasses.asdict(
                            NetworkConfig()),
                        "streaming": lambda: dataclasses.asdict(
                            StreamingConfig()),
                        "chaos": lambda: ChaosConfig().to_dict(),
                    }.get(key)
                    if defaults is None:
                        raise KeyError(
                            f"override path {path!r}: {key!r} is null"
                        )
                    node[key] = defaults()
                node = node[key]
            leaf = keys[-1]
            if not isinstance(node, dict) or leaf not in node:
                raise KeyError(
                    f"override path {path!r} has no field {leaf!r}"
                )
            node[leaf] = value
        return type(self).from_dict(data)

    # -- realisation ------------------------------------------------------

    def build(
        self,
        rng: np.random.Generator | None = None,
        *,
        scene: Scene | None = None,
        tag: BackFiTag | None = None,
        canceller: "SelfInterferenceCanceller | None" = None,
    ) -> "BuiltScenario":
        """Realise the scenario into ready-to-run objects.

        The rng (``default_rng(self.seed)`` when omitted) is consumed by
        exactly one :meth:`Scene.build` draw; passing ``scene=``
        consumes nothing.  ``tag``/``canceller`` let experiments swap in
        stateful variants (ablations, detector arms) while keeping the
        rest of the build path shared.
        """
        if rng is None:
            rng = np.random.default_rng(self.seed)
        if scene is None:
            scene = Scene.build(
                tag_distance_m=self.distance_m,
                client_distance_m=self.client_distance_m,
                client_angle_deg=self.client_angle_deg,
                config=self.scene,
                rng=rng,
            )
        if tag is None:
            if self.link.preamble_us is not None:
                tag = BackFiTag(self.tag, preamble_us=self.link.preamble_us)
            else:
                tag = BackFiTag(self.tag)
        reader = BackFiReader(
            self.tag, config=self.reader, canceller=canceller)
        return BuiltScenario(
            config=self, scene=scene, tag=tag, reader=reader, rng=rng)


@dataclass
class BuiltScenario:
    """Ready-to-run objects realised from one :class:`ScenarioConfig`."""

    config: ScenarioConfig
    scene: Scene
    tag: BackFiTag
    reader: BackFiReader
    rng: np.random.Generator

    def session_kwargs(self) -> dict[str, Any]:
        """The scenario's link knobs as ``run_backscatter_session`` kwargs.

        ``None``-valued optional knobs are omitted so the session-layer
        defaults apply (byte-identical to not passing them at all).
        """
        link = self.config.link
        kwargs: dict[str, Any] = {
            "n_payload_bits": link.n_payload_bits,
            "wifi_rate_mbps": link.wifi_rate_mbps,
            "wifi_payload_bytes": link.wifi_payload_bytes,
            "excitation": link.excitation,
            "tag_speed_m_s": link.tag_speed_m_s,
            "include_cts": link.include_cts,
        }
        if link.preamble_us is not None:
            kwargs["preamble_us"] = link.preamble_us
        if link.backscatter_evm is not None:
            kwargs["backscatter_evm"] = link.backscatter_evm
        if self.config.faults is not None:
            kwargs["faults"] = self.config.faults
        return kwargs

    def run(
        self,
        rng: np.random.Generator | None = None,
        **overrides: Any,
    ) -> "SessionResult":
        """Run one backscatter exchange at this operating point.

        Keyword overrides are passed straight to
        :func:`repro.link.session.run_backscatter_session` on top of the
        scenario's link knobs.  When telemetry is enabled the scenario
        hash + dict are stamped into the run header.
        """
        from ..link.session import run_backscatter_session
        from ..telemetry import get_collector

        tm = get_collector()
        if tm.enabled:
            tm.set_scenario(self.config)
        kwargs = self.session_kwargs()
        kwargs.update(overrides)
        return run_backscatter_session(
            self.scene,
            self.tag,
            self.reader,
            rng=self.rng if rng is None else rng,
            **kwargs,
        )
