"""One tag's streaming session: scenario-bound decoding with stats.

A :class:`StreamSession` binds a scenario realisation (scene, tag,
reader) to a :class:`~repro.streaming.decoder.StreamingDecoder` and
keeps the per-session accounting the service reports.  Exchanges come
from either side of the wire:

* :meth:`StreamSession.start_scenario_exchange` draws the exchange's
  AP transmission server-side, deterministically from ``(scenario,
  exchange index)``: like a BackFi AP, the service knows what it
  transmitted and takes only the receive capture from the client;
* :meth:`StreamSession.attach_exchange` accepts an externally
  synthesized exchange (benchmarks, tests, a future real capture path).

Determinism contract: both ends of the wire derive each exchange's
generators with :func:`exchange_rngs`, a pure function of the scenario
seed and the exchange index, so a client holding only the scenario name
can reproduce byte-for-byte what the server decodes
(:class:`CaptureSource` packages that replay: the client synthesizes
whole captures, the server only their AP side).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..link.protocol import ApTimeline
from ..link.session import ExchangeCapture, synthesize_ap_transmission, \
    synthesize_exchange
from ..reader.reader import ReaderResult
from ..scenario import BuiltScenario, ScenarioConfig, resolve_scenario
from .decoder import StreamingDecoder

__all__ = ["CaptureSource", "SessionStats", "StreamSession",
           "exchange_rngs"]


def exchange_rngs(seed: int, index: int
                  ) -> tuple[np.random.Generator, np.random.Generator]:
    """The ``(synthesis, decode)`` generators for one session exchange.

    A pure function of the scenario seed and the exchange index --
    independent streams spawned from ``SeedSequence([seed, index, k])``
    -- so the server's decode and a client's local replay construct
    identical randomness without sharing any state.
    """
    synth = np.random.default_rng(
        np.random.SeedSequence([int(seed), int(index), 0]))
    decode = np.random.default_rng(
        np.random.SeedSequence([int(seed), int(index), 1]))
    return synth, decode


_AP_KWARGS = frozenset(
    inspect.signature(synthesize_ap_transmission).parameters) \
    - {"scene", "tag", "rng"}
"""The scenario's session keywords that shape the AP transmission."""


class CaptureSource:
    """Deterministic replay of one session's exchange captures.

    Builds the scenario once (tag queue state persists across exchanges,
    as it would in hardware) and synthesizes exchange ``0, 1, 2, ...``
    on demand.  Server and client each hold their own instance and stay
    in lockstep by construction: the client draws whole captures with
    :meth:`next_exchange`, the server only their AP side with
    :meth:`next_transmission`.
    """

    def __init__(self, scenario: "str | ScenarioConfig"):
        self.scenario = resolve_scenario(scenario)
        self.built: BuiltScenario = self.scenario.build()
        self.index = 0

    def next_exchange(self) -> tuple[ExchangeCapture, np.random.Generator]:
        """Synthesize the next capture; returns it plus the decode rng."""
        synth_rng, decode_rng = exchange_rngs(self.scenario.seed, self.index)
        kwargs = self.built.session_kwargs()
        cap = synthesize_exchange(
            self.built.scene, self.built.tag,
            exchange_index=self.index, rng=synth_rng, **kwargs)
        self.index += 1
        return cap, decode_rng

    def next_transmission(self) -> tuple[ApTimeline, np.ndarray,
                                         np.random.Generator]:
        """The next exchange's AP side: ``(timeline, x_pa, decode_rng)``.

        The AP block is the prefix of :meth:`next_exchange`'s synthesis
        stream, so the timeline and PA output equal that capture's bit
        for bit; the tag, channels and noise are never drawn.
        """
        synth_rng, decode_rng = exchange_rngs(self.scenario.seed, self.index)
        kwargs = self.built.session_kwargs()
        timeline, x_pa = synthesize_ap_transmission(
            self.built.scene, self.built.tag, rng=synth_rng,
            **{k: v for k, v in kwargs.items() if k in _AP_KWARGS})
        self.index += 1
        return timeline, x_pa, decode_rng


@dataclass
class SessionStats:
    """Running counters one streaming session reports via ``/stats``."""

    exchanges: int = 0
    decoded: int = 0
    failed: int = 0
    delivered_bits: int = 0
    chunks: int = 0
    samples: int = 0
    decode_seconds: float = 0.0
    """Wall time spent in frame-barrier decodes (not ingest)."""
    last_ok: bool | None = None
    last_snr_db: float = float("nan")
    last_failure: str | None = None

    def note_result(self, result: ReaderResult, seconds: float) -> None:
        self.decoded += 1
        self.decode_seconds += seconds
        self.last_ok = result.ok
        self.last_snr_db = float(result.symbol_snr_db)
        self.last_failure = str(result.failure) if result.failure else None
        if result.ok:
            self.delivered_bits += int(result.payload_bits.size)
        else:
            self.failed += 1

    def as_dict(self) -> dict[str, Any]:
        out = {
            "exchanges": self.exchanges,
            "decoded": self.decoded,
            "failed": self.failed,
            "delivered_bits": self.delivered_bits,
            "chunks": self.chunks,
            "samples": self.samples,
            "decode_seconds": round(self.decode_seconds, 6),
            "last_ok": self.last_ok,
            "last_snr_db": None if np.isnan(self.last_snr_db)
            else round(self.last_snr_db, 3),
            "last_failure": self.last_failure,
        }
        return out


class StreamSession:
    """One tag's long-lived decode session inside the service."""

    def __init__(self, session_id: str,
                 scenario: "str | ScenarioConfig" = "paper-1m", *,
                 warm_start: bool = False):
        self.id = str(session_id)
        self.source = CaptureSource(scenario)
        self.scenario = self.source.scenario
        self.decoder = StreamingDecoder(self.source.built.reader,
                                        warm_start=warm_start)
        self.stats = SessionStats()
        self.admission_degraded = False
        """Whether the multiplexer downgraded a requested warm admission
        to cold under load (degradation ladder step 2)."""

    @property
    def exchange_index(self) -> int:
        """Index the *next* exchange will get."""
        return self.source.index

    def start_scenario_exchange(self) -> int:
        """Arm the next exchange from its AP side; returns its length.

        The decoder gets the AP-side knowledge only (timeline, the
        environment channel, PA output); the receive samples are what
        the client pushes -- its own synthesis standing in for the
        antenna.
        """
        timeline, x_pa, decode_rng = self.source.next_transmission()
        n = self.decoder.begin_exchange(
            timeline, self.source.built.scene.h_env,
            pa_output=x_pa, rng=decode_rng)
        self.stats.exchanges += 1
        return n

    def attach_exchange(self, timeline: ApTimeline, h_env: np.ndarray, *,
                        pa_output: np.ndarray | None = None,
                        rng: np.random.Generator | None = None) -> int:
        """Arm the decoder for an externally synthesized exchange."""
        n = self.decoder.begin_exchange(
            timeline, h_env, pa_output=pa_output, rng=rng)
        self.stats.exchanges += 1
        return n

    def as_dict(self) -> dict[str, Any]:
        out = self.stats.as_dict()
        out.update({
            "id": self.id,
            "scenario": self.scenario.name or "<ad-hoc>",
            "scenario_hash": self.scenario.scenario_hash(),
            "warm_start": self.decoder.warm_start,
            "warm_reuses": self.decoder.warm_reuses,
            "warm_fallbacks": self.decoder.warm_fallbacks,
            "admission_degraded": self.admission_degraded,
            "in_exchange": self.decoder.in_exchange,
        })
        return out
