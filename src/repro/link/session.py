"""End-to-end simulation of one BackFi exchange.

Wires together: AP waveform composition -> PA nonlinearity -> channels
(self-interference, forward, backward, client) -> tag FSM -> reader
pipeline -> optional client reception.  This is the sample-level "testbed
run" every experiment builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..channel.environment import Scene
from ..channel.hardware import (
    PaNonlinearity,
    carrier_frequency_offset,
    coherence_impairment,  # bound only for the frozen perfbench tracer
)
from ..channel.multipath import apply_channel
from ..channel.noise import awgn
from ..constants import BACKSCATTER_EVM_RMS, TAG_PREAMBLE_US
from ..faults import FaultPlan
from ..tag.tag import BackFiTag, BackscatterPlan

if TYPE_CHECKING:  # avoids a circular import; reader depends on link
    from ..reader.reader import BackFiReader, ReaderResult
from ..utils.bits import bit_errors
from ..wifi.frames import random_payload
from ..wifi.receiver import RxResult, WifiReceiver
from .protocol import ApTimeline, build_ap_transmission

__all__ = ["ExchangeCapture", "SessionResult", "run_backscatter_session",
           "run_scenario_session", "synthesize_ap_transmission",
           "synthesize_exchange"]


@dataclass
class ExchangeCapture:
    """One synthesized exchange, before any receiver has looked at it.

    Everything :func:`run_backscatter_session` produces up to (and
    excluding) the reader's decode: the AP's transmission plan, the PA
    output the canceller taps, and the receive waveform.  The streaming
    service synthesizes captures with :func:`synthesize_exchange` and
    feeds ``rx`` to the decoder in chunks; the batch session decodes it
    in one call.  Decoding ``rx`` with the same generator state either
    way yields byte-identical results.
    """

    timeline: ApTimeline
    plan: BackscatterPlan
    payload_bits: np.ndarray = field(repr=False)
    x_pa: np.ndarray = field(repr=False)
    """The transmitted waveform after the PA model (what the canceller
    taps)."""
    rx: np.ndarray = field(repr=False)
    """The reader's receive signal (SI + backscatter + noise + faults)."""
    z_tag: np.ndarray = field(repr=False)
    """The excitation as seen at the tag (the client path reuses it)."""
    reflection: np.ndarray = field(repr=False)
    """The tag's reflection coefficient stream, after fault shaping."""
    injected_faults: tuple[str, ...] = ()

    @property
    def n_samples(self) -> int:
        return int(self.rx.size)


@dataclass
class SessionResult:
    """Everything measured in one exchange."""

    timeline: ApTimeline
    plan: BackscatterPlan
    reader: ReaderResult
    payload_bits: np.ndarray = field(repr=False)
    client: RxResult | None = None
    client_snr_db: float = float("nan")
    injected_faults: tuple[str, ...] = ()
    """Descriptions of the fault events injected into this exchange."""

    @property
    def ok(self) -> bool:
        """Tag frame decoded and CRC-validated at the reader."""
        return self.reader.ok

    @property
    def airtime_s(self) -> float:
        """Duration of the whole AP transmission."""
        return self.timeline.n_samples / 20e6

    @property
    def delivered_bits(self) -> int:
        """Validated tag payload bits delivered this exchange."""
        return int(self.reader.payload_bits.size) if self.ok else 0

    @property
    def goodput_bps(self) -> float:
        """Delivered tag bits over the exchange air time."""
        return self.delivered_bits / self.airtime_s

    def payload_ber(self) -> float:
        """Bit error rate of the decoded payload vs. what the tag sent.

        Compares against the tag's transmitted payload even when the CRC
        failed (for BER-vs-symbol-rate experiments, Fig. 11b).
        """
        if self.reader.decode is None or self.plan.frame_bits is None:
            return 1.0
        sent = self.plan.frame_bits
        got = self.reader.decode.decoded_bits
        if got.size == 0:
            return 1.0
        errs, total = bit_errors(sent, got)
        missing = max(0, sent.size - got.size)
        return (errs + missing) / sent.size


def run_backscatter_session(
    scene: Scene,
    tag: BackFiTag,
    reader: BackFiReader,
    *,
    psdu: bytes | None = None,
    payload_bits: np.ndarray | None = None,
    n_payload_bits: int = 1000,
    wifi_rate_mbps: int = 24,
    wifi_payload_bytes: int = 1500,
    preamble_us: float | None = None,
    pa: PaNonlinearity | None = PaNonlinearity(),
    backscatter_evm: float = BACKSCATTER_EVM_RMS,
    tag_speed_m_s: float = 0.0,
    client_cfo_hz: float | None = None,
    excitation: str = "wifi",
    addressed_tag_id: int | None = None,
    interferers: list[tuple[BackFiTag, Scene]] | None = None,
    use_tag_detector: bool = False,
    decode_client: bool = False,
    include_cts: bool = True,
    faults: FaultPlan | None = None,
    exchange_index: int = 0,
    rng: np.random.Generator | None = None,
) -> SessionResult:
    """Simulate one complete AP->tag->reader exchange.

    Parameters
    ----------
    scene:
        The channel realisation (distances, multipath, leakage).
    tag / reader:
        Must share the same :class:`~repro.tag.TagConfig` and preamble.
    psdu:
        The downlink WiFi payload bytes; random (drawn from ``rng``,
        ``wifi_payload_bytes`` long) when omitted.  Passing it skips
        that draw, so sweeps that share one AP transmission across
        elements (:func:`repro.link.run_exchange_batch`) keep every
        later draw in the same stream position as this scalar path.
    payload_bits:
        Sensor data to enqueue at the tag; random bits when omitted.
    wifi_rate_mbps / wifi_payload_bytes:
        The ambient WiFi packet the AP sends to its client (the paper
        uses 24 Mbps, 1-4 ms packets).
    pa:
        Reader PA nonlinearity model (``None`` for an ideal PA).
    backscatter_evm:
        RMS of the multiplicative impairment on the backscatter path
        (tag clock jitter / channel drift); 0 disables it.
    tag_speed_m_s:
        Tag mobility: applies Jakes-spectrum Doppler fading (at twice
        the single-path Doppler) to the backscatter -- wearables move.
    addressed_tag_id:
        Which tag the AP's wake-up preamble addresses (defaults to the
        simulated tag -- pass a different id to test selective wake-up).
    interferers:
        Other (tag, scene) pairs that also react to this transmission --
        e.g. a misconfigured tag answering out of turn.  Their
        backscatter adds to the reader's receive signal (collision
        study; the protocol's ID preambles normally prevent this).
    use_tag_detector:
        Run the tag's real envelope detector instead of trusting the
        protocol timeline.
    decode_client:
        Also simulate the WiFi client receiving the downlink packet.
    faults:
        A :class:`repro.faults.FaultPlan` to inject into this exchange.
        The plan draws from its own seeded stream (a pure function of
        ``(plan.seed, exchange_index)``), never from ``rng``, so a plan
        whose events do not trigger leaves the session bit-identical to
        a fault-free run.
    exchange_index:
        Which retry/opportunity this exchange is (selects the fault
        realisation; ARQ layers increment it per opportunity).
    """
    rng = rng or np.random.default_rng()
    cap = synthesize_exchange(
        scene, tag,
        psdu=psdu,
        payload_bits=payload_bits,
        n_payload_bits=n_payload_bits,
        wifi_rate_mbps=wifi_rate_mbps,
        wifi_payload_bytes=wifi_payload_bytes,
        preamble_us=preamble_us,
        pa=pa,
        backscatter_evm=backscatter_evm,
        tag_speed_m_s=tag_speed_m_s,
        excitation=excitation,
        addressed_tag_id=addressed_tag_id,
        interferers=interferers,
        use_tag_detector=use_tag_detector,
        include_cts=include_cts,
        faults=faults,
        exchange_index=exchange_index,
        rng=rng,
    )
    timeline = cap.timeline
    result = reader.decode(timeline, cap.rx, scene.h_env,
                           pa_output=cap.x_pa, rng=rng)

    # --- optional client receive -------------------------------------------
    client_rx = None
    client_snr = float("nan")
    if decode_client:
        rx_client = apply_channel(scene.h_ap_client, cap.x_pa)
        rx_client = rx_client + apply_channel(
            scene.h_tag_client, cap.z_tag * cap.reflection
        )
        rx_client = rx_client + awgn(cap.n_samples, scene.noise_floor_mw,
                                     rng)
        # The client's oscillator is independent of the AP's (802.11
        # allows +-20 ppm; the BackFi reader itself has no CFO because
        # it receives with its own transmit LO).
        if client_cfo_hz is None:
            client_cfo_hz = float(rng.uniform(-40e3, 40e3))
        rx_client = carrier_frequency_offset(rx_client, client_cfo_hz)
        wifi_rx = WifiReceiver()
        # Hand the client only the data PPDU portion.
        client_rx = wifi_rx.receive(rx_client[timeline.wifi_start:])
        client_snr = client_rx.snr_db

    return SessionResult(
        timeline=timeline,
        plan=cap.plan,
        reader=result,
        payload_bits=cap.payload_bits,
        client=client_rx,
        client_snr_db=client_snr,
        injected_faults=cap.injected_faults,
    )


def synthesize_ap_transmission(
    scene: Scene,
    tag: BackFiTag,
    *,
    psdu: bytes | None = None,
    wifi_rate_mbps: int = 24,
    wifi_payload_bytes: int = 1500,
    preamble_us: float | None = None,
    pa: PaNonlinearity | None = PaNonlinearity(),
    excitation: str = "wifi",
    addressed_tag_id: int | None = None,
    include_cts: bool = True,
    rng: np.random.Generator | None = None,
) -> tuple[ApTimeline, np.ndarray]:
    """The AP side of one exchange: what the reader itself transmits.

    Draws the excitation burst (non-WiFi excitation only) and the
    downlink PSDU from ``rng``, builds the AP transmission and applies
    the PA; returns ``(timeline, x_pa)``.  These are the first draws
    :func:`synthesize_exchange` makes, so the same generator state gives
    the exchange's timeline and PA output bit for bit without
    synthesizing a receive capture.  The streaming service arms its
    decoder this way: as in BackFi, the reader knows its own
    transmission and needs only the capture from outside.
    """
    rng = rng or np.random.default_rng()
    if preamble_us is None:
        preamble_us = getattr(tag, "preamble_us", TAG_PREAMBLE_US)
    burst = None
    if excitation == "ble":
        from ..excitation.ble import BleTransmitter

        burst = BleTransmitter().transmit(
            random_payload(min(wifi_payload_bytes, 255), rng)
        ).samples
    elif excitation == "zigbee":
        from ..excitation.zigbee import ZigbeeTransmitter

        burst = ZigbeeTransmitter().transmit(
            random_payload(min(wifi_payload_bytes, 127), rng)
        ).samples
    elif excitation == "dsss":
        from ..excitation.dsss import DsssTransmitter

        burst = DsssTransmitter(rate_mbps=2).transmit(
            random_payload(min(wifi_payload_bytes, 2312), rng)
        ).samples
    elif excitation != "wifi":
        raise ValueError(
            f"unknown excitation {excitation!r}: "
            "wifi / ble / zigbee / dsss"
        )
    if psdu is None:
        psdu = random_payload(wifi_payload_bytes, rng)
    timeline = build_ap_transmission(
        psdu, wifi_rate_mbps,
        tag_id=tag.tag_id if addressed_tag_id is None else addressed_tag_id,
        preamble_us=preamble_us,
        tx_power_mw=scene.tx_power_mw,
        include_cts=include_cts,
        excitation_samples=burst,
    )
    x = timeline.samples
    return timeline, pa.apply(x) if pa is not None else x


def synthesize_exchange(
    scene: Scene,
    tag: BackFiTag,
    *,
    psdu: bytes | None = None,
    payload_bits: np.ndarray | None = None,
    n_payload_bits: int = 1000,
    wifi_rate_mbps: int = 24,
    wifi_payload_bytes: int = 1500,
    preamble_us: float | None = None,
    pa: PaNonlinearity | None = PaNonlinearity(),
    backscatter_evm: float = BACKSCATTER_EVM_RMS,
    tag_speed_m_s: float = 0.0,
    excitation: str = "wifi",
    addressed_tag_id: int | None = None,
    interferers: list[tuple[BackFiTag, Scene]] | None = None,
    use_tag_detector: bool = False,
    include_cts: bool = True,
    faults: FaultPlan | None = None,
    exchange_index: int = 0,
    rng: np.random.Generator | None = None,
) -> ExchangeCapture:
    """Synthesize one exchange's waveforms without decoding anything.

    The front half of :func:`run_backscatter_session`: the AP
    transmission (:func:`synthesize_ap_transmission`), then the one
    exchange synthesizer, :func:`repro.link.batch.synthesize_stack`, on
    a stack of one.  ``synthesize_exchange(...)`` + ``reader.decode(...)``
    with one shared ``rng`` is byte-identical to the one-call session.
    A streaming client uses it to stand in for the over-the-air capture
    it pushes to the service chunk by chunk.
    """
    from .batch import synthesize_stack

    rng = rng or np.random.default_rng()
    transmission = synthesize_ap_transmission(
        scene, tag,
        psdu=psdu,
        wifi_rate_mbps=wifi_rate_mbps,
        wifi_payload_bytes=wifi_payload_bytes,
        preamble_us=preamble_us,
        pa=pa,
        excitation=excitation,
        addressed_tag_id=addressed_tag_id,
        include_cts=include_cts,
        rng=rng,
    )
    _, (capture,) = synthesize_stack(
        transmission, [scene], [tag], [rng],
        payload_bits=payload_bits,
        n_payload_bits=n_payload_bits,
        backscatter_evm=backscatter_evm,
        tag_speed_m_s=tag_speed_m_s,
        interferers=interferers,
        use_tag_detector=use_tag_detector,
        faults=faults,
        exchange_index=exchange_index,
    )
    return capture


def run_scenario_session(
    scenario: "str | Any",
    *,
    rng: np.random.Generator | None = None,
    scene: Scene | None = None,
    **overrides: Any,
) -> SessionResult:
    """One exchange at a named or explicit scenario.

    ``scenario`` is a registered preset name or a
    :class:`~repro.scenario.ScenarioConfig`.  The scenario is built
    (``rng`` defaults to ``default_rng(scenario.seed)``; pass ``scene=``
    to reuse an existing realisation) and run, with keyword overrides
    forwarded to :func:`run_backscatter_session`.
    """
    from ..scenario import resolve_scenario

    built = resolve_scenario(scenario).build(rng=rng, scene=scene)
    return built.run(**overrides)
