"""The BackFi link-layer timeline (paper Fig. 4).

The AP, when willing to accept backscatter, transmits:

``[CTS-to-SELF PPDU] [16 us OOK identification preamble] [WiFi data PPDU]``

and the tag responds on top of the WiFi PPDU with:

``[16 us silent] [32/96 us PN preamble] [phase-modulated payload]``

(the tag's detection happens *during* the identification preamble, so its
silent period starts right at the WiFi packet; small detector latency is
recovered by the reader's fine timing search).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..constants import (
    AP_PREAMBLE_BITS,
    SAMPLES_PER_US,
    SILENT_US,
    TAG_PREAMBLE_US,
)
from ..tag.detector import ap_preamble_bits
from ..wifi.frames import cts_to_self
from ..wifi.transmitter import WifiTransmitter

__all__ = ["ApTimeline", "build_ap_transmission"]

CTS_RATE_MBPS = 6
IFS_US = 4.0
"""Short gap between the CTS, the ID preamble and the data PPDU."""


@dataclass
class ApTimeline:
    """The composed AP waveform and every timeline landmark (samples)."""

    samples: np.ndarray = field(repr=False)
    id_preamble_start: int = 0
    wifi_start: int = 0
    wifi_end: int = 0
    nominal_silent_start: int = 0
    nominal_preamble_start: int = 0
    nominal_data_start: int = 0
    preamble_us: float = TAG_PREAMBLE_US

    @property
    def n_samples(self) -> int:
        """Total waveform length."""
        return int(self.samples.size)

    @property
    def duration_us(self) -> float:
        """Total waveform duration."""
        return self.samples.size / SAMPLES_PER_US


def build_ap_transmission(
    psdu: bytes,
    rate_mbps: int,
    *,
    tag_id: int = 0,
    preamble_us: float = TAG_PREAMBLE_US,
    tx_power_mw: float = 1.0,
    include_cts: bool = True,
    transmitter: WifiTransmitter | None = None,
    excitation_samples: np.ndarray | None = None,
) -> ApTimeline:
    """Compose the full AP waveform for one backscatter opportunity.

    The waveform is normalised to mean power ``tx_power_mw`` over the
    data burst (the power convention of :mod:`repro.channel`).
    ``excitation_samples`` substitutes an arbitrary burst (e.g. a BLE or
    Zigbee packet from :mod:`repro.excitation`) for the WiFi PPDU -- the
    paper's Sec. 1 claim that BackFi is signal-agnostic.
    """
    tx = transmitter or WifiTransmitter()
    parts: list[np.ndarray] = []
    if include_cts and excitation_samples is None:
        parts.append(_cts_waveform(tx.scrambler_seed))

    id_start = sum(p.size for p in parts)
    bits = ap_preamble_bits(tag_id)
    assert bits.size == AP_PREAMBLE_BITS
    # The WiFi PPDU follows the identification pulses back-to-back so the
    # tag's silent period lands on the first 16 us of the packet (Fig. 4).
    parts.append(np.repeat(bits.astype(np.complex128), SAMPLES_PER_US))

    wifi_start = sum(p.size for p in parts)
    if excitation_samples is not None:
        parts.append(np.asarray(excitation_samples,
                                dtype=np.complex128))
    else:
        parts.append(tx.transmit(psdu, rate_mbps).samples)

    samples = np.concatenate(parts)
    # Normalise so the WiFi PPDU carries tx_power_mw mean power; the OOK
    # pulses get the same amplitude scale.
    ppdu = samples[wifi_start:]
    p = float(np.mean(np.abs(ppdu) ** 2))
    scale = np.sqrt(tx_power_mw / p) if p > 0 else 1.0
    samples = samples * scale

    wifi_end = samples.size
    silent_start = wifi_start
    preamble_start = silent_start + int(SILENT_US * SAMPLES_PER_US)
    data_start = preamble_start + int(preamble_us * SAMPLES_PER_US)

    return ApTimeline(
        samples=samples,
        id_preamble_start=id_start,
        wifi_start=wifi_start,
        wifi_end=wifi_end,
        nominal_silent_start=silent_start,
        nominal_preamble_start=preamble_start,
        nominal_data_start=data_start,
        preamble_us=preamble_us,
    )


@lru_cache(maxsize=8)
def _cts_waveform(scrambler_seed: int) -> np.ndarray:
    """The CTS-to-self PPDU and the gap after it (a constant frame, so
    built once per scrambler seed; read-only)."""
    cts = WifiTransmitter(scrambler_seed).transmit(cts_to_self(),
                                                   CTS_RATE_MBPS)
    ifs = np.zeros(int(IFS_US * SAMPLES_PER_US), dtype=np.complex128)
    out = np.concatenate([cts.samples, ifs])
    out.setflags(write=False)
    return out
