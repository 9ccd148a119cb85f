"""The BackFi tag: detection, framing, encoding and backscatter modulation.

The tag follows the Fig. 4 state machine: it sleeps until its wake-up
preamble is detected, stays silent for 16 us (letting the reader estimate
the self-interference channel), transmits a known synchronisation preamble
for 32 us (or 96 us in the long-preamble mode of Fig. 8), and then phase-
modulates its encoded frame onto the excitation signal until it runs out
of data or excitation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..coding.convolutional import ConvolutionalCode
from ..constants import SAMPLES_PER_US, SILENT_US, TAG_PREAMBLE_US
from ..utils.bits import barker_like_sequence
from .config import TagConfig
from .detector import DetectionResult, EnergyDetector
from .modulator import PhaseModulator

__all__ = ["BackFiTag", "BackscatterPlan", "tag_preamble_phases"]

PREAMBLE_CHIP_US = 1.0
"""Duration of one tag-preamble PN chip [us]."""


@lru_cache(maxsize=16)
def tag_preamble_phases(duration_us: float = TAG_PREAMBLE_US,
                        seed: int = 0x35) -> np.ndarray:
    """Per-sample unit-modulus preamble waveform (BPSK PN chips).

    The sequence is pseudo-random with a sharp autocorrelation (paper
    Sec. 4.1) and known to the reader, which uses it both for combined
    forward-backward channel estimation and fine symbol timing.  The
    waveform is cached, so the array is read-only.
    """
    n_chips = int(round(duration_us / PREAMBLE_CHIP_US))
    chips = barker_like_sequence(n_chips, seed=seed)
    phases = np.repeat(chips.astype(np.complex128),
                       int(PREAMBLE_CHIP_US * SAMPLES_PER_US))
    phases.setflags(write=False)
    return phases


@dataclass
class BackscatterPlan:
    """Everything the tag decided to transmit, for one excitation packet.

    ``reflection`` is the per-sample complex reflection coefficient,
    aligned with the start of the input sample stream.
    """

    reflection: np.ndarray = field(repr=False)
    detection: DetectionResult | None = None
    data_start: int | None = None
    n_data_symbols: int = 0
    coded_bits: np.ndarray | None = field(default=None, repr=False)
    frame_bits: np.ndarray | None = field(default=None, repr=False)
    info_bits_sent: int = 0

    @property
    def backscattered(self) -> bool:
        """Whether the tag transmitted anything."""
        return self.data_start is not None


class BackFiTag:
    """A BackFi IoT sensor (tag)."""

    def __init__(self, config: TagConfig | None = None, *, tag_id: int = 0,
                 preamble_us: float = TAG_PREAMBLE_US,
                 respect_silent: bool = True):
        self.config = config or TagConfig()
        self.tag_id = tag_id
        self.preamble_us = preamble_us
        self.respect_silent = respect_silent
        """Ablation hook (Sec. 4.2): when False the tag reflects from the
        moment it wakes, contaminating the reader's SI channel estimate."""
        self.detector = EnergyDetector(tag_id)
        self.modulator = PhaseModulator(self.config)
        self.code = ConvolutionalCode(self.config.code_rate)
        self._pending_bits = np.empty(0, dtype=np.uint8)

    # -- configuration -----------------------------------------------------

    def set_config(self, config: TagConfig) -> None:
        """Apply a new operating point (e.g. a downlink rate command).

        Pending data survives the reconfiguration.
        """
        self.config = config
        self.modulator = PhaseModulator(config)
        self.code = ConvolutionalCode(config.code_rate)

    # -- data interface ----------------------------------------------------

    def queue_data(self, payload_bits: np.ndarray) -> None:
        """Append sensor data to the tag's transmit memory."""
        payload_bits = np.asarray(payload_bits, dtype=np.uint8)
        self._pending_bits = np.concatenate(
            [self._pending_bits, payload_bits]
        )

    @property
    def pending_bits(self) -> int:
        """Bits waiting in tag memory."""
        return int(self._pending_bits.size)

    # -- core behaviour ----------------------------------------------------

    def max_payload_bits(self, n_excitation_samples: int,
                         wake_index: int) -> int:
        """Largest payload that fits in the remaining excitation time."""
        sps = self.config.samples_per_symbol
        overhead = int((SILENT_US + self.preamble_us) * SAMPLES_PER_US)
        data_samples = n_excitation_samples - wake_index - overhead
        if data_samples <= 0:
            return 0
        n_symbols = data_samples // sps
        coded_capacity = n_symbols * self.config.bits_per_symbol
        # Invert the coded-length function: frame + tail at rate r.
        r = self.config.code_rate_fraction
        info_capacity = int(coded_capacity * r) - 6  # tail bits
        from ..link.frames import CRC_BITS, HEADER_BITS

        return max(0, info_capacity - HEADER_BITS - CRC_BITS)

    def backscatter(self, excitation: np.ndarray, *,
                    wake_index: int | None = None) -> BackscatterPlan:
        """React to a received excitation stream.

        Parameters
        ----------
        excitation:
            Complex baseband samples as seen at the tag antenna
            (``x * h_f`` plus whatever noise the scene adds).
        wake_index:
            When given, trust the protocol timeline instead of running
            the envelope detector (used by fast experiments); this is the
            sample index where the tag's silent period starts.
        """
        excitation = np.asarray(excitation, dtype=np.complex128)
        n = excitation.size
        reflection = np.zeros(n, dtype=np.complex128)

        if wake_index is not None:
            detection = DetectionResult(
                detected=True, wake_index=int(wake_index), correlation=16,
            )
        else:
            detection = self.detector.detect(excitation)
        if not detection.detected or detection.wake_index is None:
            return BackscatterPlan(reflection=reflection, detection=detection)

        wake = detection.wake_index
        silent_end = wake + int(SILENT_US * SAMPLES_PER_US)
        preamble = tag_preamble_phases(self.preamble_us)
        if not self.respect_silent:
            # The ablation of Sec. 4.2: reflect during the silent window,
            # so self-interference estimation sees (and cancels) the tag.
            reflection[wake:silent_end] = self.modulator.amplitude
        pre_end = silent_end + preamble.size
        if pre_end >= n:
            return BackscatterPlan(reflection=reflection, detection=detection)
        amp = self.modulator.amplitude
        reflection[silent_end:pre_end] = amp * preamble[: pre_end - silent_end]

        # How much payload fits?
        capacity = self.max_payload_bits(n, wake)
        if capacity <= 0 or self.pending_bits == 0:
            return BackscatterPlan(
                reflection=reflection, detection=detection,
                data_start=pre_end,
            )
        n_info = min(capacity, self.pending_bits)
        payload = self._pending_bits[:n_info]
        self._pending_bits = self._pending_bits[n_info:]

        # Imported lazily: repro.link depends on the reader, which in
        # turn needs the tag's preamble definition.
        from ..link.frames import build_frame_bits

        frame = build_frame_bits(payload)
        coded = self.code.encode_with_tail(frame)
        symbols = self.modulator.symbols_from_bits(coded)
        wave = self.modulator.waveform_from_symbols(symbols)
        data_end = min(n, pre_end + wave.size)
        reflection[pre_end:data_end] = wave[: data_end - pre_end]

        return BackscatterPlan(
            reflection=reflection,
            detection=detection,
            data_start=pre_end,
            n_data_symbols=symbols.size,
            coded_bits=coded,
            frame_bits=frame,
            info_bits_sent=n_info,
        )
