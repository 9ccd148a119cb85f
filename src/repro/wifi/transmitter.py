"""802.11a/g OFDM transmitter: PSDU bytes -> 20 Msps baseband samples."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..coding.convolutional import ConvolutionalCode
from ..coding.interleaver import interleave
from ..coding.scrambler import scramble
from ..constants import SYMBOL_LENGTH
from ..utils.bits import bits_from_bytes
from .mapper import qam_map
from .ofdm import add_cyclic_prefix, assemble_symbol, pilot_polarity_sequence
from .params import rate_params
from .preamble import plcp_preamble
from .signal_field import encode_signal_field

__all__ = ["WifiTransmitter", "TxResult"]


@dataclass
class TxResult:
    """A generated PPDU and the metadata needed to verify reception."""

    samples: np.ndarray
    rate_mbps: int
    psdu: bytes
    data_bits: np.ndarray = field(repr=False)
    n_data_symbols: int = 0

    @property
    def duration_us(self) -> float:
        """Air time of the PPDU [us]."""
        return self.samples.size / 20.0


class WifiTransmitter:
    """Generates standard-compliant (within this stack) OFDM PPDUs.

    The output is the paper's "excitation signal": a real WiFi packet
    destined for a normal client, which the BackFi tag backscatters.
    """

    def __init__(self, scrambler_seed: int = 0x5D):
        if not 0 < scrambler_seed < 128:
            raise ValueError("scrambler seed must be a non-zero 7-bit value")
        self.scrambler_seed = scrambler_seed

    def transmit(self, psdu: bytes, rate_mbps: int) -> TxResult:
        """Build the full PPDU for a PSDU at the given rate."""
        if not psdu:
            raise ValueError("PSDU must not be empty")
        if len(psdu) > 4095:
            raise ValueError("PSDU exceeds the 4095-byte SIGNAL LENGTH limit")
        p = rate_params(rate_mbps)

        # --- DATA field bits: SERVICE(16) + PSDU + tail(6) + pad ---
        psdu_bits = bits_from_bytes(psdu)
        n_bits = 16 + psdu_bits.size + 6
        n_sym = -(-n_bits // p.n_dbps)
        data = np.zeros(n_sym * p.n_dbps, dtype=np.uint8)
        data[16:16 + psdu_bits.size] = psdu_bits
        # Scramble everything (incl. the pad), then force the 6 tail
        # bits back to zero, per 17.3.5.3.
        scrambled = scramble(data, self.scrambler_seed)
        tail_start = 16 + psdu_bits.size
        scrambled[tail_start:tail_start + 6] = 0

        # --- encode, then interleave, map, IFFT and prefix the SIGNAL
        # symbol and every DATA symbol as one (n_sym + 1, .) stack ---
        code = ConvolutionalCode(p.code_rate)
        coded = code.encode(scrambled).reshape(n_sym, p.n_cbps)
        points = np.empty((n_sym + 1, 48), dtype=np.complex128)
        points[0] = qam_map(encode_signal_field(rate_mbps, len(psdu)), "bpsk")
        points[1:] = qam_map(interleave(coded, p.n_bpsc),
                             p.modulation).reshape(n_sym, 48)
        symbols = add_cyclic_prefix(
            assemble_symbol(points, pilot_polarity_sequence(n_sym + 1)))

        samples = np.concatenate([plcp_preamble(), symbols.ravel()])
        expected = 320 + (n_sym + 1) * SYMBOL_LENGTH
        assert samples.size == expected
        return TxResult(
            samples=samples,
            rate_mbps=rate_mbps,
            psdu=psdu,
            data_bits=data,
            n_data_symbols=n_sym,
        )
