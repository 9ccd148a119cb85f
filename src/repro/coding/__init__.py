"""Channel coding: the 802.11 convolutional code, interleaver, scrambler."""

from .convolutional import (
    CODE_RATES,
    ConvolutionalCode,
    conv_encode,
    depuncture,
    puncture,
)
from .interleaver import deinterleave, interleave, interleave_indices
from .scrambler import descramble, scramble, scrambler_sequence
from .viterbi import viterbi_decode_soft

__all__ = [
    "CODE_RATES",
    "ConvolutionalCode",
    "conv_encode",
    "depuncture",
    "puncture",
    "deinterleave",
    "interleave",
    "interleave_indices",
    "descramble",
    "scramble",
    "scrambler_sequence",
    "viterbi_decode_soft",
]
