"""Tag bit-stream decoding: soft Viterbi + frame parsing."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..coding.viterbi import viterbi_decode_soft  # noqa: F401
from ..link.frames import TagFrame, parse_frame_bits  # noqa: F401
from ..tag.config import TagConfig
from .demod import psk_soft_llrs  # noqa: F401

# ``viterbi_decode_soft``, ``parse_frame_bits`` and ``psk_soft_llrs``
# stay bound here for perfbench's per-stage tracer, which wraps them at
# this import site; the decode stage calls them from
# :mod:`repro.reader.batch`.

__all__ = ["TagDecodeOutput", "decode_tag_symbols"]


@dataclass
class TagDecodeOutput:
    """Decoded tag data plus diagnostics."""

    frame: TagFrame | None
    decoded_bits: np.ndarray = field(repr=False)
    llrs: np.ndarray = field(repr=False)

    @property
    def ok(self) -> bool:
        """Frame recovered and CRC-validated."""
        return self.frame is not None and self.frame.ok

    @property
    def payload_bits(self) -> np.ndarray:
        """The validated payload (empty if decoding failed)."""
        if self.frame is None:
            return np.empty(0, dtype=np.uint8)
        return self.frame.payload_bits


def decode_tag_symbols(symbols: np.ndarray, noise_var: np.ndarray,
                       config: TagConfig) -> TagDecodeOutput:
    """Soft-demap MRC outputs, Viterbi-decode and parse the tag frame.

    The reader pipeline's decode stage
    (:func:`repro.reader.batch.decode_symbol_rows`) on a stack of one.
    """
    from .batch import decode_symbol_rows

    symbols = np.asarray(symbols, dtype=np.complex128)
    return decode_symbol_rows(symbols[None], np.asarray(noise_var)[None],
                              config)[0]
