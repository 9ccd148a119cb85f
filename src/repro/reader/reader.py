"""The BackFi AP/reader receive pipeline (paper Fig. 5).

Order of operations for one excitation packet:

1. analog + digital self-interference cancellation (trained on the tag's
   silent period),
2. fine tag timing recovery + combined forward-backward channel
   estimation from the tag's PN preamble,
3. per-symbol maximal-ratio combining of the payload,
4. soft PSK demapping, Viterbi decoding, frame CRC validation.

The stages run in :mod:`repro.reader.batch`, over a stack of captures;
:meth:`BackFiReader.decode` runs them on a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import SAMPLES_PER_US, SILENT_US
from ..link.protocol import ApTimeline
from ..tag.config import TagConfig
from ..telemetry import get_collector
from .cancellation import CancellationResult, SelfInterferenceCanceller
from .channel_est import ChannelEstimate
from .config import ReaderConfig
from .decoder import TagDecodeOutput
from .failures import ReaderFailure
from .mrc import MrcOutput, expected_template, mrc_combine  # noqa: F401
from .sync import SyncResult, find_tag_timing  # noqa: F401

# ``find_tag_timing``, ``expected_template`` and ``mrc_combine`` stay
# bound here for perfbench's per-stage tracer, which wraps them at this
# import site; the pipeline itself lives in :mod:`repro.reader.batch`.

__all__ = ["BackFiReader", "ReaderResult"]

RESIDUAL_FLOOR_RISE_DB = 10.0
"""Noise-floor rise over thermal beyond which a CRC failure is blamed on
the cancellation residue rather than on plain SNR shortfall (the same
threshold :func:`repro.reader.diagnostics.diagnose` uses)."""


@dataclass
class ReaderResult:
    """Everything the reader learned from one packet."""

    ok: bool
    payload_bits: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.uint8), repr=False
    )
    n_symbols: int = 0
    symbol_snr_db: float = float("nan")
    noise_floor_mw: float = float("nan")
    cancellation: CancellationResult | None = None
    sync: SyncResult | None = None
    channel: ChannelEstimate | None = None
    mrc: MrcOutput | None = None
    decode: TagDecodeOutput | None = None
    failure: ReaderFailure | None = None
    recovery_attempts: tuple[str, ...] = ()
    """Escalations tried before this result (empty when the first pass
    succeeded or the failure kind has no reader-side recovery)."""
    recovered: bool = False
    """Whether an escalation turned an initial failure into a decode."""

    def throughput_bps(self, airtime_s: float) -> float:
        """Delivered information rate over a given air time."""
        if not self.ok or airtime_s <= 0:
            return 0.0
        return self.payload_bits.size / airtime_s


class BackFiReader:
    """Decodes backscatter from one BackFi tag.

    The reader knows the tag's operating point (modulation, code rate,
    symbol rate) because it assigned it -- the paper's rate adaptation
    runs at the reader (Sec. 6.1).
    """

    def __init__(self, tag_config: TagConfig | None = None, *,
                 config: ReaderConfig | None = None,
                 canceller: SelfInterferenceCanceller | None = None,
                 n_channel_taps: int | None = None,
                 sync_search_us: float | None = None,
                 preamble_seed: int | None = None,
                 track_phase: bool | None = None,
                 recovery: bool | None = None,
                 sync_widen_factor: float | None = None):
        base = config if config is not None else ReaderConfig()
        self.tag_config = tag_config or TagConfig()
        self.canceller = canceller or SelfInterferenceCanceller()
        self.n_channel_taps = base.n_channel_taps \
            if n_channel_taps is None else n_channel_taps
        self.sync_search_us = base.sync_search_us \
            if sync_search_us is None else sync_search_us
        self.preamble_seed = base.preamble_seed \
            if preamble_seed is None else preamble_seed
        self.track_phase = base.track_phase \
            if track_phase is None else track_phase
        """Enable decision-directed gain tracking across the payload
        (see :mod:`repro.reader.tracking`)."""
        self.recovery = base.recovery if recovery is None else recovery
        """Escalate on recoverable failures: a sync failure retries with
        a widened search window, a residual-floor/saturation failure
        re-runs cancellation at doubled digital depth.  Each escalation
        runs at most once per decode."""
        self.sync_widen_factor = base.sync_widen_factor \
            if sync_widen_factor is None else sync_widen_factor

    @property
    def config(self) -> ReaderConfig:
        """The reader's current plain-data knobs as a :class:`ReaderConfig`."""
        return ReaderConfig(
            n_channel_taps=self.n_channel_taps,
            sync_search_us=self.sync_search_us,
            preamble_seed=self.preamble_seed,
            track_phase=self.track_phase,
            recovery=self.recovery,
            sync_widen_factor=self.sync_widen_factor,
        )

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def silent_rows(timeline: ApTimeline, margin_us: float = 2.0) -> np.ndarray:
        """Sample indices safely inside the tag's silent period."""
        m = int(margin_us * SAMPLES_PER_US)
        start = timeline.nominal_silent_start + m
        end = timeline.nominal_silent_start + \
            int(SILENT_US * SAMPLES_PER_US) - m
        if end <= start:
            raise ValueError("silent period too short for the margin")
        return np.arange(start, end)

    # -- main entry ----------------------------------------------------

    def decode(self, timeline: ApTimeline, rx: np.ndarray,
               h_env: np.ndarray, *,
               pa_output: np.ndarray | None = None,
               rng: np.random.Generator | None = None) -> ReaderResult:
        """Decode the backscatter riding on one AP transmission.

        The reader pipeline (:func:`repro.reader.batch.decode_stack`,
        recovery ladder included) on a stack of one.

        Parameters
        ----------
        timeline:
            The AP's own transmission plan (it knows what it sent).
        rx:
            Received samples, aligned with ``timeline.samples``.
        h_env:
            True self-interference channel (the analog canceller's
            tuning target; see :class:`AnalogCanceller`).
        pa_output:
            The transmitted waveform *after* the PA nonlinearity if the
            scene models one; the canceller taps the PA output.  Defaults
            to the ideal waveform.
        rng:
            The analog canceller's generator (a seeded default when
            omitted).
        """
        from .batch import decode_stack

        tm = get_collector()
        with tm.span("reader.decode") as sp:
            (result,) = decode_stack(
                self, timeline, np.asarray(rx, dtype=np.complex128)[None],
                [h_env], pa_output=pa_output, rngs=[rng])
            if tm.enabled:
                self.probe_decode_result(sp, result)
            return result

    def probe_decode_result(self, sp, result: "ReaderResult") -> None:
        """Attach the standard ``reader.decode`` probes to ``sp``.

        Shared by :meth:`decode` and the streaming decoder so both entry
        points emit the same telemetry surface for one decoded frame.
        """
        from .rate_adapt import required_snr_db

        sp.probe("ok", result.ok)
        sp.probe("n_symbols", result.n_symbols)
        sp.probe("symbol_snr_db", result.symbol_snr_db)
        sp.probe("required_snr_db",
                 required_snr_db(self.tag_config))
        nf = result.noise_floor_mw
        sp.probe("noise_floor_dbm",
                 10.0 * np.log10(max(nf, 1e-30))
                 if np.isfinite(nf) else float("nan"))
        if result.failure:
            sp.probe("failure", str(result.failure))
            sp.probe("failure_kind", result.failure.kind.value)
        if result.recovery_attempts:
            sp.probe("recovery_attempts",
                     "; ".join(result.recovery_attempts))
            sp.probe("recovered", result.recovered)
