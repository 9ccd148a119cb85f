"""Reference exchange-synthesis kernels: verbatim copies of the originals.

The transmitter in :mod:`repro.wifi.transmitter` interleaves, maps,
IFFTs and prefixes every OFDM symbol of a PPDU as one stack, and the
CRCs in :mod:`repro.utils.crc` run a byte at a time from a table.  This
module keeps the original forms -- one Python iteration per OFDM symbol
(with the single-symbol ``assemble_symbol``/``add_cyclic_prefix`` and
``interleave`` and the sliding-window ``conv_encode`` they called), the
ADC quantiser that rounded I and Q as separate planes of one capture
and the one-pass quantiser that reassembled them through complex
temporaries, and one Python step per CRC input bit -- as the oracles
the property tests hold the fast kernels to, bit for bit.  The scalar
exchange synthesizer (one exchange, one array per stage) is kept the
same way,
as the oracle a stack of one is held to, and so is the stacked
synthesizer that drew each row's stages in one pass
(``synthesize_stack``), as the oracle the stage-ordered one is held to.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from dsp_oracle import stacked_convolve_padded
from repro.channel.doppler import backscatter_fading
from repro.channel.environment import Scene
from repro.channel.hardware import (
    PaNonlinearity,
    ar1_drift_params,
    ar1_filter,
    coherence_impairment,
    draw_ar1_innovations,
)
from repro.channel.multipath import apply_channel
from repro.channel.noise import awgn
from repro.coding.convolutional import _PARITY, CONSTRAINT, puncture
from repro.coding.interleaver import interleave_indices
from repro.coding.scrambler import scramble
from repro.constants import (
    BACKSCATTER_EVM_COHERENCE_US,
    BACKSCATTER_EVM_RMS,
    CP_LENGTH,
    FFT_SIZE,
    SAMPLES_PER_US,
    SYMBOL_LENGTH,
)
from repro.dsp.fastpath import pad_stack, stacked_convolve
from repro.faults import FaultPlan
from repro.link.protocol import ApTimeline
from repro.link.session import ExchangeCapture, synthesize_ap_transmission
from repro.tag.detector import DetectionResult
from repro.tag.tag import BackFiTag, BackscatterPlan
from repro.utils.bits import bits_from_bytes
from repro.wifi.mapper import qam_map
from repro.wifi.ofdm import (
    _DATA_FFT_BINS,
    _PILOT_FFT_BINS,
    PILOT_VALUES,
    pilot_polarity_sequence,
)
from repro.wifi.params import rate_params
from repro.wifi.preamble import plcp_preamble
from repro.wifi.signal_field import encode_signal_field


# -- OFDM transmitter, one symbol at a time -----------------------------


def conv_encode(bits: np.ndarray) -> np.ndarray:
    """Rate-1/2 mother-code encoding of a bit array (zero initial state).

    Output interleaves the two generator streams: ``a0 b0 a1 b1 ...``.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    n = bits.size
    if n == 0:
        return np.empty(0, dtype=np.uint8)
    # Build the 7-bit register value at each step: newest bit is LSB in
    # standard 802.11 convention x[n], x[n-1], ..., x[n-6] dotted with g.
    padded = np.concatenate([np.zeros(CONSTRAINT - 1, dtype=np.uint8), bits])
    # Window of 7 bits ending at each position, newest first.
    # reg = sum_{k=0..6} x[n-k] << (6-k): newest bit is the MSB, so the
    # octal generator masks match the 802.11 tap definition.
    weights = 1 << np.arange(CONSTRAINT)
    windows = np.lib.stride_tricks.sliding_window_view(padded, CONSTRAINT)
    reg = windows @ weights.astype(np.uint32)
    out = np.empty(2 * n, dtype=np.uint8)
    out[0::2] = _PARITY[0, reg]
    out[1::2] = _PARITY[1, reg]
    return out


def interleave(bits: np.ndarray, n_bpsc: int) -> np.ndarray:
    """Interleave one OFDM symbol's worth of coded bits."""
    bits = np.asarray(bits)
    idx = interleave_indices(bits.size, n_bpsc)
    out = np.empty_like(bits)
    out[idx] = bits
    return out


def assemble_symbol(data_symbols: np.ndarray, pilot_polarity: float) -> np.ndarray:
    """Build one time-domain OFDM symbol (without CP) from 48 data points."""
    data_symbols = np.asarray(data_symbols, dtype=np.complex128)
    if data_symbols.size != len(_DATA_FFT_BINS):
        raise ValueError(f"expected 48 data symbols, got {data_symbols.size}")
    spec = np.zeros(FFT_SIZE, dtype=np.complex128)
    spec[_DATA_FFT_BINS] = data_symbols
    spec[_PILOT_FFT_BINS] = PILOT_VALUES * pilot_polarity
    return np.fft.ifft(spec) * FFT_SIZE / np.sqrt(52.0)


def add_cyclic_prefix(symbol: np.ndarray) -> np.ndarray:
    """Prepend the last CP_LENGTH samples."""
    return np.concatenate([symbol[-CP_LENGTH:], symbol])


def transmit_samples(psdu: bytes, rate_mbps: int,
                     scrambler_seed: int = 0x5D) -> np.ndarray:
    """The PPDU samples of ``WifiTransmitter(scrambler_seed).transmit``."""
    p = rate_params(rate_mbps)

    # --- DATA field bits: SERVICE(16) + PSDU + tail(6) + pad ---
    psdu_bits = bits_from_bytes(psdu)
    n_bits = 16 + psdu_bits.size + 6
    n_sym = -(-n_bits // p.n_dbps)
    data = np.zeros(n_sym * p.n_dbps, dtype=np.uint8)
    data[16:16 + psdu_bits.size] = psdu_bits
    # Scramble everything (incl. the pad), then force the 6 tail
    # bits back to zero, per 17.3.5.3.
    scrambled = scramble(data, scrambler_seed)
    tail_start = 16 + psdu_bits.size
    scrambled[tail_start:tail_start + 6] = 0

    # --- encode, interleave, map per OFDM symbol ---
    coded = puncture(conv_encode(scrambled), p.code_rate)
    polarities = pilot_polarity_sequence(n_sym + 1)
    symbols = []

    sig_bits = encode_signal_field(rate_mbps, len(psdu))
    sig_points = qam_map(sig_bits, "bpsk")
    symbols.append(
        add_cyclic_prefix(assemble_symbol(sig_points, polarities[0]))
    )

    for s in range(n_sym):
        chunk = coded[s * p.n_cbps:(s + 1) * p.n_cbps]
        inter = interleave(chunk, p.n_bpsc)
        points = qam_map(inter, p.modulation)
        symbols.append(
            add_cyclic_prefix(assemble_symbol(points, polarities[s + 1]))
        )

    samples = np.concatenate([plcp_preamble()] + symbols)
    expected = 320 + (n_sym + 1) * SYMBOL_LENGTH
    assert samples.size == expected
    return samples


# -- ADC, one capture at a time -----------------------------------------


def adc_quantize(x: np.ndarray, full_scale: float, bits: int) -> np.ndarray:
    """``Adc(bits, full_scale).quantize(x)``: I and Q clipped and rounded
    as two separate planes."""
    x = np.asarray(x, dtype=np.complex128)
    levels = 1 << bits
    step = 2.0 * full_scale / levels
    def q(v: np.ndarray) -> np.ndarray:
        clipped = np.clip(v, -full_scale, full_scale - step)
        return np.round(clipped / step) * step
    return q(x.real) + 1j * q(x.imag)


def adc_quantize_interleaved(x: np.ndarray, full_scale, bits: int
                             ) -> np.ndarray:
    """``Adc(bits)._quantize(x, full_scale)`` as one pass over the
    interleaved I/Q planes, reassembled through two complex
    temporaries (``full_scale`` a scalar or an array broadcasting
    against ``x.shape + (2,)``)."""
    levels = 1 << bits
    step = 2.0 * full_scale / levels
    iq = np.ascontiguousarray(x).view(np.float64).reshape(x.shape + (2,))
    q = np.clip(iq, -full_scale, full_scale - step)
    q /= step
    np.round(q, out=q)
    q *= step
    return q[..., 0] + 1j * q[..., 1]


# -- CRCs, one bit at a time --------------------------------------------


def crc_bits(bits: np.ndarray, poly: int, width: int, init: int,
             xor_out: int) -> int:
    """Generic MSB-first CRC over a bit array."""
    reg = init
    mask = (1 << width) - 1
    for b in np.asarray(bits, dtype=np.uint8):
        fb = ((reg >> (width - 1)) & 1) ^ int(b)
        reg = (reg << 1) & mask
        if fb:
            reg ^= poly
    return reg ^ xor_out


def crc8(bits: np.ndarray) -> int:
    """CRC-8 (poly 0x07), used for the tag frame header."""
    return crc_bits(bits, poly=0x07, width=8, init=0x00, xor_out=0x00)


def crc16_ccitt(bits: np.ndarray) -> int:
    """CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF), the tag payload check."""
    return crc_bits(bits, poly=0x1021, width=16, init=0xFFFF, xor_out=0x0000)


def crc32(data: bytes) -> int:
    """IEEE 802.3 CRC-32 as used by the 802.11 FCS, over bytes."""
    reg = 0xFFFFFFFF
    for byte in data:
        reg ^= byte
        for _ in range(8):
            if reg & 1:
                reg = (reg >> 1) ^ 0xEDB88320
            else:
                reg >>= 1
    return reg ^ 0xFFFFFFFF


# -- exchange synthesis, one exchange at a time -------------------------


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
    """The scalar exchange synthesizer, one array per stage.

    The package synthesizes every exchange as a stack
    (:func:`repro.link.batch.synthesize_stack`);
    :func:`repro.link.session.synthesize_exchange` is that stack on one
    row.  This is the scalar form it replaced, kept verbatim: a stack of
    one must reproduce its capture, its faults and its generator draws
    bit for bit.
    """
    rng = rng or np.random.default_rng()
    fault = faults.realize(exchange_index) if faults is not None else None
    timeline, x_pa = synthesize_ap_transmission(
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
    x = timeline.samples

    # --- tag side ---------------------------------------------------------
    if payload_bits is None:
        payload_bits = rng.integers(0, 2, size=n_payload_bits,
                                    dtype=np.uint8)
    tag.queue_data(payload_bits)
    z_tag = apply_channel(scene.h_f, x_pa)
    wake = None if use_tag_detector else timeline.wifi_start
    if fault is not None and fault.detector_miss:
        # The wake-up detector slept through the AP preamble: the tag
        # never reflects and its queued data stays in memory.
        plan = BackscatterPlan(
            reflection=np.zeros(x.size, dtype=np.complex128),
            detection=DetectionResult(detected=False),
        )
    else:
        plan = tag.backscatter(z_tag, wake_index=wake)
    reflection = plan.reflection
    if fault is not None:
        reflection = fault.apply_reflection(reflection,
                                            timeline.wifi_start)

    # --- interfering tags ----------------------------------------------
    interference = np.zeros(x.size, dtype=np.complex128)
    for other_tag, other_scene in (interferers or []):
        if other_tag.pending_bits == 0:
            other_tag.queue_data(rng.integers(0, 2, size=1000,
                                              dtype=np.uint8))
        z_other = apply_channel(other_scene.h_f, x_pa)
        other_plan = other_tag.backscatter(
            z_other, wake_index=timeline.wifi_start)
        interference += apply_channel(
            other_scene.h_b, z_other * other_plan.reflection)

    # --- reader receive ----------------------------------------------------
    si = apply_channel(scene.h_env, x_pa)
    if scene.config.env_drift_rms > 0:
        si = si * coherence_impairment(
            si.size, scene.config.env_drift_rms,
            scene.config.env_drift_coherence_us * SAMPLES_PER_US, rng,
        )
    backscatter = apply_channel(scene.h_b, z_tag * reflection)
    if fault is not None:
        backscatter = fault.apply_backscatter(backscatter)
    if tag_speed_m_s > 0:
        from repro.channel.doppler import backscatter_fading

        backscatter = backscatter * backscatter_fading(
            backscatter.size, tag_speed_m_s, rng=rng,
        )
    if backscatter_evm > 0:
        backscatter = backscatter * coherence_impairment(
            backscatter.size, backscatter_evm,
            BACKSCATTER_EVM_COHERENCE_US * SAMPLES_PER_US, rng,
        )
    noise = awgn(x.size, scene.noise_floor_mw, rng)
    y = si + backscatter + interference + noise
    if fault is not None:
        y = fault.apply_rx(y, scene.noise_floor_mw)

    return ExchangeCapture(
        timeline=timeline,
        plan=plan,
        payload_bits=payload_bits,
        x_pa=x_pa,
        rx=y,
        z_tag=z_tag,
        reflection=reflection,
        injected_faults=tuple(fault.injected) if fault is not None else (),
    )


def synthesize_stack(
    transmission: tuple[ApTimeline, np.ndarray],
    scenes: Sequence[Scene],
    tags: Sequence[BackFiTag],
    rngs: Sequence[np.random.Generator],
    *,
    payload_bits: np.ndarray | None = None,
    n_payload_bits: int = 1000,
    backscatter_evm: float = BACKSCATTER_EVM_RMS,
    tag_speed_m_s: float = 0.0,
    interferers: list[tuple[BackFiTag, Scene]] | None = None,
    use_tag_detector: bool = False,
    faults: FaultPlan | None = None,
    exchange_index: int = 0,
) -> tuple[np.ndarray, list[ExchangeCapture]]:
    """Synthesize one exchange per (scene, tag, rng) row of a stack.

    ``transmission`` is the shared ``(timeline, x_pa)`` pair of
    :func:`~repro.link.session.synthesize_ap_transmission`; the options
    are :func:`~repro.link.session.synthesize_exchange`'s tag-side ones
    and apply to every row (each row realizes its own copy of
    ``faults``, and ``interferers`` react in every row, in row order).
    Returns the ``(n, n_samples)`` receive stack and one
    :class:`~repro.link.session.ExchangeCapture` per row, whose ``rx``
    is that row of the stack.

    The stacked synthesizer as it drew row by row: each row's env
    drift, Doppler, EVM and AWGN draws in one pass, into stacks of
    their own, with the drift products written as expressions and the
    backscatter convolved over a zero-padded copy of its signals
    (``dsp_oracle.stacked_convolve_padded``).  The package's
    :func:`repro.link.batch.synthesize_stack` must reproduce its
    captures and generator end states bit for bit.
    """
    timeline, x_pa = transmission
    n, n_samp = len(scenes), x_pa.size

    def conv(h_stack: np.ndarray, sig: np.ndarray) -> np.ndarray:
        # Stacks of two or more signals took the padded-copy branch;
        # every other operand pair a branch that is unchanged.
        if np.ndim(sig) == 2 and len(sig) > 1:
            return stacked_convolve_padded(sig, h_stack)[..., :n_samp]
        return stacked_convolve(sig, h_stack)[..., :n_samp]

    # --- tag side, row by row (payload and interferer draws) ----------
    z_tag = conv(pad_stack([s.h_f for s in scenes]), x_pa)
    wake = None if use_tag_detector else timeline.wifi_start
    rows = []
    reflections = np.empty((n, n_samp), dtype=np.complex128)
    interference = np.zeros((n if interferers else 1, n_samp),
                            dtype=np.complex128)
    for b in range(n):
        fault = None if faults is None else faults.realize(exchange_index)
        bits = payload_bits if payload_bits is not None else \
            rngs[b].integers(0, 2, size=n_payload_bits, dtype=np.uint8)
        tags[b].queue_data(bits)
        if fault is not None and fault.detector_miss:
            # The wake-up detector slept through the AP preamble: the
            # tag never reflects and its queued data stays in memory.
            plan = BackscatterPlan(
                reflection=np.zeros(n_samp, dtype=np.complex128),
                detection=DetectionResult(detected=False),
            )
        else:
            plan = tags[b].backscatter(z_tag[b], wake_index=wake)
        reflection = plan.reflection
        if fault is not None:
            reflection = fault.apply_reflection(reflection,
                                                timeline.wifi_start)
        reflections[b] = reflection
        for other_tag, other_scene in interferers or ():
            if other_tag.pending_bits == 0:
                other_tag.queue_data(rngs[b].integers(0, 2, size=1000,
                                                      dtype=np.uint8))
            z_other = apply_channel(other_scene.h_f, x_pa)
            other_plan = other_tag.backscatter(
                z_other, wake_index=timeline.wifi_start)
            interference[b] += apply_channel(
                other_scene.h_b, z_other * other_plan.reflection)
        rows.append((bits, plan, reflection, fault))

    # --- reader receive: channels over the stack, draws row by row ----
    si = conv(pad_stack([s.h_env for s in scenes]), x_pa)
    backscatter = conv(pad_stack([s.h_b for s in scenes]),
                       z_tag * reflections)
    drift_rows: dict[float, list[int]] = {}     # rows per AR(1) pole
    w_env = np.empty((n, n_samp), dtype=np.complex128)
    prev_env = np.empty(n, dtype=np.complex128)
    if backscatter_evm > 0:
        rho_evm, scale_evm = ar1_drift_params(
            backscatter_evm, BACKSCATTER_EVM_COHERENCE_US * SAMPLES_PER_US)
        w_evm = np.empty((n, n_samp), dtype=np.complex128)
        prev_evm = np.empty(n, dtype=np.complex128)
    noise = np.empty((n, n_samp), dtype=np.complex128)
    for b, scene in enumerate(scenes):
        env_rms = scene.config.env_drift_rms
        if env_rms > 0:
            rho_env, scale = ar1_drift_params(
                env_rms, scene.config.env_drift_coherence_us * SAMPLES_PER_US)
            drift_rows.setdefault(rho_env, []).append(b)
            _, prev_env[b] = draw_ar1_innovations(
                n_samp, env_rms, scale, rngs[b], out=w_env[b])
        fault = rows[b][3]
        if fault is not None:
            backscatter[b] = fault.apply_backscatter(backscatter[b])
        if tag_speed_m_s > 0:
            backscatter[b] = backscatter[b] * backscatter_fading(
                n_samp, tag_speed_m_s, rng=rngs[b])
        if backscatter_evm > 0:
            _, prev_evm[b] = draw_ar1_innovations(
                n_samp, backscatter_evm, scale_evm, rngs[b], out=w_evm[b])
        awgn(n_samp, scene.noise_floor_mw, rngs[b], out=noise[b])

    # Keep these products exactly as written: numpy's SIMD complex
    # multiply rounds by operand order, and it evaluates
    # ``si * (1.0 + g)`` in place as ``t *= si`` only when the temporary
    # ``t`` is large enough to elide.  A pole shared by every row takes
    # the whole stack, as the scalar synthesis took its one row.
    for rho_env, idx in drift_rows.items():
        if len(idx) == n:
            si = si * (1.0 + ar1_filter(w_env, rho_env, prev_env))
        else:
            si[idx] = si[idx] * (1.0 + ar1_filter(w_env[idx], rho_env,
                                                  prev_env[idx]))
    if backscatter_evm > 0:
        backscatter = backscatter * (
            1.0 + ar1_filter(w_evm, rho_evm, prev_evm))
    # si + backscatter + interference + noise, summed in place; into
    # si's buffer when the drift gain gave it one of its own.
    y = np.add(si, backscatter, out=si if si.flags.owndata else None)
    y += interference
    y += noise

    captures = []
    for b, (bits, plan, reflection, fault) in enumerate(rows):
        if fault is not None:
            y[b] = fault.apply_rx(y[b], scenes[b].noise_floor_mw)
        captures.append(ExchangeCapture(
            timeline=timeline,
            plan=plan,
            payload_bits=bits,
            x_pa=x_pa,
            rx=y[b],
            z_tag=z_tag[b],
            reflection=reflection,
            injected_faults=() if fault is None else tuple(fault.injected),
        ))
    return y, captures
