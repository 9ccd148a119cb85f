"""The exchange synthesizer: a stack of exchanges off one AP transmission.

:func:`synthesize_stack` synthesizes one BackFi exchange per row -- the
AP's packet reaches the tag over ``h_f``, the tag phase-modulates its
reflection, and the reader hears its own leakage over ``h_env`` plus the
reflection over ``h_b``, in noise -- for rows that share one AP
transmission ``(timeline, x_pa)``, each with its own scene, tag and
generator.  It is the only exchange synthesizer:
:func:`~repro.link.session.synthesize_exchange` is it on a stack of one,
and :func:`run_exchange_batch` groups its elements by transmission key
(addressed tag id, preamble, TX power) and synthesizes and decodes each
group as one stack.  The channels run over the stack through
:func:`~repro.dsp.fastpath.stacked_convolve`, and the drift processes
through one :func:`~repro.channel.hardware.ar1_filter` call per AR(1)
pole, over that pole's rows.  The receive stages draw across the
stack in turn -- every row's env drift, then Doppler and EVM, then
AWGN -- so the stack holds one innovation stack and one noise row at a
time, and each row still draws on its own generator in the scalar
order (payload bits, interferer payloads, env drift, Doppler, EVM,
AWGN).  ``rngs`` must therefore be independent per-row generators; one
generator object passed for two rows is refused.

A stack of one is bit for bit the scalar synthesis it replaced (kept in
``tests/synthesis_oracle.py``).  In a bigger stack, decoded bits,
``ok`` flags and payloads match the per-element loop exactly and floats
to rtol 1e-10 (``tests/test_link_batch.py``): numpy rounds a complex
product by operand order, which it swaps when it reuses a temporary of
256 KiB or more.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..channel.environment import Scene
from ..channel.doppler import backscatter_fading
from ..channel.hardware import (
    PaNonlinearity,
    ar1_drift_params,
    ar1_filter,
    coherence_impairment,  # bound only for the frozen perfbench tracer
    draw_ar1_innovations,
)
from ..channel.multipath import apply_channel
from ..channel.noise import awgn
from ..constants import (
    BACKSCATTER_EVM_COHERENCE_US,
    BACKSCATTER_EVM_RMS,
    SAMPLES_PER_US,
    TAG_PREAMBLE_US,
)
from ..dsp.fastpath import pad_stack, stacked_convolve
from ..faults import FaultPlan
from ..tag.detector import DetectionResult
from ..tag.tag import BackFiTag, BackscatterPlan
from .protocol import (
    ApTimeline,
    build_ap_transmission,  # bound only for the frozen perfbench tracer
)
from .session import ExchangeCapture, SessionResult, synthesize_ap_transmission

__all__ = ["run_exchange_batch", "synthesize_stack"]


_ELIDE_BYTES = 256 * 1024
"""numpy's temporary-elision size (``NPY_MIN_ELIDE_BYTES``): a binary
operation whose operand is an unnamed temporary at least this large
reuses that temporary's buffer, in place."""


def _distinct_generators(rngs: Sequence[np.random.Generator]) -> None:
    """Refuse one generator object passed for two rows: the stages draw
    across the rows in turn, so a shared generator would interleave
    the rows' draws."""
    first: dict[int, int] = {}
    for b, rng in enumerate(rngs):
        a = first.setdefault(id(rng), b)
        if a != b:
            raise ValueError(
                f"rows {a} and {b} share one generator; rngs must be "
                "independent per-row generators")


def _drift_gain(w: np.ndarray, rho: float, prev: np.ndarray) -> np.ndarray:
    """``1.0 + ar1_filter(w, rho, prev)``, in the filter's output buffer."""
    gain = ar1_filter(w, rho, prev)
    gain += 1.0
    return gain


def _drift(sig: np.ndarray, w: np.ndarray, rho: float,
           prev: np.ndarray) -> np.ndarray:
    """``sig * (1.0 + ar1_filter(w, rho, prev))``, in the gain's buffer.

    The elision rule: the SIMD complex multiply rounds by operand
    order, and numpy evaluated that expression, with ``t = 1.0 +
    ar1_filter(...)`` an unnamed temporary, as ``t *= sig`` when ``t``
    was at least :data:`_ELIDE_BYTES` and as ``sig * t`` below that;
    both orders are kept, so the product is the expression's bit for
    bit at any stack size.
    """
    gain = _drift_gain(w, rho, prev)
    if gain.nbytes >= _ELIDE_BYTES:
        return np.multiply(gain, sig, out=gain)
    return np.multiply(sig, gain, out=gain)


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
    """
    _distinct_generators(rngs)
    timeline, x_pa = transmission
    n, n_samp = len(scenes), x_pa.size

    def conv(h_stack: np.ndarray, sig: np.ndarray) -> np.ndarray:
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

    # --- reader receive: channels over the stack, draws stage by stage --
    # Each stage draws across the rows (env drift, then Doppler and EVM,
    # then AWGN) and each row's generator still draws in the scalar
    # order, so the draws match the scalar synthesis while one
    # innovation stack and one noise row serve every row.
    si = conv(pad_stack([s.h_env for s in scenes]), x_pa)
    # z_tag * reflection in the stack's own buffer: every capture keeps
    # its own reflection array.
    backscatter = conv(pad_stack([s.h_b for s in scenes]),
                       np.multiply(z_tag, reflections, out=reflections))
    del reflections
    w = np.empty((n, n_samp), dtype=np.complex128)   # AR(1) innovations
    prev = np.empty(n, dtype=np.complex128)
    drift_rows: dict[float, list[int]] = {}     # rows per AR(1) pole
    for b, scene in enumerate(scenes):
        env_rms = scene.config.env_drift_rms
        if env_rms > 0:
            rho_env, scale = ar1_drift_params(
                env_rms, scene.config.env_drift_coherence_us * SAMPLES_PER_US)
            drift_rows.setdefault(rho_env, []).append(b)
            _, prev[b] = draw_ar1_innovations(
                n_samp, env_rms, scale, rngs[b], out=w[b])
    # A pole shared by every row takes the whole stack, as the scalar
    # synthesis took its one row, and the product lands in si's buffer.
    si_owned = False
    for rho_env, idx in drift_rows.items():
        if len(idx) == n:
            si, si_owned = _drift(si, w, rho_env, prev), True
        else:
            # Here the unnamed temporary was ``si[idx]``: the written
            # order held at every size.
            gain = _drift_gain(w[idx], rho_env, prev[idx])
            si[idx] = np.multiply(si[idx], gain, out=gain)
    if backscatter_evm > 0:
        rho_evm, scale_evm = ar1_drift_params(
            backscatter_evm, BACKSCATTER_EVM_COHERENCE_US * SAMPLES_PER_US)
    for b in range(n):
        fault = rows[b][3]
        if fault is not None:
            backscatter[b] = fault.apply_backscatter(backscatter[b])
        if tag_speed_m_s > 0:
            backscatter[b] = backscatter[b] * backscatter_fading(
                n_samp, tag_speed_m_s, rng=rngs[b])
        if backscatter_evm > 0:
            _, prev[b] = draw_ar1_innovations(
                n_samp, backscatter_evm, scale_evm, rngs[b], out=w[b])
    if backscatter_evm > 0:
        backscatter = _drift(backscatter, w, rho_evm, prev)
    del w
    # si + backscatter + interference + noise, summed in place; into
    # si's buffer when the drift gain gave it one of its own.
    y = np.add(si, backscatter, out=si if si_owned else None)
    del si, backscatter
    y += interference
    noise = np.empty(n_samp, dtype=np.complex128)
    for b, scene in enumerate(scenes):
        y[b] += awgn(n_samp, scene.noise_floor_mw, rngs[b], out=noise)

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


def run_exchange_batch(
    scenes: Sequence[Scene],
    tags: Sequence[BackFiTag],
    reader,
    *,
    psdu: bytes,
    rngs: Sequence[np.random.Generator],
    payload_bits: np.ndarray | None = None,
    n_payload_bits: int = 1000,
    wifi_rate_mbps: int = 24,
    preamble_us: float | None = None,
    pa: PaNonlinearity | None = PaNonlinearity(),
    backscatter_evm: float = BACKSCATTER_EVM_RMS,
    addressed_tag_id: int | None = None,
    include_cts: bool = True,
) -> list[SessionResult]:
    """Run one exchange per (scene, tag, rng) triple off a shared PSDU.

    The batched ``[run_backscatter_session(scenes[b], tags[b], reader,
    psdu=psdu, rng=rngs[b], ...) for b in range(n)]``: elements that
    share a transmission key (addressed tag id, preamble length, TX
    power) share one AP transmission -- the same timeline object -- one
    :func:`synthesize_stack` call and one batched decode.  ``psdu`` is
    required (draw it once with
    :func:`~repro.wifi.frames.random_payload`); ``rngs`` holds one
    independent generator per element.
    """
    n = len(scenes)
    if len(tags) != n or len(rngs) != n:
        raise ValueError("scenes, tags and rngs must have equal length")
    from ..reader.batch import BatchedDecoder

    psdu = bytes(psdu)
    groups: dict[tuple, list[int]] = {}
    for b, (scene, tag) in enumerate(zip(scenes, tags)):
        key = (tag.tag_id if addressed_tag_id is None else addressed_tag_id,
               preamble_us if preamble_us is not None
               else getattr(tag, "preamble_us", TAG_PREAMBLE_US),
               scene.tx_power_mw)
        groups.setdefault(key, []).append(b)
    out: list[SessionResult] = [None] * n
    for idx in groups.values():
        timeline, x_pa = synthesize_ap_transmission(
            scenes[idx[0]], tags[idx[0]],
            psdu=psdu,
            wifi_rate_mbps=wifi_rate_mbps,
            preamble_us=preamble_us,
            pa=pa,
            addressed_tag_id=addressed_tag_id,
            include_cts=include_cts,
            rng=rngs[idx[0]],
        )
        y, captures = synthesize_stack(
            (timeline, x_pa),
            [scenes[b] for b in idx], [tags[b] for b in idx],
            [rngs[b] for b in idx],
            payload_bits=payload_bits,
            n_payload_bits=n_payload_bits,
            backscatter_evm=backscatter_evm,
        )
        results = BatchedDecoder(reader).decode_batch(
            timeline, y, [scenes[b].h_env for b in idx],
            pa_output=x_pa, rngs=[rngs[b] for b in idx],
        )
        for b, cap, result in zip(idx, captures, results):
            out[b] = SessionResult(timeline=timeline, plan=cap.plan,
                                   reader=result,
                                   payload_bits=cap.payload_bits)
    return out
