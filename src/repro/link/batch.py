"""Batched synthesis + decode of exchanges sharing one AP transmission.

The dense-deployment shape of a BackFi sweep is *one* AP transmission
decoded against many independent channel realisations: the downlink
packet (and therefore the excitation waveform, protocol timeline and PA
output) is identical across elements, only the channels, tag payloads
and noise differ.  The per-trial path re-synthesizes that shared
excitation for every element -- ``build_ap_transmission`` alone costs
more than the whole decode fast path -- and then re-factorises the
excitation-side linear algebra inside each ``reader.decode``.

:func:`run_exchange_batch` is the batched equivalent of

.. code-block:: python

    [run_backscatter_session(scenes[b], tags[b], reader,
                             psdu=psdu, rng=rngs[b], ...)
     for b in range(n)]

with the AP transmission built once, the channel convolutions applied
to the whole stack through
:func:`~repro.dsp.fastpath.stacked_convolve`, and the decode running
through :class:`~repro.reader.batch.BatchedDecoder`.

Equivalence contract (asserted by ``tests/test_link_batch.py``): decoded
bits, ``ok`` flags and payloads match the scalar loop exactly; float
diagnostics match to rtol ``1e-10``.  Each element's generator draws
happen in the scalar path's order on that element's own ``rngs[b]``
(payload bits -> env drift -> backscatter EVM -> AWGN -> analog
cancellation error), so the contract requires ``rngs`` to be
independent per-element generators (the
:func:`~repro.experiments.engine.spawn_rngs` shape) -- sharing one
generator object across elements interleaves streams differently from
the loop.

Options the batch cannot share -- non-WiFi excitation, interfering
tags, fault plans, tag mobility, the real wake-up detector, client
decode, or elements that disagree on the transmission parameters
(tag id, preamble length, TX power) -- transparently fall back to the
scalar loop.  A batch that falls back for disagreeing elements counts
``link.batch_scalar_fallback`` on the telemetry collector.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..channel.environment import Scene
from ..channel.hardware import (
    PaNonlinearity,
    ar1_drift_params,
    ar1_filter,
    coherence_impairment,
    draw_ar1_innovations,
)
from ..channel.noise import awgn
from ..constants import (
    BACKSCATTER_EVM_COHERENCE_US,
    BACKSCATTER_EVM_RMS,
    SAMPLES_PER_US,
    TAG_PREAMBLE_US,
)
from ..dsp.fastpath import stacked_convolve
from ..tag.tag import BackFiTag
from ..telemetry import get_collector
from .protocol import build_ap_transmission
from .session import SessionResult, run_backscatter_session

__all__ = ["run_exchange_batch"]


def _pad_stack(channels: list[np.ndarray]) -> np.ndarray:
    """Impulse responses stacked to a common tap count.

    Trailing zero taps convolve to nothing, so the padded stack's
    batched convolution equals each channel's scalar convolution up to
    summation order (``stacked_convolve`` accumulates tap-major; the
    extra zero taps contribute exact zeros).
    """
    taps = max(h.size for h in channels)
    out = np.zeros((len(channels), taps), dtype=np.complex128)
    for i, h in enumerate(channels):
        out[i, : h.size] = np.asarray(h, dtype=np.complex128)
    return out


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

    Parameters
    ----------
    psdu:
        The shared downlink WiFi payload bytes.  Required: the batch's
        whole premise is one AP transmission across all elements (draw
        it once with :func:`~repro.wifi.frames.random_payload` and
        reuse it, or forward a sweep's fixed packet).
    rngs:
        One independent generator per element; each element's draws
        land on its own generator in the scalar session's order.
    """
    n = len(scenes)
    if len(tags) != n or len(rngs) != n:
        raise ValueError("scenes, tags and rngs must have equal length")
    if n == 0:
        return []
    psdu = bytes(psdu)

    def _scalar_loop() -> list[SessionResult]:
        return [
            run_backscatter_session(
                scenes[b], tags[b], reader,
                psdu=psdu,
                payload_bits=payload_bits,
                n_payload_bits=n_payload_bits,
                wifi_rate_mbps=wifi_rate_mbps,
                preamble_us=preamble_us,
                pa=pa,
                backscatter_evm=backscatter_evm,
                addressed_tag_id=addressed_tag_id,
                include_cts=include_cts,
                rng=rngs[b],
            )
            for b in range(n)
        ]

    # The timeline is shared only when every element would build the
    # same one; anything element-specific drops to the scalar loop.
    pre_us = preamble_us if preamble_us is not None else \
        getattr(tags[0], "preamble_us", TAG_PREAMBLE_US)
    tid = tags[0].tag_id if addressed_tag_id is None else addressed_tag_id
    shareable = all(
        (addressed_tag_id is not None or t.tag_id == tid)
        and (preamble_us is not None
             or getattr(t, "preamble_us", TAG_PREAMBLE_US) == pre_us)
        for t in tags
    ) and all(s.tx_power_mw == scenes[0].tx_power_mw for s in scenes)
    if not shareable:
        get_collector().count("link.batch_scalar_fallback")
        return _scalar_loop()

    # --- shared AP transmission (built once) ---------------------------
    timeline = build_ap_transmission(
        psdu, wifi_rate_mbps,
        tag_id=tid,
        preamble_us=pre_us,
        tx_power_mw=scenes[0].tx_power_mw,
        include_cts=include_cts,
    )
    x = timeline.samples
    x_pa = pa.apply(x) if pa is not None else x
    n_samp = x.size

    # --- per-element payload draws (first draw in the scalar order) ----
    payloads = []
    for b in range(n):
        bits = payload_bits if payload_bits is not None else \
            rngs[b].integers(0, 2, size=n_payload_bits, dtype=np.uint8)
        payloads.append(bits)

    # --- channels applied to the whole stack ---------------------------
    # Tap-accumulation convolutions (float64-rounding equivalence to
    # the scalar apply_channel; see stacked_convolve).
    def conv(h_stack: np.ndarray, sig: np.ndarray) -> np.ndarray:
        return stacked_convolve(sig, h_stack)[..., :n_samp]

    z_tag = conv(_pad_stack([s.h_f for s in scenes]), x_pa)
    plans = []
    reflections = np.empty((n, n_samp), dtype=np.complex128)
    for b in range(n):
        tags[b].queue_data(payloads[b])
        plan = tags[b].backscatter(z_tag[b],
                                   wake_index=timeline.wifi_start)
        plans.append(plan)
        reflections[b] = plan.reflection
    si = conv(_pad_stack([s.h_env for s in scenes]), x_pa)
    backscatter = conv(_pad_stack([s.h_b for s in scenes]),
                       z_tag * reflections)

    # --- impairments and noise (per-element draws, scalar order) -------
    # The scalar session adds a zero interference vector before the
    # noise; do the same so the float accumulation is identical.
    zero = np.zeros(n_samp, dtype=np.complex128)
    env_keys = {(s.config.env_drift_rms, s.config.env_drift_coherence_us)
                for s in scenes}
    if len(env_keys) == 1:
        # One drift process across the batch (the common sweep-cell
        # shape): draw per element in the scalar order, each straight
        # into its row of the stack, then run both AR(1) recursions and
        # the accumulation as stacked calls.  Each row's recursion and
        # multiply are elementwise-identical to its scalar counterpart,
        # so bits are preserved.
        (env_rms, env_coh_us), = env_keys
        evm_on = backscatter_evm > 0
        if env_rms > 0:
            rho_env, scale_env = ar1_drift_params(
                env_rms, env_coh_us * SAMPLES_PER_US)
            w_env = np.empty((n, n_samp), dtype=np.complex128)
            prev_env = np.empty(n, dtype=np.complex128)
        if evm_on:
            rho_evm, scale_evm = ar1_drift_params(
                backscatter_evm,
                BACKSCATTER_EVM_COHERENCE_US * SAMPLES_PER_US)
            w_evm = np.empty((n, n_samp), dtype=np.complex128)
            prev_evm = np.empty(n, dtype=np.complex128)
        noise = np.empty((n, n_samp), dtype=np.complex128)
        for b in range(n):
            if env_rms > 0:
                _, prev_env[b] = draw_ar1_innovations(
                    n_samp, env_rms, scale_env, rngs[b], out=w_env[b])
            if evm_on:
                _, prev_evm[b] = draw_ar1_innovations(
                    n_samp, backscatter_evm, scale_evm, rngs[b],
                    out=w_evm[b])
            awgn(n_samp, scenes[b].noise_floor_mw, rngs[b], out=noise[b])
        # Keep these products exactly as written: numpy's SIMD complex
        # multiply rounds by operand order, and it evaluates
        # ``si * (1.0 + g)`` in place as ``t *= si`` only when the
        # temporary ``t`` is large enough to elide, so an explicit
        # operand order would change last bits at some stack sizes.
        if env_rms > 0:
            si = si * (1.0 + ar1_filter(w_env, rho_env, prev_env))
        if evm_on:
            backscatter = backscatter * (
                1.0 + ar1_filter(w_evm, rho_evm, prev_evm))
        # si + backscatter + zero + noise, summed in place; into si's
        # buffer when the drift gain gave it a contiguous one of its own.
        y = np.add(si, backscatter, out=si if env_rms > 0 else None)
        y += zero
        y += noise
    else:
        y = np.empty((n, n_samp), dtype=np.complex128)
        for b in range(n):
            cfg = scenes[b].config
            si_b = si[b]
            if cfg.env_drift_rms > 0:
                si_b = si_b * coherence_impairment(
                    n_samp, cfg.env_drift_rms,
                    cfg.env_drift_coherence_us * SAMPLES_PER_US, rngs[b],
                )
            bs_b = backscatter[b]
            if backscatter_evm > 0:
                bs_b = bs_b * coherence_impairment(
                    n_samp, backscatter_evm,
                    BACKSCATTER_EVM_COHERENCE_US * SAMPLES_PER_US, rngs[b],
                )
            noise = awgn(n_samp, scenes[b].noise_floor_mw, rngs[b])
            y[b] = si_b + bs_b + zero + noise

    # --- batched decode ------------------------------------------------
    from ..reader.batch import BatchedDecoder

    results = BatchedDecoder(reader).decode_batch(
        timeline, y, [s.h_env for s in scenes],
        pa_output=x_pa, rngs=list(rngs),
    )
    return [
        SessionResult(
            timeline=timeline,
            plan=plans[b],
            reader=results[b],
            payload_bits=payloads[b],
        )
        for b in range(n)
    ]
