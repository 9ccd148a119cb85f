"""Micro-benchmarks for the fast-path DSP kernels.

Times each tracked hot kernel in both its fast form and its direct
reference form on realistic operand sizes (the default 20 Msps packet),
reporting median wall time and the fast/direct speedup.  The direct
forms of the DSP kernels are the test oracles in
``tests/dsp_oracle.py``.  The speedup ratio -- both forms measured
back-to-back on the same machine -- is the number the CI perf gate
tracks, because absolute milliseconds are not comparable across
runners.

Usage::

    python benchmarks/bench_hotpaths.py                # table to stdout
    python benchmarks/bench_hotpaths.py --json out.json
    python benchmarks/bench_hotpaths.py --kernels fine_timing_search

Feed the JSON to ``tools/perf_report.py`` to build or check the
committed ``BENCH_hotpaths.json`` baseline (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from dsp_oracle import (
    correlate_valid_direct,
    estimate_combined_channel_svd,
    find_tag_timing_direct,
    normalized_cross_correlation_direct,
    sequence_direct,
)
from repro.channel import Scene
from repro.channel.multipath import apply_channel
from repro.channel.noise import awgn
from repro.coding.scrambler import scrambler_sequence
from repro.dsp.correlation import (
    normalized_cross_correlation,
    sliding_correlation,
)
from repro.dsp.fastpath import fast_convolve
from repro.link.protocol import build_ap_transmission
from repro.reader.batch import BatchedDecoder
from repro.reader.cancellation import DigitalCanceller, ls_channel_estimate
from repro.reader.reader import BackFiReader
from repro.reader.sync import find_tag_timing
from repro.tag import BackFiTag, tag_preamble_phases
from repro.tag.config import TagConfig
from repro.wifi import random_payload

SCHEMA = 1


def _median_ms(fn, repeats: int) -> float:
    """Median wall time of ``fn()`` over ``repeats`` runs, in ms."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def _fast_vs_direct(fast, direct, repeats: int) -> dict[str, float]:
    """Time the ``fast`` form, then the ``direct`` one."""
    fast_ms = _median_ms(fast, repeats)
    direct_ms = _median_ms(direct, repeats)
    return {
        "fast_ms": round(fast_ms, 4),
        "direct_ms": round(direct_ms, 4),
        "speedup": round(direct_ms / max(fast_ms, 1e-9), 3),
    }


def _make_frame(rng: np.random.Generator):
    """One AP packet with a backscatter reflection (no cancellers)."""
    tl = build_ap_transmission(random_payload(1500, rng), 24,
                               include_cts=False, preamble_us=32.0)
    x = tl.samples
    h_fb = np.array([0.02, 0.008 - 0.004j, 0.002j])
    preamble = tag_preamble_phases(32.0)
    refl = np.zeros(x.size, dtype=complex)
    start = tl.nominal_preamble_start + 5
    refl[start:start + preamble.size] = preamble
    y = np.convolve(x, h_fb)[: x.size] * refl
    y = y + (rng.standard_normal(x.size)
             + 1j * rng.standard_normal(x.size)) * np.sqrt(1e-8 / 2)
    return tl, x, y


def bench_fine_timing_search(repeats: int) -> dict[str, float]:
    """Full fine-timing search: batched solver vs per-offset SVD."""
    rng = np.random.default_rng(3)
    tl, x, y = _make_frame(rng)
    nominal = tl.nominal_preamble_start
    return _fast_vs_direct(
        lambda: find_tag_timing(x, y, nominal, 32.0),
        lambda: find_tag_timing_direct(
            x, y, nominal, 32.0, estimator=estimate_combined_channel_svd),
        repeats)


def _make_cancel_problem():
    """Default-size digital-cancellation inputs (24 taps, 1500 B frame)."""
    rng = np.random.default_rng(5)
    tl, x, _ = _make_frame(rng)
    h_resid = 1e-3 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    residual = np.convolve(x, h_resid)[: x.size]
    residual = residual + (rng.standard_normal(x.size)
                           + 1j * rng.standard_normal(x.size)) * 1e-6
    silent = BackFiReader.silent_rows(tl)
    return x, residual, silent


def bench_digital_cancellation(repeats: int) -> dict[str, float]:
    """The silent-period LS channel fit: normal equations vs SVD.

    This is the kernel the fast path rewrites; the packet-long
    subtraction that completes a cancel pass is benchmarked separately
    as ``digital_cancel_full`` because its reconstruction convolution is
    below the FFT crossover and costs the same on both paths.
    """
    x, residual, silent = _make_cancel_problem()
    canceller = DigitalCanceller()
    return _fast_vs_direct(
        lambda: canceller.estimate(x, residual, silent),
        lambda: ls_channel_estimate(x, residual, canceller.n_taps,
                                    rows=silent, method="lstsq"),
        repeats)


def bench_digital_cancel_full(repeats: int) -> dict[str, float]:
    """End-to-end cancel: fit + full-packet reconstruct-and-subtract."""
    x, residual, silent = _make_cancel_problem()
    canceller = DigitalCanceller()

    def direct():
        h = ls_channel_estimate(x, residual, canceller.n_taps, rows=silent,
                                method="lstsq")
        return residual - fast_convolve(x, h)[: residual.size], h

    return _fast_vs_direct(
        lambda: canceller.cancel(x, residual, silent), direct, repeats)


def bench_sliding_correlation(repeats: int) -> dict[str, float]:
    """Long-template correlation: overlap-save FFT vs the C loop."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16)
    t = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    return _fast_vs_direct(lambda: sliding_correlation(x, t),
                           lambda: correlate_valid_direct(x, t), repeats)


def bench_normalized_cross_correlation(repeats: int) -> dict[str, float]:
    """Detection metric on the same long-template geometry."""
    rng = np.random.default_rng(13)
    x = rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16)
    t = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    return _fast_vs_direct(
        lambda: normalized_cross_correlation(x, t),
        lambda: normalized_cross_correlation_direct(x, t), repeats)


def bench_scrambler_sequence(repeats: int) -> dict[str, float]:
    """127-periodic table lookup vs the stepwise LFSR loop."""
    n = 4096
    return _fast_vs_direct(lambda: scrambler_sequence(n),
                           lambda: sequence_direct(n, 0x7F), repeats)


def bench_batched_decode(repeats: int) -> dict[str, float]:
    """100-exchange decode: one stacked batch vs the per-exchange loop.

    Both forms run the same DSP kernels -- the ratio measures batching
    alone (shared Gram factorisations, one batched
    Viterbi sweep) on the multi-tag simulator's calibration workload.
    Seconds-scale per run, so the repeat count is capped.
    """
    n_batch = 100
    cfg = TagConfig("qpsk", "1/2", 1e6)
    rng = np.random.default_rng(77)
    psdu = random_payload(300, rng)
    scene0 = Scene.build(tag_distance_m=1.0, rng=np.random.default_rng(0))
    tl = build_ap_transmission(psdu, 24, include_cts=False,
                               tx_power_mw=scene0.tx_power_mw)
    x = tl.samples
    rx = np.empty((n_batch, x.size), dtype=np.complex128)
    h_envs = []
    for b in range(n_batch):
        srng = np.random.default_rng(1000 + b)
        scene = Scene.build(tag_distance_m=1.0 + 0.02 * b, rng=srng)
        tag = BackFiTag(cfg)
        tag.queue_data(srng.integers(0, 2, size=600, dtype=np.uint8))
        z_tag = apply_channel(scene.h_f, x)
        plan = tag.backscatter(z_tag, wake_index=tl.wifi_start)
        rx[b] = (apply_channel(scene.h_env, x)
                 + apply_channel(scene.h_b, z_tag * plan.reflection)
                 + awgn(x.size, scene.noise_floor_mw, srng))
        h_envs.append(scene.h_env)
    reader = BackFiReader(cfg)
    decoder = BatchedDecoder(reader)

    def rngs():
        return [np.random.default_rng(5000 + b) for b in range(n_batch)]

    return _fast_vs_direct(
        lambda: decoder.decode_batch(tl, rx, h_envs, rngs=rngs()),
        lambda: [reader.decode(tl, rx[b], h_envs[b], rng=r)
                 for b, r in enumerate(rngs())],
        min(repeats, 5))


def _sweep_cell_trial(args) -> tuple[bool, float]:
    """One per-trial sweep element (the process-pool arm's task)."""
    from repro.link.session import run_backscatter_session

    b, psdu = args
    cfg = TagConfig("qpsk", "1/2", 1e6)
    scene = Scene.build(tag_distance_m=1.0 + 0.025 * b,
                        rng=np.random.default_rng(1000 + b))
    out = run_backscatter_session(scene, BackFiTag(cfg), BackFiReader(cfg),
                                  psdu=psdu,
                                  rng=np.random.default_rng(5000 + b))
    return bool(out.reader.ok), float(out.reader.symbol_snr_db)


def bench_batched_sweep_cell(repeats: int) -> dict[str, float]:
    """A 32-element sweep cell: one batched exchange vs per-trial pool.

    The fast form runs the whole cell in-process through
    :func:`repro.link.run_exchange_batch` (one AP transmission, stacked
    channel convolutions, one batched decode); the direct form is the
    engine's per-trial fan-out -- one
    :func:`~repro.link.session.run_backscatter_session` task per element
    through a warmed 2-worker process pool, the crash-isolated fallback
    the engine keeps for cells the batch cannot share.  Seconds-scale
    per run, so the repeat count is capped.
    """
    from repro.experiments.engine import (
        ExperimentEngine,
        parallel_map,
        use_engine,
    )
    from repro.link import run_exchange_batch

    n_cell = 32
    cfg = TagConfig("qpsk", "1/2", 1e6)
    psdu = random_payload(1500, np.random.default_rng(42))
    tasks = [(b, psdu) for b in range(n_cell)]

    def fast_cell():
        scenes = [Scene.build(tag_distance_m=1.0 + 0.025 * b,
                              rng=np.random.default_rng(1000 + b))
                  for b in range(n_cell)]
        tags = [BackFiTag(cfg) for _ in range(n_cell)]
        rngs = [np.random.default_rng(5000 + b) for b in range(n_cell)]
        return run_exchange_batch(scenes, tags, BackFiReader(cfg),
                                  psdu=psdu, rngs=rngs)

    repeats = min(repeats, 5)
    engine = ExperimentEngine(jobs=2, cache=False)
    try:
        fast_cell()  # warm caches/deferred imports, matching the pool warm-up
        fast_ms = _median_ms(fast_cell, repeats)
        with use_engine(engine):
            parallel_map(_sweep_cell_trial, tasks[:2])  # warm the pool
            direct_ms = _median_ms(
                lambda: parallel_map(_sweep_cell_trial, tasks), repeats)
    finally:
        engine.close()
    return {
        "fast_ms": round(fast_ms, 4),
        "direct_ms": round(direct_ms, 4),
        "speedup": round(direct_ms / max(fast_ms, 1e-9), 3),
    }


def bench_streaming_warm_session(repeats: int) -> dict[str, float]:
    """A 4-exchange streaming session: warm decodes vs cold decodes.

    The fast form carries cancellation/sync state across the session's
    exchanges (analog board trim held, digital taps reused while they
    pass the held-out residual gate, sync recentred on the previous
    offset); the direct form decodes every exchange cold.  Both run
    through :class:`repro.streaming.decoder.StreamingDecoder`, so the
    ratio isolates the warm-start machinery.
    """
    from repro.streaming import CaptureSource, StreamingDecoder
    from repro.streaming.session import exchange_rngs

    n_exchanges = 4
    src = CaptureSource("streaming-50")
    built = src.built
    caps = [src.next_exchange()[0] for _ in range(n_exchanges)]
    chunk = 4096

    def run_session(warm: bool):
        decoder = StreamingDecoder(built.reader, warm_start=warm)
        for i, cap in enumerate(caps):
            _, rng = exchange_rngs(src.scenario.seed, i)
            decoder.decode_chunks(
                cap.timeline, built.scene.h_env,
                [cap.rx[s:s + chunk]
                 for s in range(0, cap.n_samples, chunk)],
                pa_output=cap.x_pa, rng=rng)

    return _fast_vs_direct(lambda: run_session(True),
                           lambda: run_session(False), repeats)


def bench_streaming_mux(repeats: int) -> dict[str, float]:
    """50 concurrent streaming sessions through the multiplexer.

    The fast form pushes one exchange into each of 50 concurrently-open
    multiplexer sessions (chunked ingest on the event loop, frame-
    barrier decodes fanned out to the thread pool); the direct form
    decodes the same 50 captures sequentially through the batch reader.
    The extra ``sessions_per_sec`` key is the service-level throughput
    number ``docs/STREAMING.md`` quotes; the perf gate tracks the
    speedup ratio like every other kernel.
    """
    import asyncio

    from repro.scenario import StreamingConfig
    from repro.streaming import CaptureSource, SessionMultiplexer

    n_sessions = 50
    src = CaptureSource("streaming-50")
    built = src.built
    cap, _ = src.next_exchange()
    chunk = 4096
    chunks = [cap.rx[s:s + chunk]
              for s in range(0, cap.n_samples, chunk)]

    loop = asyncio.new_event_loop()
    cfg = StreamingConfig(max_sessions=n_sessions, chunk_samples=chunk)
    mux = SessionMultiplexer(cfg)

    async def setup():
        await mux.start()
        sids = []
        for _ in range(n_sessions):
            session = await mux.open_session(src.scenario)
            sids.append(session.id)
        return sids

    async def one_exchange(sid: str):
        await mux.start_attached_exchange(
            sid, cap.timeline, built.scene.h_env,
            pa_output=cap.x_pa, rng=np.random.default_rng(9))
        for c in chunks:
            await mux.push_chunk(sid, c)
        await mux.wait_result(sid)

    async def one_round(sids):
        await asyncio.gather(*[one_exchange(sid) for sid in sids])

    repeats = min(repeats, 5)
    try:
        sids = loop.run_until_complete(setup())
        fast_ms = _median_ms(
            lambda: loop.run_until_complete(one_round(sids)), repeats)
        direct_ms = _median_ms(
            lambda: [built.reader.decode(cap.timeline, cap.rx,
                                         built.scene.h_env,
                                         pa_output=cap.x_pa,
                                         rng=np.random.default_rng(9))
                     for _ in range(n_sessions)],
            repeats)
    finally:
        loop.run_until_complete(mux.aclose())
        loop.close()
    return {
        "fast_ms": round(fast_ms, 4),
        "direct_ms": round(direct_ms, 4),
        "speedup": round(direct_ms / max(fast_ms, 1e-9), 3),
        "sessions_per_sec": round(n_sessions / (fast_ms / 1e3), 1),
    }


KERNELS = {
    "fine_timing_search": bench_fine_timing_search,
    "digital_cancellation": bench_digital_cancellation,
    "digital_cancel_full": bench_digital_cancel_full,
    "sliding_correlation": bench_sliding_correlation,
    "normalized_cross_correlation": bench_normalized_cross_correlation,
    "scrambler_sequence": bench_scrambler_sequence,
    "batched_decode": bench_batched_decode,
    "batched_sweep_cell": bench_batched_sweep_cell,
    "streaming_warm_session": bench_streaming_warm_session,
    "streaming_mux": bench_streaming_mux,
}

def run_suite(kernels: list[str], repeats: int) -> dict:
    """Run the selected kernels; returns the bench JSON document."""
    results = {name: KERNELS[name](repeats) for name in kernels}
    return {"schema": SCHEMA, "kind": "bench_hotpaths",
            "repeats": repeats, "kernels": results}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernels", default=",".join(KERNELS),
                        help="comma-separated kernel subset "
                             f"(default: all of {', '.join(KERNELS)})")
    parser.add_argument("--repeats", type=int, default=15,
                        help="timed runs per kernel variant (median taken)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the results as JSON")
    args = parser.parse_args(argv)

    names = [k.strip() for k in args.kernels.split(",") if k.strip()]
    unknown = [k for k in names if k not in KERNELS]
    if unknown:
        parser.error(f"unknown kernels: {', '.join(unknown)}")

    doc = run_suite(names, args.repeats)
    width = max(len(n) for n in names)
    print(f"{'kernel'.ljust(width)}  {'fast ms':>9}  {'direct ms':>9}  "
          f"{'speedup':>7}")
    for name in names:
        r = doc["kernels"][name]
        print(f"{name.ljust(width)}  {r['fast_ms']:9.3f}  "
              f"{r['direct_ms']:9.3f}  {r['speedup']:6.2f}x")
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
