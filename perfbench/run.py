"""End-to-end benchmark of the BackFi reader, batch and streaming paths.

Run from the root of a checkout::

    python3 perfbench/run.py --workload decode-1m --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``decode-1m``,
``cells-near`` and ``serve-50``.  The seed makes every
input; the program under test sees only the generated captures, scenes
and the ``seed=`` scenario override of the served sessions.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
measures half the time untraced and half with ``tracer.py``'s wrappers
installed, and reports the per-layer split: self time per call of each
stage, the ``other_ms`` remainder (stages plus remainder equal the traced
wall time per call), service shares, counts, and the tracing overhead.

Time metrics are calibrated: a fixed pure-numpy kernel is timed between
operations, and every time is reported as ``raw * CALIB_REF_MS /
calib_ms`` (rates inversely), with ``calib_ms`` taken from the kernel
passes around each operation, so a machine that runs slower for a while
moves the kernel and the workload together.  Raw values and the median
``calib_ms`` are printed above the result line.  The benchmark, the
service it starts and BLAS all run on one CPU, the one the kernel times.

The last line of standard output is the result as one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is
non-zero, with no result line, when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CALIB_REF_MS = 1.25
"""Median ``calib_ms`` of the reference machine (2-vCPU x86-64 VM)."""

SETUP_REPEATS = 3
"""Set-up runs per benchmark run; ``setup_s`` is their median."""

WORKLOADS = ("decode-1m", "cells-near", "serve-50")


class Calibrator:
    """A fixed pure-numpy kernel (FFT, matmul, Python loop), no repo code.

    The shared 2-vCPU machines this runs on switch between speed states
    every few seconds (the same code runs ~1.5x slower for a while, and
    much slower under heavy neighbours), and the kernel slows with the
    workload.  So the kernel runs before every operation, and each
    operation is scaled by the ``NEAREST`` passes closest to it in time,
    not by one median for the whole run.

    The FFTs are short (2048 points, in cache): a 16384-point FFT ran
    ~1.4x faster in some processes than in others on the same machine,
    while the workloads did not, which biased whole runs.
    """

    NEAREST = 4

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20150817)
        self._np = np
        self._x = rng.standard_normal(1 << 11) \
            + 1j * rng.standard_normal(1 << 11)
        self._m = rng.standard_normal((160, 160))
        self.samples: list[tuple[float, float]] = []
        """``(midpoint, seconds)`` of every kernel pass, in time order."""

    def once(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        y = self._x
        for _ in range(8):
            y = np.fft.ifft(np.fft.fft(y))
        m = self._m @ self._m.T
        acc = 0
        for k in range(10000):
            acc += k % 7
        t1 = time.perf_counter()
        if not (np.isfinite(y[0]) and np.isfinite(m[0, 0]) and acc):
            raise RuntimeError("calibration kernel produced a bad value")
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        return t1 - t0

    def burst(self, n: int = 5) -> float:
        return sum(self.once() for _ in range(n))

    @property
    def ms(self) -> float:
        return statistics.median(dt for _, dt in self.samples) * 1e3

    def scale_at(self, t: float) -> float:
        """``CALIB_REF_MS / calib_ms``, from the passes nearest ``t``."""
        mids = [m for m, _ in self.samples]
        lo = hi = bisect.bisect_left(mids, t)
        while hi - lo < self.NEAREST and (lo > 0 or hi < len(mids)):
            if lo > 0 and (hi == len(mids)
                           or t - mids[lo - 1] < mids[hi] - t):
                lo -= 1
            else:
                hi += 1
        local = statistics.median(dt for _, dt in self.samples[lo:hi])
        return CALIB_REF_MS / (local * 1e3)


def pin_one_cpu() -> None:
    """Run this process, the service it starts and BLAS on one CPU.

    The calibration kernel then times the CPU that ran the operation; on
    a shared machine two vCPUs can be in different speed states at once.
    Must run before numpy is imported (BLAS reads its thread count then).
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def src_lines() -> int:
    """Lines of Python under ``src/`` (reported beside every run)."""
    return sum(len(p.read_bytes().splitlines())
               for p in (ROOT / "src").rglob("*.py"))


def calibrated_ms(starts, durations_s, calib: Calibrator) -> list[float]:
    """Each duration in ms, scaled by the calibration around it."""
    return [dt * 1e3 * calib.scale_at(t0 + dt / 2)
            for t0, dt in zip(starts, durations_s)]


def end_to_end(phase, setups: list[tuple[float, float]], rss_mb: float,
               calib: Calibrator) -> dict[str, tuple[float, float, str]]:
    """``name -> (calibrated, raw, unit)`` for every end-to-end metric.

    ``setups`` holds ``(seconds, scale)`` per set-up run.  The rate is
    verified exchanges over the summed call times.
    """
    raw_ms = [t * 1e3 for t in phase.latencies_s]
    cal_ms = calibrated_ms(phase.starts, phase.latencies_s, calib)
    verified = phase.attempted - phase.failed
    rate = verified / (sum(raw_ms) / 1e3)
    rate_cal = verified / (sum(cal_ms) / 1e3)
    setup_raw = statistics.median(s for s, _ in setups)
    setup_cal = statistics.median(s * k for s, k in setups)
    return {
        "latency_p50_ms": (percentile(cal_ms, 50), percentile(raw_ms, 50),
                           "ms"),
        "latency_p90_ms": (percentile(cal_ms, 90), percentile(raw_ms, 90),
                           "ms"),
        "exchanges_per_s": (rate_cal, rate, "1/s"),
        "setup_s": (setup_cal, setup_raw, "s"),
        "peak_rss_mb": (rss_mb, rss_mb, "MB"),
    }


def per_layer(traced, loop_stages: dict, loop_calls: dict,
              setup_stages: dict, n_setup_inputs: int,
              stages: tuple[str, ...], overhead: float,
              scale: float) -> tuple[dict, list[tuple]]:
    """Per-layer metrics from a traced phase, plus the printed table rows.

    Times are self time per call (a decode, a cell, a served exchange);
    ``other_ms`` is the traced wall time per call that no stage covers.
    ``decode-1m`` synthesizes its captures in set-up only, so its
    ``synth.*`` and ``link.other`` rows are per capture from a traced
    set-up and are not part of its wall time.  ``overhead`` is the
    traced over the untraced calibrated median latency, minus one.
    Every time is multiplied by ``scale``, the traced calls' median
    calibration factor.
    """
    n_calls = len(traced.latencies_s)
    per_call_ms = 1e3 * scale / n_calls
    wall_ms = statistics.fmean(traced.latencies_s) * 1e3 * scale
    from_setup = set()
    metrics: dict[str, tuple[float, str]] = {}
    covered = 0.0
    for stage in stages:
        loop_ms = loop_stages.get(stage, 0.0) * per_call_ms
        if loop_ms == 0.0 and setup_stages.get(stage):
            metrics[f"{stage}_ms"] = (
                setup_stages[stage] / n_setup_inputs * 1e3 * scale, "ms")
            from_setup.add(stage)
            continue
        metrics[f"{stage}_ms"] = (loop_ms, "ms")
        covered += loop_ms
    metrics["other_ms"] = (wall_ms - covered, "ms")
    metrics["wall_ms"] = (wall_ms, "ms")

    shares = dict.fromkeys(("http", "queue", "mux", "ingest"), 0.0)
    if traced.server_trace:
        per_ex = {k: v * per_call_ms for k, v in loop_stages.items()}
        finish_ms = sum(
            rec["total_s"] for key, rec in
            traced.server_trace["targets"].items()
            if key.endswith(":StreamingDecoder.finish")) * per_call_ms
        http_ms = wall_ms - per_ex.get("wait.announce", 0.0) \
            - per_ex.get("wait.mux_push", 0.0) \
            - per_ex.get("wait.result", 0.0)
        queue_ms = per_ex.get("wait.result", 0.0) - finish_ms
        for name, ms in (("http", http_ms), ("queue", queue_ms),
                         ("mux", per_ex.get("wait.mux_push", 0.0)),
                         ("ingest", per_ex.get("streaming.ingest", 0.0))):
            shares[name] = ms / wall_ms
    for name, share in shares.items():
        metrics[f"service.{name}_frac"] = (share, "frac")

    stats = traced.stats
    per_session = stats.get("per_session", {}).values()
    decoded = sum(s.get("decoded", 0) for s in per_session)
    reuses = sum(s.get("warm_reuses", 0) for s in per_session)
    metrics["reader.sync_groups"] = (statistics.fmean(traced.groups),
                                     "count")
    metrics["reader.recovery_rate"] = (
        traced.recoveries / max(traced.attempted, 1), "frac")
    metrics["streaming.warm_reuse_rate"] = (
        reuses / decoded if decoded else 0.0, "frac")
    for name in ("warm_downgrades", "sheds", "duplicates", "refused"):
        metrics[f"mux.{name}"] = (float(stats.get(name, 0)), "count")
    metrics["trace_overhead_frac"] = (overhead, "frac")

    rows = []
    for stage in stages:
        value = metrics[f"{stage}_ms"][0]
        if stage in from_setup:
            rows.append((stage, value, None, None, "set-up, per capture"))
        else:
            rows.append((stage, value, value / wall_ms,
                         loop_calls.get(stage, 0) / n_calls, ""))
    rows.append(("other", metrics["other_ms"][0],
                 metrics["other_ms"][0] / wall_ms, None,
                 "no stage covers it"))
    if traced.server_trace:
        for name, ms in (("http", http_ms), ("queue", queue_ms)):
            rows.append((f"service.{name}", ms, ms / wall_ms, None,
                         "decomposition of wall, not added"))
    return metrics, rows


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="End-to-end and per-layer benchmark of the BackFi "
                    "reproduction.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    pin_one_cpu()
    import tracer as tracing
    import workloads

    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    wl = workloads.make(args.workload, ROOT, workdir)
    calib = Calibrator()
    half = args.seconds / 2.0
    try:
        calib.burst()
        calib.samples.clear()
        setups = []
        for _ in range(SETUP_REPEATS):
            wl.close()
            first = len(calib.samples)
            calib.burst(3)
            t0 = time.perf_counter()
            wl.setup(args.seed)
            seconds = time.perf_counter() - t0
            calib.burst(3)
            local = statistics.median(
                dt for _, dt in calib.samples[first:])
            setups.append((seconds, CALIB_REF_MS / (local * 1e3)))
        wl.warmup()
        if not args.trace:
            phase = wl.run(args.seconds, calib)
            rss_mb = wl.peak_rss_mb()
        else:
            untraced = wl.run(half, calib)
            rss_mb = wl.peak_rss_mb()
            if isinstance(wl, workloads.ServeWorkload):
                traced = wl.run_traced(half, args.seed, calib)
                setup_stages: dict = {}
                loop_stages, loop_calls = tracing.by_stage(
                    traced.server_trace["targets"])
                missing = traced.server_trace["missing"]
            else:
                tr = tracing.Tracer().install()
                try:
                    wl.setup(args.seed)
                    setup_stages, _ = tracing.by_stage(tr.snapshot())
                    tr.reset()
                    traced = wl.run(half, calib)
                    loop_stages, loop_calls = tracing.by_stage(
                        tr.snapshot())
                finally:
                    tr.restore()
                missing = tr.missing
            phase = untraced
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    scale = CALIB_REF_MS / calib.ms
    exits = getattr(wl, "exit_codes", [])
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"src_lines={src_lines()}")
    print(f"  calib_ms {calib.ms:.4f} median (ref {CALIB_REF_MS}, "
          f"{len(calib.samples)} passes, whole-run scale {scale:.4f})")
    e2e = end_to_end(phase, setups, rss_mb, calib)
    for name, (value, raw, unit) in e2e.items():
        print(f"  {name:<16} {value:12.4f} {unit:<4} (raw {raw:.4f})")
    print(f"  calls {len(phase.latencies_s)}, exchanges attempted "
          f"{phase.attempted}, failed {phase.failed}, wrong {phase.wrong}")
    if phase.ack_s:
        ack = calibrated_ms(phase.ack_starts, phase.ack_s, calib)
        print(f"  chunk ack p50 {percentile(ack, 50):.4f} ms, "
              f"p99 {percentile(ack, 99):.4f} ms "
              f"({len(ack)} non-final chunk POSTs, calibrated)")
    if exits:
        print(f"  server exit codes {exits}")

    attempted, failed = phase.attempted, phase.failed
    if args.trace:
        overhead = percentile(
            calibrated_ms(traced.starts, traced.latencies_s, calib), 50) \
            / percentile(calibrated_ms(untraced.starts,
                                       untraced.latencies_s, calib), 50) - 1
        traced_scale = statistics.median(
            calib.scale_at(t0 + dt / 2)
            for t0, dt in zip(traced.starts, traced.latencies_s))
        metrics, rows = per_layer(traced, loop_stages, loop_calls,
                                  setup_stages, wl.n_inputs,
                                  tracing.STAGES, overhead, traced_scale)
        attempted += traced.attempted
        failed += traced.failed
        print(f"  traced: {len(traced.latencies_s)} calls, wall "
              f"{metrics['wall_ms'][0]:.4f} ms per call; times calibrated "
              f"(scale {traced_scale:.4f})")
        print(f"    {'stage':<20} {'self ms':>10}    {'share':>7} "
              f"{'calls':>6}")
        for stage, ms, share, calls, note in rows:
            pct = f"{share * 100:6.1f}%" if share is not None else ""
            per = f"{calls:6.2f}" if calls is not None else ""
            print(f"    {stage:<20} {ms:10.4f} ms {pct:>7} {per:>6}  {note}")
        for name, (value, unit) in metrics.items():
            if unit != "ms":
                print(f"    {name:<28} {value:.4f} {unit}")
        if missing:
            print(f"  tracer targets not found: {', '.join(missing)}")
        out = {name: {"value": v, "unit": u}
               for name, (v, u) in metrics.items()}
    else:
        out = {name: {"value": v, "unit": u}
               for name, (v, _, u) in e2e.items()}
    # Correct: no decode claimed a payload other than the one sent, and
    # every service exited cleanly.  Failed exchanges are counted apart.
    wrong = phase.wrong + (traced.wrong if args.trace else 0)
    correct = attempted >= 1 and wrong == 0 \
        and all(code == 0 for code in exits)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
