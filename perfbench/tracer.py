"""Self-time tracing of the program's layer entry points, from outside.

The benchmark measures its end-to-end metrics untraced.  A traced run
then wraps the functions listed in :data:`TARGETS` -- each looked up where
its caller finds it, so ``from .sync import find_tag_timing`` is traced
in the importing module's namespace -- and charges every call's *self*
time (its duration minus the wrapped calls nested inside it, tracked per
thread) to a named stage.  :meth:`Tracer.restore` puts every original
back.

Coroutine functions cannot share a per-thread nesting stack (their calls
interleave on one event loop), so their wrappers record inclusive
wall time only; their stages start with ``wait.`` and are kept out of
the self-time sums.

A target whose module or attribute no longer exists is skipped and
listed in :attr:`Tracer.missing`, so a refactor of the program degrades
the per-stage split instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

# (module, attribute, stage).  ``attribute`` may be ``Class.method``.
TARGETS: tuple[tuple[str, str, str], ...] = (
    # -- exchange synthesis (link, tag, channel) ------------------------
    ("repro.link.session", "synthesize_exchange", "link.other"),
    ("repro.streaming.session", "synthesize_exchange", "link.other"),
    ("repro.link.batch", "run_exchange_batch", "link.other"),
    ("repro.link.session", "build_ap_transmission", "synth.ap_tx"),
    ("repro.link.batch", "build_ap_transmission", "synth.ap_tx"),
    ("repro.tag.tag", "BackFiTag.backscatter", "synth.backscatter"),
    ("repro.link.session", "apply_channel", "synth.channel"),
    ("repro.link.batch", "stacked_convolve", "synth.channel"),
    ("repro.link.session", "coherence_impairment", "synth.impair"),
    ("repro.link.batch", "coherence_impairment", "synth.impair"),
    ("repro.link.batch", "draw_ar1_innovations", "synth.impair"),
    ("repro.link.session", "awgn", "synth.noise"),
    ("repro.link.batch", "awgn", "synth.noise"),
    # -- reader pipeline: scalar, batched and streamed entry points -----
    ("repro.reader.reader", "BackFiReader.decode", "reader.other"),
    ("repro.reader.batch", "BatchedDecoder.decode_batch", "reader.other"),
    ("repro.streaming.decoder", "StreamingDecoder.finish", "reader.other"),
    ("repro.reader.cancellation", "SelfInterferenceCanceller.cancel",
     "reader.cancel"),
    ("repro.reader.cancellation", "SelfInterferenceCanceller.begin",
     "reader.cancel"),
    ("repro.reader.cancellation", "StagedCancellation.finish",
     "reader.cancel"),
    ("repro.reader.cancellation", "AnalogCanceller.tuned_taps",
     "reader.cancel"),
    ("repro.reader.batch", "stacked_convolve", "reader.cancel"),
    ("repro.reader.batch", "ls_channel_estimate", "reader.cancel"),
    ("repro.reader.reader", "find_tag_timing", "reader.sync"),
    ("repro.reader.batch", "BatchPreambleSolver", "reader.sync"),
    ("repro.reader.fastpath", "BatchPreambleSolver.evaluate", "reader.sync"),
    ("repro.reader.batch", "replay_offset_selection", "reader.sync"),
    ("repro.reader.sync", "estimate_combined_channel", "reader.chanest"),
    ("repro.reader.batch", "estimate_combined_channel_group",
     "reader.chanest"),
    ("repro.reader.reader", "expected_template", "reader.mrc"),
    ("repro.reader.reader", "mrc_combine", "reader.mrc"),
    ("repro.reader.batch", "_mrc_combine", "reader.mrc"),
    ("repro.reader.decoder", "psk_soft_llrs", "reader.demod"),
    ("repro.reader.batch", "psk_soft_llrs", "reader.demod"),
    ("repro.reader.decoder", "viterbi_decode_soft", "coding.viterbi"),
    ("repro.reader.batch", "viterbi_decode_soft_batch", "coding.viterbi"),
    ("repro.reader.decoder", "parse_frame_bits", "link.frames"),
    ("repro.reader.batch", "parse_frame_bits", "link.frames"),
    # -- streaming service ----------------------------------------------
    ("repro.streaming.decoder", "StreamingDecoder.push", "streaming.ingest"),
    ("repro.streaming.mux", "SessionMultiplexer.start_exchange",
     "wait.announce"),
    ("repro.streaming.mux", "SessionMultiplexer.push_chunk", "wait.mux_push"),
    ("repro.streaming.mux", "SessionMultiplexer.wait_result", "wait.result"),
)

STAGES: tuple[str, ...] = (
    "synth.ap_tx", "synth.backscatter", "synth.channel", "synth.impair",
    "synth.noise", "link.other",
    "reader.cancel", "reader.sync", "reader.chanest", "reader.mrc",
    "reader.demod", "coding.viterbi", "link.frames", "reader.other",
)
"""Self-time stages on an exchange's blocking path, in pipeline order.

``streaming.ingest`` is left out: the service ingests a chunk while the
client sends the next one, so it is reported as a share of the exchange
instead (with the ``wait.`` stages)."""


class Tracer:
    """Wraps :data:`TARGETS`-style entries and accumulates per-call time."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.reset()

    # -- accounting ------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter (the wrappers stay installed)."""
        with self._lock:
            self.calls: dict[str, int] = {}
            self.self_s: dict[str, float] = {}
            self.total_s: dict[str, float] = {}

    def _record(self, key: str, self_t: float, total_t: float) -> None:
        with self._lock:
            self.calls[key] = self.calls.get(key, 0) + 1
            self.self_s[key] = self.self_s.get(key, 0.0) + self_t
            self.total_s[key] = self.total_s.get(key, 0.0) + total_t

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Per-target ``{calls, self_s, total_s}`` keyed ``stage|target``."""
        with self._lock:
            return {key: {"calls": self.calls[key],
                          "self_s": self.self_s[key],
                          "total_s": self.total_s[key]}
                    for key in self.calls}

    # -- wrapping --------------------------------------------------------

    def _wrap_sync(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                total = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += total
                tracer._record(key, total - child, total)

        return traced

    def _wrap_async(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                total = time.perf_counter() - t0
                tracer._record(key, total, total)

        return traced

    def install(self, targets=TARGETS) -> "Tracer":
        """Wrap every resolvable target once; unresolvable ones go to
        :attr:`missing`."""
        seen: set[tuple[int, str]] = set()
        for module_name, attr, stage in targets:
            label = f"{module_name}:{attr}"
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(label)
                continue
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = None if owner is None else \
                inspect.getattr_static(owner, name, None)
            if raw is None:
                self.missing.append(label)
                continue
            if (id(owner), name) in seen:
                continue
            seen.add((id(owner), name))
            key = f"{stage}|{label}"
            if isinstance(raw, staticmethod):
                fn, rewrap = raw.__func__, staticmethod
            elif isinstance(raw, classmethod):
                fn, rewrap = raw.__func__, classmethod
            else:
                fn, rewrap = raw, None
            if inspect.iscoroutinefunction(fn):
                wrapped = self._wrap_async(fn, key)
            elif callable(fn):
                wrapped = self._wrap_sync(fn, key)
            else:
                self.missing.append(label)
                continue
            setattr(owner, name, rewrap(wrapped) if rewrap else wrapped)
            self._patches.append((owner, name, raw))
        return self

    def restore(self) -> None:
        """Put every original attribute back, newest patch first."""
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)



def by_stage(snapshot: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds and calls per stage from :meth:`Tracer.snapshot`
    (``wait.`` stages: inclusive seconds)."""
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    for key, rec in snapshot.items():
        stage = key.split("|", 1)[0]
        seconds[stage] = seconds.get(stage, 0.0) + rec["self_s"]
        calls[stage] = calls.get(stage, 0) + rec["calls"]
    return seconds, calls
