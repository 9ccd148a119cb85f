"""Fine timing recovery for the tag's backscatter (paper Sec. 4.1).

The reader controls the protocol timeline, so it knows *nominally* when
the tag's silent period, preamble and data start.  The tag's wake-up
detector, however, fires with a small uncertainty (up to a microsecond of
comparator/decision latency).  The reader therefore searches a window of
candidate offsets and picks the one whose LS channel fit to the known
preamble leaves the smallest residual -- equivalent to correlating with
the PN preamble, but reusing the estimator we already have.

Two implementations of the search share identical selection logic:

* the **fast path** (default) scores every candidate offset through
  :class:`~repro.reader.fastpath.BatchPreambleSolver` on a stack of one
  -- chip-comb tables built once, then one batched normal-equation
  solve per sweep -- and runs the full SVD estimator exactly once, at
  the winning offset;
* the **direct path** (``fast=False``, or ``REPRO_FASTPATH=0``) runs
  :func:`estimate_combined_channel` at every candidate, as the original
  pipeline did.  It is kept as the reference for the equivalence suite
  and for the perf benchmarks.

Both paths return the same winning offset on the tier-1 scenarios
(asserted by ``tests/test_fastpath.py``), and the returned
:class:`ChannelEstimate` always comes from the reference estimator, so
everything downstream of sync is bit-identical between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import SAMPLES_PER_US
from ..dsp.fastpath import fastpath_enabled
from ..telemetry import get_collector
from .channel_est import (
    ChannelEstimate,
    estimate_combined_channel,
    preamble_condition_number,
)
from .fastpath import BatchPreambleSolver

__all__ = ["SyncResult", "find_tag_timing", "replay_offset_selection"]


@dataclass(frozen=True)
class SyncResult:
    """Outcome of the fine timing search."""

    preamble_start: int
    offset_samples: int
    estimate: ChannelEstimate
    metric: float


def find_tag_timing(
    x: np.ndarray,
    y_clean: np.ndarray,
    nominal_preamble_start: int,
    preamble_us: float,
    *,
    search_us: float = 2.0,
    step_samples: int = 4,
    n_taps: int = 8,
    preamble_seed: int = 0x35,
    fast: bool | None = None,
) -> SyncResult:
    """Search +-``search_us`` around the nominal preamble start.

    The metric is the normalised LS residual: sharper (smaller) when the
    assumed chip boundaries line up with the tag's actual switching
    instants.  A final pass refines to single-sample resolution.

    ``fast=None`` follows the global switch
    (:func:`repro.dsp.fastpath.fastpath_enabled`); ``True``/``False``
    force the batched normal-equation sweep or the per-offset SVD
    reference respectively.
    """
    search = int(search_us * SAMPLES_PER_US)
    if step_samples < 1:
        raise ValueError("step must be >= 1")
    if fast is None:
        fast = fastpath_enabled()
    tm = get_collector()
    n_evaluated = 0

    def penalty(start: int) -> float:
        # A gentle prior toward the nominal timing: for wideband
        # excitations the residual contrast is orders of magnitude, so
        # this never changes the answer; for narrowband excitations
        # (BLE/Zigbee) whose autocorrelation makes the metric nearly
        # flat, it pins the flat region to the protocol timeline.
        off = abs(start - nominal_preamble_start)
        return 1.0 + 0.005 * off

    if fast:
        # Every candidate the coarse sweep, refinement and boundary walk
        # can visit lies inside this window; the solver only builds its
        # tables over the rows the window can touch.
        window = (nominal_preamble_start - search - step_samples,
                  nominal_preamble_start + search + n_taps
                  + 2 * step_samples)
        solver = BatchPreambleSolver(
            x, np.asarray(y_clean)[None], preamble_us, n_taps=n_taps,
            preamble_seed=preamble_seed, start_window=window)

        def metric_batch(offsets: list[int]) -> list[float | None]:
            """Fast metric (or None = infeasible) per candidate offset."""
            nonlocal n_evaluated
            n_evaluated += len(offsets)
            starts = nominal_preamble_start + np.asarray(offsets)
            feasible, residual_power, gain = (
                a[0] for a in solver.evaluate(starts))
            return [
                float(residual_power[i] / gain[i]
                      * penalty(int(starts[i]))) if feasible[i] else None
                for i in range(len(offsets))
            ]
    else:
        estimates: dict[int, ChannelEstimate] = {}

        def metric_one(start: int) -> float | None:
            nonlocal n_evaluated
            n_evaluated += 1
            if start < 0:
                return None
            try:
                est = estimate_combined_channel(
                    x, y_clean, start, preamble_us,
                    n_taps=n_taps, preamble_seed=preamble_seed,
                )
            except ValueError:
                return None
            if est.gain <= 0:
                return None
            estimates[start] = est
            return est.residual_power / est.gain * penalty(start)

        def metric_batch(offsets: list[int]) -> list[float | None]:
            return [metric_one(nominal_preamble_start + off)
                    for off in offsets]

    with tm.span("sync") as sp:
        # Coarse sweep at step_samples resolution.
        coarse_offs = list(range(-search, search + 1, step_samples))
        best: tuple[float, int] | None = None
        for off, m in zip(coarse_offs, metric_batch(coarse_offs)):
            if m is None:
                continue
            if best is None or m < best[0]:
                best = (m, off)
        if best is None:
            sp.probe("candidates", n_evaluated)
            raise ValueError("no feasible timing offset found")

        # Refine around the coarse winner at single-sample resolution.
        coarse_off = best[1]
        refine_offs = [off for off in range(coarse_off - step_samples + 1,
                                            coarse_off + step_samples)
                       if off != coarse_off]
        for off, m in zip(refine_offs, metric_batch(refine_offs)):
            if m is not None and m < best[0]:
                best = (m, off)

        # The LS fit is invariant to starting up to n_taps-1 samples
        # early (the shift is absorbed as leading delay taps), so the
        # metric is flat on the early side and cliffs on the late side.
        # Walk forward to the latest offset that still fits -- the true
        # chip boundary.  The late-side cliff is orders of magnitude, so
        # this factor cannot overshoot the boundary for wideband
        # excitations; the timing prior bounds the walk for narrowband
        # ones.
        tol = 1.5 * best[0] + 1e-30
        walk_offs = [best[1] + 1 + i for i in range(n_taps + step_samples)]
        for off, m in zip(walk_offs, metric_batch(walk_offs)):
            if m is None or m > tol:
                break
            best = (m, off)

        m, off = best
        start = nominal_preamble_start + off
        if fast:
            # One reference-estimator run at the winner, so the returned
            # estimate (and everything downstream) is identical to the
            # direct path's.
            est = estimate_combined_channel(
                x, y_clean, start, preamble_us,
                n_taps=n_taps, preamble_seed=preamble_seed,
            )
            m = est.residual_power / max(est.gain, 1e-300) * penalty(start)
        else:
            est = estimates[start]
        sp.probe("offset_samples", off)
        sp.probe("metric", m)
        sp.probe("candidates", n_evaluated)
        sp.probe("search_samples", 2 * search + 1)
        sp.probe("fast_path", fast)

    # Report the winning estimate's quality as its own stage: in the
    # pipeline story channel estimation is a distinct step even though
    # the search above computes it as a by-product.
    with tm.span("channel_est") as sp:
        sp.probe("gain_db", 10.0 * np.log10(max(est.gain, 1e-30)))
        sp.probe("residual_power", est.residual_power)
        sp.probe("snr_estimate_db", est.snr_estimate_db())
        sp.probe("n_rows", est.n_rows)
        sp.probe("n_taps", int(est.h_fb.size))
        if tm.enabled:
            # An extra SVD -- only worth it when someone is listening.
            sp.probe("condition_number", preamble_condition_number(
                x, nominal_preamble_start + off, preamble_us,
                n_taps=n_taps,
            ))

    return SyncResult(
        preamble_start=nominal_preamble_start + off,
        offset_samples=off,
        estimate=est,
        metric=m,
    )


def replay_offset_selection(feasible: np.ndarray, metric: np.ndarray,
                            grid0: int, search: int, step: int,
                            n_taps: int) -> tuple[float, int] | None:
    """Replay :func:`find_tag_timing`'s selection on a metric table.

    ``metric[off - grid0]`` holds the (penalised) metric for candidate
    offset ``off`` and ``feasible`` masks valid entries.  The selection
    logic -- coarse sweep order, strict-less tie-breaks, single-sample
    refinement, the 1.5x boundary-walk tolerance -- is the verbatim walk
    from :func:`find_tag_timing`, factored out so batched decoders that
    precompute the whole candidate grid (one
    :class:`~repro.reader.fastpath.BatchPreambleSolver` sweep per batch)
    pick the identical winning offset per element.  Returns
    ``(metric, offset)`` or ``None`` when no candidate is feasible.
    """
    def mat(off: int) -> float | None:
        i = off - grid0
        if not feasible[i]:
            return None
        return float(metric[i])

    best: tuple[float, int] | None = None
    for off in range(-search, search + 1, step):
        m = mat(off)
        if m is None:
            continue
        if best is None or m < best[0]:
            best = (m, off)
    if best is None:
        return None
    coarse = best[1]
    for off in range(coarse - step + 1, coarse + step):
        if off == coarse:
            continue
        m = mat(off)
        if m is not None and m < best[0]:
            best = (m, off)
    tol = 1.5 * best[0] + 1e-30
    for off in range(best[1] + 1, best[1] + 1 + n_taps + step):
        m = mat(off)
        if m is None or m > tol:
            break
        best = (m, off)
    return best
