"""Fine timing recovery for the tag's backscatter (paper Sec. 4.1).

The reader controls the protocol timeline, so it knows *nominally* when
the tag's silent period, preamble and data start.  The tag's wake-up
detector, however, fires with a small uncertainty (up to a microsecond of
comparator/decision latency).  The reader therefore searches a window of
candidate offsets and picks the one whose LS channel fit to the known
preamble leaves the smallest residual -- equivalent to correlating with
the PN preamble, but reusing the estimator we already have.

Candidates are scored by
:class:`~repro.reader.fastpath.BatchPreambleSolver`: chip-comb tables
built once over :func:`candidate_window`, then one batched
normal-equation solve per sweep.  :func:`replay_offset_selection` is the
one selection walk (coarse sweep, single-sample refinement, boundary
walk).  :func:`find_tag_timing` runs it on a capture, scoring only the
offsets each of its three sweeps visits; ``BatchedDecoder`` runs it per
element on a metric table precomputed for the whole window.  Both then
run the full SVD estimator once, at the winning offset, so everything
downstream of sync comes from the reference estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..constants import SAMPLES_PER_US
from ..telemetry import get_collector
from .channel_est import (
    ChannelEstimate,
    estimate_combined_channel,
    preamble_condition_number,
)
from .fastpath import BatchPreambleSolver

__all__ = ["SYNC_STEP", "SyncResult", "candidate_window", "find_tag_timing",
           "replay_offset_selection", "timing_prior", "winning_sync"]

SYNC_STEP = 4
"""Stride of the coarse offset sweep, in samples."""


@dataclass(frozen=True)
class SyncResult:
    """Outcome of the fine timing search."""

    preamble_start: int
    offset_samples: int
    estimate: ChannelEstimate
    metric: float


def timing_prior(offset):
    """Penalty factor on the metric of a candidate ``offset`` samples
    from the nominal start (an int or an integer array).

    A gentle prior toward the nominal timing: for wideband excitations
    the residual contrast is orders of magnitude, so this never changes
    the answer; for narrowband excitations (BLE/Zigbee) whose
    autocorrelation makes the metric nearly flat, it pins the flat
    region to the protocol timeline.
    """
    return 1.0 + 0.005 * abs(offset)


def candidate_window(nominal: int, search: int,
                     n_taps: int) -> tuple[int, int]:
    """Inclusive ``(lo, hi)`` preamble starts the selection walk can visit.

    Every candidate the coarse sweep, refinement and boundary walk of
    :func:`replay_offset_selection` can reach lies inside; the solver
    only builds its tables over the rows this window can touch.
    """
    return (nominal - search - SYNC_STEP,
            nominal + search + n_taps + 2 * SYNC_STEP)


def winning_sync(nominal: int, offset: int,
                 est: ChannelEstimate) -> SyncResult:
    """The search's result at ``offset``, scored on the reference ``est``."""
    return SyncResult(
        preamble_start=nominal + offset,
        offset_samples=offset,
        estimate=est,
        metric=est.residual_power / max(est.gain, 1e-300)
        * timing_prior(offset),
    )


def find_tag_timing(
    x: np.ndarray,
    y_clean: np.ndarray,
    nominal_preamble_start: int,
    preamble_us: float,
    *,
    search_us: float = 2.0,
    n_taps: int = 8,
    preamble_seed: int = 0x35,
) -> SyncResult:
    """Search +-``search_us`` around the nominal preamble start.

    The metric is the normalised LS residual: sharper (smaller) when the
    assumed chip boundaries line up with the tag's actual switching
    instants.  A final pass refines to single-sample resolution.
    """
    nominal = nominal_preamble_start
    search = int(search_us * SAMPLES_PER_US)
    tm = get_collector()
    n_evaluated = 0
    solver = BatchPreambleSolver(
        x, np.asarray(y_clean)[None], preamble_us, n_taps=n_taps,
        preamble_seed=preamble_seed,
        start_window=candidate_window(nominal, search, n_taps))

    def score(offsets: list[int]) -> list[float | None]:
        """Penalised metric (or None = infeasible) per candidate offset."""
        nonlocal n_evaluated
        n_evaluated += len(offsets)
        feasible, residual_power, gain = (
            a[0] for a in solver.evaluate(nominal + np.asarray(offsets)))
        return [
            float(residual_power[i] / gain[i] * timing_prior(off))
            if feasible[i] else None
            for i, off in enumerate(offsets)
        ]

    with tm.span("sync") as sp:
        best = replay_offset_selection(score, search, n_taps)
        if best is None:
            sp.probe("candidates", n_evaluated)
            raise ValueError("no feasible timing offset found")
        off = best[1]
        est = estimate_combined_channel(
            x, y_clean, nominal + off, preamble_us,
            n_taps=n_taps, preamble_seed=preamble_seed,
        )
        sync = winning_sync(nominal, off, est)
        sp.probe("offset_samples", off)
        sp.probe("metric", sync.metric)
        sp.probe("candidates", n_evaluated)
        sp.probe("search_samples", 2 * search + 1)

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
                x, nominal + off, preamble_us, n_taps=n_taps,
            ))

    return sync


def replay_offset_selection(
    score: Callable[[list[int]], Sequence[float | None]],
    search: int, n_taps: int,
) -> tuple[float, int] | None:
    """The timing search's selection walk over candidate offsets.

    ``score(offsets)`` returns the penalised metric of each offset, or
    ``None`` where the candidate is infeasible; it is called once per
    sweep -- the coarse grid at :data:`SYNC_STEP`, the single-sample
    refinement around the coarse winner, then the boundary walk -- and
    every offset it sees lies inside :func:`candidate_window`.  Ties
    keep the earlier candidate.  Returns ``(metric, offset)`` or
    ``None`` when no coarse candidate is feasible.
    """
    step = SYNC_STEP
    best: tuple[float, int] | None = None
    coarse = list(range(-search, search + 1, step))
    for off, m in zip(coarse, score(coarse)):
        if m is not None and (best is None or m < best[0]):
            best = (m, off)
    if best is None:
        return None

    # Refine around the coarse winner at single-sample resolution.
    refine = [off for off in range(best[1] - step + 1, best[1] + step)
              if off != best[1]]
    for off, m in zip(refine, score(refine)):
        if m is not None and m < best[0]:
            best = (m, off)

    # The LS fit is invariant to starting up to n_taps-1 samples early
    # (the shift is absorbed as leading delay taps), so the metric is
    # flat on the early side and cliffs on the late side.  Walk forward
    # to the latest offset that still fits -- the true chip boundary.
    # The late-side cliff is orders of magnitude, so this factor cannot
    # overshoot the boundary for wideband excitations; the timing prior
    # bounds the walk for narrowband ones.
    tol = 1.5 * best[0] + 1e-30
    walk = list(range(best[1] + 1, best[1] + 1 + n_taps + step))
    for off, m in zip(walk, score(walk)):
        if m is None or m > tol:
            break
        best = (m, off)
    return best
