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
walk), and :class:`OffsetScores` feeds it, scoring only the offsets the
walks visit, for every row of a stack at once.  The reader pipeline's
timing stage (:func:`repro.reader.batch.search_timing`) composes them;
:func:`find_tag_timing` is that stage on one capture.  Everything
downstream of sync then comes from the reference estimator at the
winning offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..telemetry import get_collector
from .channel_est import (
    ChannelEstimate,
    estimate_combined_channel,
    probe_estimates,
)
from .fastpath import BatchPreambleSolver

__all__ = ["SYNC_STEP", "OffsetScores", "SyncResult", "candidate_window",
           "find_tag_timing", "replay_offset_selection", "timing_prior",
           "winning_sync"]

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


class OffsetScores:
    """Penalised timing metrics of a stack, scored on demand.

    ``solver`` covers the stack's candidate window; offsets are relative
    to ``nominal``.  :meth:`row` gives one row's ``score`` callback for
    :func:`replay_offset_selection`.  Offsets no row has asked for yet
    are evaluated for every row in one solver call, so rows whose walks
    visit the same offsets (one sync group) share each evaluation, and a
    stack of one scores exactly the offsets its walk visits.
    """

    def __init__(self, solver: BatchPreambleSolver, nominal: int):
        self.solver = solver
        self.nominal = nominal
        self._table: dict[int, tuple[list[bool], list[float]]] = {}

    @property
    def n_evaluated(self) -> int:
        """Offsets scored so far (each for every row)."""
        return len(self._table)

    def row(self, b: int) -> Callable[[list[int]], list[float | None]]:
        """Row ``b``'s metric (``None`` = infeasible) per offset."""
        table = self._table

        def score(offsets: list[int]) -> list[float | None]:
            new = [off for off in offsets if off not in table]
            if new:
                grid = np.asarray(new)
                feasible, residual_power, gain = self.solver.evaluate(
                    self.nominal + grid)
                with np.errstate(invalid="ignore"):
                    metric = residual_power / gain * timing_prior(grid)
                table.update(zip(new, zip(feasible.T.tolist(),
                                          metric.T.tolist())))
            return [m[b] if f[b] else None
                    for f, m in map(table.__getitem__, offsets)]
        return score


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
    instants.  A final pass refines to single-sample resolution.  The
    reader pipeline's timing stage
    (:func:`repro.reader.batch.search_timing`) on a stack of one, then
    the reference estimate at the winning offset.
    """
    from .batch import search_timing

    nominal = nominal_preamble_start
    (best,) = search_timing(
        x, np.asarray(y_clean, dtype=np.complex128)[None], nominal,
        preamble_us, search_us=search_us, n_taps=n_taps,
        preamble_seed=preamble_seed)
    if best is None:
        raise ValueError("no feasible timing offset found")
    est = estimate_combined_channel(x, y_clean, nominal + best[1],
                                    preamble_us, n_taps=n_taps,
                                    preamble_seed=preamble_seed)
    tm = get_collector()
    with tm.span("channel_est") as sp:
        if tm.enabled:
            probe_estimates(sp, [est], x, nominal + best[1], preamble_us,
                            n_taps=n_taps)
    return winning_sync(nominal, best[1], est)


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
