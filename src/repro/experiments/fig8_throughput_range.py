"""Paper Fig. 8: maximum tag throughput vs range, 32 us vs 96 us preamble.

For each distance the experiment sweeps tag operating points from fastest
to slowest and reports the highest-throughput point the reader actually
decodes (majority of trials), exactly as the paper cycles "through all
combinations of symbol switching rates and modulations".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..link.budget import LinkBudget
from ..reader.rate_adapt import required_snr_db
from ..scenario import LinkConfig, ScenarioConfig
from ..tag.config import TagConfig, all_tag_configs
from .common import ExperimentTable, format_si
from .engine import cell_map, spawn_seeds

__all__ = ["Fig8Point", "Fig8Result", "run"]

DEFAULT_DISTANCES_M = (0.5, 1.0, 2.0, 3.0, 5.0, 7.0)
DEFAULT_PREAMBLES_US = (32.0, 96.0)


@dataclass(frozen=True)
class Fig8Point:
    """Best decodable operating point at one (distance, preamble)."""

    distance_m: float
    preamble_us: float
    throughput_bps: float
    config: TagConfig | None
    measured_snr_db: float


@dataclass
class Fig8Result:
    """All sweep points plus the printable table."""

    points: list[Fig8Point] = field(default_factory=list)
    table: ExperimentTable | None = None

    def throughput_at(self, distance_m: float,
                      preamble_us: float) -> float:
        """Lookup helper for tests."""
        for p in self.points:
            if p.distance_m == distance_m and p.preamble_us == preamble_us:
                return p.throughput_bps
        raise KeyError((distance_m, preamble_us))


def _candidate_configs() -> list[TagConfig]:
    """Operating points sorted by throughput, fastest first.

    The 10 kHz rate is omitted: a single 1-4 ms WiFi packet cannot carry
    even a minimal tag frame at 10 kHz (the paper's low-rate points span
    multiple packets).
    """
    configs = [c for c in all_tag_configs() if c.symbol_rate_hz >= 100e3]
    return sorted(configs, key=lambda c: -c.throughput_bps)


def _eval_cell(args: tuple) -> Fig8Point:
    """One (distance, preamble) sweep cell -- a picklable engine task.

    Walks the candidate operating points fastest-first and returns the
    first one a majority of trials decodes.
    """
    d, pre, trial_seeds, base, snr_margin_db = args
    budget = LinkBudget()
    trials = len(trial_seeds)
    for cfg in _candidate_configs():
        predicted = budget.symbol_snr_db(d, cfg, preamble_us=pre)
        if predicted < required_snr_db(cfg) - snr_margin_db:
            continue
        sc = base.replace(
            distance_m=d, tag=cfg,
            link=replace(base.link, preamble_us=pre),
        )
        oks, snrs = 0, []
        for ss in trial_seeds:
            trial_rng = np.random.default_rng(ss)
            out = sc.build(rng=trial_rng).run(rng=trial_rng)
            oks += int(out.ok)
            if np.isfinite(out.reader.symbol_snr_db):
                snrs.append(out.reader.symbol_snr_db)
        if oks * 2 > trials:
            return Fig8Point(
                distance_m=d, preamble_us=pre,
                throughput_bps=cfg.throughput_bps, config=cfg,
                measured_snr_db=float(np.median(snrs))
                if snrs else float("nan"),
            )
    return Fig8Point(
        distance_m=d, preamble_us=pre, throughput_bps=0.0,
        config=None, measured_snr_db=float("nan"),
    )


def run(distances_m: tuple[float, ...] = DEFAULT_DISTANCES_M,
        preambles_us: tuple[float, ...] = DEFAULT_PREAMBLES_US,
        *, trials: int = 5, wifi_payload_bytes: int = 4000,
        snr_margin_db: float = 8.0, seed: int = 7,
        jobs: int | None = None,
        scenario: ScenarioConfig | None = None) -> Fig8Result:
    """Run the throughput-vs-range sweep.

    ``snr_margin_db`` prunes operating points whose link-budget SNR falls
    that far below the decode threshold (they cannot plausibly work), so
    the sweep spends its sample-level simulations near the frontier.

    ``scenario`` supplies the channel/link baseline each cell derives
    from (its distance, tag config and preamble are the sweep axes and
    get replaced per cell); when omitted the default scene with
    ``wifi_payload_bytes``-sized excitation packets is used.  A
    distance that is not positive raises ``ValueError`` before any cell
    runs; a cell whose evaluation crashed (``None`` from
    :func:`cell_map`) is left out of ``points`` and reads ``failed`` in
    the table.
    """
    for d in distances_m:
        if not d > 0:
            raise ValueError(f"distance must be positive, got {d:g} m")
    if scenario is None:
        scenario = ScenarioConfig(
            link=LinkConfig(wifi_payload_bytes=wifi_payload_bytes))
    result = Fig8Result()
    cells = []
    for d, d_seed in zip(distances_m, spawn_seeds(seed, len(distances_m))):
        # One child seed per trial index, shared across configs/preambles
        # so the comparison is paired on the same channel realisations.
        trial_seeds = d_seed.spawn(trials)
        for pre in preambles_us:
            cells.append((d, pre, trial_seeds, scenario, snr_margin_db))
    outs = iter(cell_map(_eval_cell, cells, jobs=jobs))

    table = ExperimentTable(
        title="Fig. 8 - max throughput vs range",
        columns=["distance (m)"] + [
            f"preamble {int(p)} us" for p in preambles_us
        ],
    )
    for d in distances_m:
        row = [f"{d:g}"]
        for _ in preambles_us:
            p = next(outs)
            if p is None:
                row.append("failed")
                continue
            result.points.append(p)
            label = format_si(p.throughput_bps)
            if p.config is not None:
                label += f" ({p.config.describe()})"
            row.append(label)
        table.add_row(*row)
    table.add_note("paper: ~5 Mbps at 1 m, ~1 Mbps at 5 m (32 us preamble)")
    result.table = table
    return result


if __name__ == "__main__":
    print(run().table)
