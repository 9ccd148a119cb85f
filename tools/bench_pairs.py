"""Compare two checkouts on one benchmark workload in alternating pairs.

Usage::

    python tools/bench_pairs.py --parent ../parent --change . \
        --workload serve-50 --seeds 9101-9110 [--seconds 20]

Each seed is one pair: ``perfbench/run.py`` runs once in each checkout
with the same workload, seed and seconds, untraced.  Pairs alternate
which side runs first, so slow drift of the machine falls on both
sides alike.  For every end-to-end metric of ``BENCHMARK.json`` (read
from the change's checkout) it prints both medians, the parent's
interquartile range (``statistics.quantiles(values, n=4)``), the change
in percent, the pairs the change won, whether the medians differ by more
than the parent's IQR, and any metric whose median is worse than the
parent's by more than its ``bound`` (a fraction of the parent's median).
Beside the calibrated values it prints each metric's raw (uncalibrated)
medians and raw wins, read from perfbench's ``name value unit (raw X)``
lines: the calibration kernel can move with the workload, so a shift the
raw times do not show is worth a second look.  The summary goes to
standard output as JSON on the last line; the exit status is 1 when a
run failed, was not ``correct``, or a metric broke its bound.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RAW_LINE = re.compile(r"^\s+(\w+)\s+\S+\s+\S+\s+\(raw (\S+)\)\s*$")
"""perfbench's end-to-end line: ``  name  value unit  (raw X)``."""


def seeds(text: str) -> list[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``."""
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def parse_result(stdout: str) -> dict:
    """The result JSON perfbench prints as its last stdout line.

    The raw value of every end-to-end metric printed above it is added
    under ``"raw"`` (``name -> value``; empty when none was printed).
    """
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["raw"] = {m.group(1): float(m.group(2))
                     for m in map(RAW_LINE.match, lines[:-1]) if m}
    return result


def iqr(values: list[float]) -> float:
    """Distance between the first and third quartiles."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(parent: list[dict], change: list[dict],
              spec: dict) -> list[dict]:
    """One row per end-to-end metric of ``spec`` over paired results.

    ``parent[i]`` and ``change[i]`` are the result JSONs of pair ``i``.
    A pair is won when the change's value is better in the metric's
    direction; ``resolved`` means the medians differ by more than the
    parent's IQR; ``worse_than_bound`` means the change's median is
    worse than the parent's by more than ``bound`` times the parent's
    median.  ``raw_*`` are the same medians and wins over the raw
    values, or ``None`` when a result lacks the metric's raw value.
    """
    if len(parent) != len(change):
        raise ValueError("parent and change need one result per pair")
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        lower = metric["better"] == "lower"
        pv = [r["metrics"][name]["value"] for r in parent]
        cv = [r["metrics"][name]["value"] for r in change]
        pm, cm = statistics.median(pv), statistics.median(cv)
        spread = iqr(pv)
        worse = (cm - pm) if lower else (pm - cm)
        bound = metric.get("bound")
        raw = {}
        if all(name in r.get("raw", {}) for r in parent + change):
            rp = [r["raw"][name] for r in parent]
            rc = [r["raw"][name] for r in change]
            raw = {"parent": statistics.median(rp),
                   "change": statistics.median(rc),
                   "wins": _wins(rp, rc, lower)}
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "better": metric["better"],
            "parent_median": pm,
            "change_median": cm,
            "parent_iqr": spread,
            "change_pct": 100.0 * (cm - pm) / pm if pm else float("nan"),
            "wins": _wins(pv, cv, lower),
            "pairs": len(pv),
            "resolved": abs(cm - pm) > spread,
            "worse_than_bound": bound is not None
            and worse > bound * abs(pm),
            "raw_parent_median": raw.get("parent"),
            "raw_change_median": raw.get("change"),
            "raw_wins": raw.get("wins"),
        })
    return rows


def _wins(parent: list[float], change: list[float], lower: bool) -> int:
    """Pairs whose change value is better in the metric's direction."""
    return sum((c < p) if lower else (c > p)
               for p, c in zip(parent, change))


def format_table(workload: str, rows: list[dict]) -> str:
    """The summary rows as an aligned text table."""
    lines = [f"{workload}: {rows[0]['pairs'] if rows else 0} pairs",
             f"  {'metric':<18}{'parent':>12}{'change':>12}"
             f"{'parent IQR':>12}{'change':>10}{'wins':>8}"
             f"{'raw parent':>12}{'raw change':>12}{'raw wins':>10}  notes"]
    for r in rows:
        notes = []
        if r["resolved"]:
            notes.append("beyond IQR")
        if r["worse_than_bound"]:
            notes.append("WORSE THAN BOUND")
        if r["raw_wins"] is None:
            raw = f"{'-':>12}{'-':>12}{'-':>10}"
        else:
            raw = (f"{r['raw_parent_median']:>12.4g}"
                   f"{r['raw_change_median']:>12.4g}"
                   f"{r['raw_wins']:>7}/{r['pairs']:<2}")
        lines.append(
            f"  {r['name']:<18}{r['parent_median']:>12.4g}"
            f"{r['change_median']:>12.4g}{r['parent_iqr']:>12.4g}"
            f"{r['change_pct']:>+9.1f}%{r['wins']:>5}/{r['pairs']:<2}"
            f"{raw}  {', '.join(notes)}")
    return "\n".join(lines)


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict | None:
    """One untraced perfbench run; ``None`` when it exits non-zero."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        print(f"{checkout} seed {seed}: exit {proc.returncode}\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return parse_result(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="tools/bench_pairs.py")
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    sides = {"parent": args.parent.resolve(),
             "change": args.change.resolve()}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    bad = 0
    for i, seed in enumerate(args.seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed, seconds)
        if any(r is None for r in pair.values()):
            bad += 1
            continue
        for side, result in pair.items():
            if not result["correct"] or result["failed"]:
                bad += 1
                print(f"{side} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}", file=sys.stderr)
            results[side].append(result)
        print(f"pair {i + 1} seed {seed}: " + ", ".join(
            f"{side} p50={pair[side]['metrics']['latency_p50_ms']['value']:.4g}"
            for side in order), flush=True)
    rows = summarize(results["parent"], results["change"], spec)
    print(format_table(args.workload, rows))
    broken = [r["name"] for r in rows if r["worse_than_bound"]]
    print(json.dumps({"workload": args.workload, "seconds": seconds,
                      "seeds": args.seeds, "failed_runs": bad,
                      "worse_than_bound": broken, "metrics": rows}))
    return 1 if bad or broken else 0


if __name__ == "__main__":
    sys.exit(main())
