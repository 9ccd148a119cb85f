"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the checkout root::

    python3 perfbench/spread.py --workloads decode-1m,serve-50 \
        --seeds 1-10 [--seconds 20] [--trace 0]

For every workload and metric it prints the median over the seeds and
the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
run that exits non-zero, is not ``correct`` or has failures is
reported and counted.  The summary goes to standard output as JSON on
the last line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary: dict = {}
    bad = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode:
                bad += 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                bad += 1
                print(f"{workload} seed {seed}: correct="
                      f"{result['correct']} failed={result['failed']}",
                      file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}"
                for n, m in result["metrics"].items()), flush=True)
        rows = {}
        for name, vals in values.items():
            rows[name] = {"median": statistics.median(vals),
                          "spread": spread(vals) if len(vals) > 1
                          else None, "values": vals}
            bound = bounds.get(name)
            flag = "" if bound is None or rows[name]["spread"] is None \
                else (" ok" if rows[name]["spread"] <= bound / 3
                      else " WIDE" if rows[name]["spread"] > bound
                      else " within bound")
            print(f"  {name:<28} median {rows[name]['median']:.4f} "
                  f"spread {rows[name]['spread'] or 0:.4f}{flag}")
        summary[workload] = rows
    print(json.dumps({"seconds": seconds, "seeds": args.seeds,
                      "bad_runs": bad, "workloads": summary}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
