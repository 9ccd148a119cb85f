"""Build and check the hot-path performance report (BENCH_hotpaths.json).

Two subcommands:

``build``
    Merge a ``benchmarks/bench_hotpaths.py --json`` kernel report with
    (optionally) a telemetry run's span timings into one JSON document.
``check``
    Compare a fresh report against a committed baseline and exit
    non-zero when any tracked kernel's fast/direct **speedup ratio** has
    regressed by more than the allowed factor (default 2x).  The ratio
    is compared rather than absolute milliseconds because both forms
    are measured back-to-back on the same machine, which makes the gate
    meaningful across CI runners of very different speeds.

Usage::

    python benchmarks/bench_hotpaths.py --json bench.json
    python tools/perf_report.py build --bench bench.json \
        [--telemetry RUN.jsonl] -o BENCH_hotpaths.json
    python tools/perf_report.py check bench.json --baseline BENCH_hotpaths.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

REPORT_SCHEMA = 1
DEFAULT_REGRESSION_FACTOR = 2.0


def aggregate_spans(records: list[dict]) -> dict[str, dict[str, float]]:
    """Per-stage wall-time stats from parsed telemetry JSONL records.

    Returns ``{span_name: {count, total_ms, median_ms, p90_ms}}`` over
    every ``kind == "span"`` record (other kinds are ignored).
    """
    walls: dict[str, list[float]] = {}
    for record in records:
        if record.get("kind") != "span":
            continue
        walls.setdefault(record["name"], []).append(
            1e3 * float(record["wall_s"]))
    out = {}
    for name, values in walls.items():
        values = sorted(values)
        p90 = values[min(len(values) - 1,
                         int(round(0.9 * (len(values) - 1))))]
        out[name] = {
            "count": len(values),
            "total_ms": round(sum(values), 4),
            "median_ms": round(statistics.median(values), 4),
            "p90_ms": round(p90, 4),
        }
    return out


def load_jsonl(path: str | Path) -> list[dict]:
    """Parse one-record-per-line JSON (blank lines skipped)."""
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def build_report(bench: dict,
                 telemetry: dict[str, dict[str, float]] | None = None,
                 ) -> dict:
    """The BENCH_hotpaths.json document from its two ingredients."""
    report = {
        "schema": REPORT_SCHEMA,
        "kind": "hotpath_perf_report",
        "note": ("speedup = direct_ms / fast_ms, both medians measured "
                 "back-to-back on one machine; the regression gate "
                 "tracks this ratio, not absolute times"),
        "kernels": bench.get("kernels", {}),
    }
    if telemetry is not None:
        report["telemetry_spans"] = telemetry
    return report


def check_regressions(current: dict, baseline: dict,
                      factor: float = DEFAULT_REGRESSION_FACTOR,
                      ) -> list[str]:
    """Regression messages (empty = pass).

    A kernel regresses when its measured speedup falls below the
    baseline speedup divided by ``factor``.  Kernels present in only
    one of the two documents are reported too -- a silently dropped
    kernel must not pass the gate.  A baseline entry pinned *below*
    1.0x must carry a ``note`` explaining why the "fast" form is
    allowed to lose -- an unexplained sub-1.0 pin is how a real
    regression gets frozen into the baseline.
    """
    cur = current.get("kernels", {})
    base = baseline.get("kernels", {})
    problems = []
    for name, ref in sorted(base.items()):
        ref_speedup = float(ref["speedup"])
        if ref_speedup < 1.0 and not str(ref.get("note", "")).strip():
            problems.append(
                f"{name}: baseline speedup {ref_speedup:.2f}x is below "
                f"1.0x with no 'note' explaining why the regression is "
                f"accepted"
            )
        if name not in cur:
            problems.append(f"{name}: missing from current report")
            continue
        got = float(cur[name]["speedup"])
        floor = ref_speedup / factor
        if got < floor:
            problems.append(
                f"{name}: speedup {got:.2f}x is below {floor:.2f}x "
                f"(baseline {ref_speedup:.2f}x / factor {factor:g})"
            )
    for name in sorted(set(cur) - set(base)):
        problems.append(f"{name}: not in baseline -- update the "
                        f"baseline to start tracking it")
    return problems


def _cmd_build(args: argparse.Namespace) -> int:
    bench = json.loads(Path(args.bench).read_text())
    telemetry = None
    if args.telemetry:
        telemetry = aggregate_spans(load_jsonl(args.telemetry))
    report = build_report(bench, telemetry)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    current = json.loads(Path(args.current).read_text())
    baseline = json.loads(Path(args.baseline).read_text())
    problems = check_regressions(current, baseline, factor=args.factor)
    if problems:
        print("perf regression gate FAILED:")
        for p in problems:
            print(f"  - {p}")
        return 1
    names = sorted(baseline.get("kernels", {}))
    print(f"perf gate OK ({len(names)} kernels: {', '.join(names)})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="merge bench + telemetry JSON")
    build.add_argument("--bench", required=True,
                       help="bench_hotpaths.py --json output")
    build.add_argument("--telemetry", default=None,
                       help="telemetry run JSONL to aggregate")
    build.add_argument("-o", "--output", default="BENCH_hotpaths.json",
                       help="report path ('-' for stdout)")

    check = sub.add_parser("check", help="gate against a baseline")
    check.add_argument("current", help="fresh bench or report JSON")
    check.add_argument("--baseline", required=True,
                       help="committed BENCH_hotpaths.json")
    check.add_argument("--factor", type=float,
                       default=DEFAULT_REGRESSION_FACTOR,
                       help="allowed speedup shrink factor (default 2)")

    args = parser.parse_args(argv)
    if args.command == "build":
        return _cmd_build(args)
    return _cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
