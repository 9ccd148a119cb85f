"""Unit tests for tools/bench_pairs.py's arithmetic on canned results."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_pairs import (  # noqa: E402  (path set up above)
    format_table,
    iqr,
    parse_result,
    seeds,
    summarize,
)

SPEC = {"end_to_end": [
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
     "bound": 0.2},
    {"name": "exchanges_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
]}


def _line(p50: float, rate: float) -> str:
    """A perfbench stdout tail: progress text, then the result JSON."""
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": {
        "latency_p50_ms": {"value": p50, "unit": "ms"},
        "exchanges_per_s": {"value": rate, "unit": "1/s"}}}
    return "perfbench serve-50 seed=1\n  calls 10\n" + json.dumps(result)


def _results(pairs):
    return [parse_result(_line(p50, rate)) for p50, rate in pairs]


def _stdout(p50: float, raw_p50: float, rate: float, raw_rate: float) -> str:
    """A whole untraced perfbench stdout, raw values included."""
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": {
        "latency_p50_ms": {"value": p50, "unit": "ms"},
        "exchanges_per_s": {"value": rate, "unit": "1/s"}}}
    return "\n".join([
        "perfbench cells-near seed=4401 seconds=10 trace=0 src_lines=20903",
        "  calib_ms 1.2871 median (ref 1.25, 412 passes, whole-run scale "
        "0.9712)",
        f"  latency_p50_ms   {p50:12.4f} ms   (raw {raw_p50:.4f})",
        f"  exchanges_per_s  {rate:12.4f} 1/s  (raw {raw_rate:.4f})",
        "  calls 40, exchanges attempted 1280, failed 0, wrong 0",
        json.dumps(result)])


def test_seed_ranges():
    assert seeds("9101-9103,7") == [9101, 9102, 9103, 7]


def test_parse_takes_the_last_line():
    assert parse_result(_line(6.5, 150.0))["metrics"][
        "latency_p50_ms"]["value"] == 6.5


def test_iqr_is_the_quartile_distance():
    # statistics.quantiles' default (exclusive) method: 1.5 and 4.5.
    assert iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0)
    assert iqr([4.0]) == 0.0


def test_summary_medians_wins_and_resolution():
    parent = _results([(10.0, 100.0), (11.0, 90.0), (12.0, 95.0),
                       (10.5, 98.0)])
    change = _results([(9.0, 110.0), (9.5, 92.0), (12.5, 96.0),
                       (9.2, 99.0)])
    p50, rate = summarize(parent, change, SPEC)
    assert p50["parent_median"] == pytest.approx(10.75)
    assert p50["change_median"] == pytest.approx(9.35)
    assert p50["change_pct"] == pytest.approx(100 * (9.35 - 10.75) / 10.75)
    assert p50["wins"] == 3 and p50["pairs"] == 4   # lower is better
    assert p50["parent_iqr"] == pytest.approx(iqr([10.0, 11.0, 12.0, 10.5]))
    assert p50["resolved"] is (1.4 > p50["parent_iqr"])
    assert not p50["worse_than_bound"]
    assert rate["wins"] == 4                          # higher is better
    assert not rate["worse_than_bound"]


def test_worse_than_bound_follows_the_metric_direction():
    parent = _results([(10.0, 100.0)] * 3)
    # p50 21 % worse (bound 20 %); rate 24 % worse (bound 25 %).
    change = _results([(12.1, 76.0)] * 3)
    p50, rate = summarize(parent, change, SPEC)
    assert p50["worse_than_bound"] and p50["wins"] == 0
    assert not rate["worse_than_bound"]
    assert "WORSE THAN BOUND" in format_table("serve-50", [p50, rate])


def test_unpaired_results_are_refused():
    with pytest.raises(ValueError):
        summarize(_results([(1.0, 1.0)]), [], SPEC)


def test_parse_reads_the_raw_lines():
    out = parse_result(_stdout(101.25, 104.5, 316.0, 306.1))
    assert out["metrics"]["latency_p50_ms"]["value"] == 101.25
    assert out["raw"] == {"latency_p50_ms": 104.5, "exchanges_per_s": 306.1}
    # A stdout without raw lines parses to an empty table.
    assert parse_result(_line(6.5, 150.0))["raw"] == {}


def test_raw_medians_and_wins_sit_beside_the_calibrated_ones():
    # The calibrated p50 is higher in 4 of 5 pairs while the raw p50 is
    # lower in 3 of 5: the table must show both.
    cal = [(100.0, 101.0), (99.0, 102.0), (101.0, 103.0), (98.0, 99.0),
           (100.0, 99.5)]
    raw = [(105.0, 104.0), (104.0, 103.0), (103.0, 104.5), (106.0, 105.5),
           (102.0, 103.0)]
    parent = [parse_result(_stdout(p, rp, 300.0, 290.0))
              for (p, _), (rp, _) in zip(cal, raw)]
    change = [parse_result(_stdout(c, rc, 300.0 + i, 290.0 - i))
              for i, ((_, c), (_, rc)) in enumerate(zip(cal, raw))]
    p50, rate = summarize(parent, change, SPEC)
    assert p50["wins"] == 1
    assert p50["raw_wins"] == 3
    assert p50["raw_parent_median"] == pytest.approx(104.0)
    assert p50["raw_change_median"] == pytest.approx(104.0)
    # Higher is better for a rate, raw or calibrated.
    assert rate["wins"] == 4 and rate["raw_wins"] == 0
    table = format_table("cells-near", [p50, rate])
    assert "raw wins" in table
    assert "      3/5" in table.splitlines()[2]
    assert json.loads(json.dumps([p50, rate]))[0]["raw_wins"] == 3


def test_raw_columns_are_blank_without_raw_values():
    p50, _ = summarize(_results([(10.0, 100.0)]), _results([(9.0, 101.0)]),
                       SPEC)
    assert p50["raw_wins"] is None and p50["raw_parent_median"] is None
    assert p50["wins"] == 1
    line = format_table("decode-1m", [p50]).splitlines()[2]
    assert line.split().count("-") == 3
