"""Smoke + shape tests for every paper-figure experiment (reduced sizes)."""

import numpy as np
import pytest

from repro.experiments import ablations, comparison
from repro.experiments import fig7_energy_table as fig7
from repro.experiments import fig8_throughput_range as fig8
from repro.experiments import fig9_repb_vs_throughput as fig9
from repro.experiments import fig10_repb_vs_range as fig10
from repro.experiments import fig11_microbench as fig11
from repro.experiments import fig12_network as fig12
from repro.experiments import fig13_client_impact as fig13
from repro.experiments.common import ExperimentTable, cdf_points, \
    format_si, median


class TestCommon:
    def test_table_formatting(self):
        t = ExperimentTable("T", ["a", "b"])
        t.add_row(1, 2.5)
        t.add_note("n")
        s = t.format()
        assert "T" in s and "2.5" in s and "note: n" in s

    def test_table_row_arity_check(self):
        t = ExperimentTable("T", ["a"])
        with pytest.raises(ValueError):
            t.add_row(1, 2)

    def test_cdf_points(self):
        v, lv = cdf_points([3.0, 1.0, 2.0])
        assert v.tolist() == [1.0, 2.0, 3.0]
        assert lv.tolist() == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_cdf_points_empty_returns_distinct_arrays(self):
        # Regression: empty input returned the *same* array twice, so
        # mutating the levels silently mutated the values.
        v, lv = cdf_points([])
        assert v.size == 0 and lv.size == 0
        assert v is not lv

    def test_median_empty(self):
        assert np.isnan(median([]))

    def test_format_si(self):
        assert format_si(5e6) == "5 Mbps"
        assert format_si(1.5e3, "Hz") == "1.5 KHz"


class TestFig7:
    def test_table_matches_paper(self):
        res = fig7.run()
        assert res.max_rel_error < 0.01
        assert res.reference_epb_pj == pytest.approx(3.15, rel=0.01)
        assert len(res.table.rows) == 12  # 6 rates x (repb + tput rows)


class TestFig8:
    def test_small_sweep_shape(self):
        res = fig8.run(distances_m=(1.0, 5.0), preambles_us=(32.0,),
                       trials=3, wifi_payload_bytes=2500, seed=7)
        near = res.throughput_at(1.0, 32.0)
        far = res.throughput_at(5.0, 32.0)
        assert near >= 4e6          # multiple Mbps at 1 m
        assert far <= near          # monotone-ish
        assert res.table is not None

    def test_crashed_cell_reads_failed(self, monkeypatch):
        """A cell whose evaluation raised is left out of the points and
        reads ``failed`` in the table; the other cells still render."""
        def eval_cell(args):
            d, pre = args[0], args[1]
            if d == 5.0:
                raise RuntimeError("cell crashed")
            return fig8.Fig8Point(d, pre, 2e6, None, float("nan"))

        monkeypatch.setattr(fig8, "_eval_cell", eval_cell)
        res = fig8.run(distances_m=(1.0, 5.0), preambles_us=(32.0,),
                       trials=1, jobs=1)
        assert [p.distance_m for p in res.points] == [1.0]
        rows = {row[0]: row[1:] for row in res.table.rows}
        assert rows["5"] == ("failed",)
        assert rows["1"] == (fig8.format_si(2e6),)
        assert "failed" in str(res.table)


class TestFig9:
    def test_frontier_at_1m(self):
        res = fig9.run(ranges_m=(1.0,), trials=1,
                       wifi_payload_bytes=2000, seed=11)
        assert res.max_throughput_at(1.0) >= 2e6
        tputs = [p.throughput_bps for p in res.points]
        assert tputs == sorted(tputs)


class TestFig10:
    def test_fixed_target_feasibility(self):
        res = fig10.run(targets_bps=(1.25e6,), ranges_m=(1.0,),
                        trials=1, wifi_payload_bytes=2000, seed=13)
        curve = res.repb_curve(1.25e6)
        assert len(curve) == 1
        assert curve[0][1] > 0


class TestFig11:
    def test_snr_scatter_degradation_small(self):
        res = fig11.run_snr_scatter(6, 2, seed=17)
        assert len(res.measured_snr_db) > 0
        # Paper: median degradation < 2.3 dB.
        assert res.median_degradation_db < 2.5

    def test_ber_waterfall_shape(self):
        res = fig11.run_ber_vs_rate(
            symbol_rates_hz=(2.5e6, 500e3),
            modulations=("bpsk",),
            distance_m=4.0, sessions_per_point=2, seed=19,
        )
        fast = res.ber[("bpsk", 2.5e6)]
        slow = res.ber[("bpsk", 500e3)]
        assert slow <= fast  # MRC gain drives BER down


class TestFig12:
    def test_loaded_network_cdf(self):
        res = fig12.run_loaded_network(4, 0.15, seed=23,
                                       n_calibration_bursts=1)
        assert len(res.throughputs_bps) == 4
        assert res.median_throughput_bps < res.continuous_optimum_bps

    def test_wifi_impact_negligible_at_range(self):
        res = fig12.run_wifi_impact((4.0,), n_placements=2,
                                    packets_per_placement=1, seed=29)
        assert res.relative_drop(4.0) <= 0.5


class TestFig13:
    def test_tag_costs_snr_at_top_rate(self):
        res = fig13.run(rates_mbps=(6, 54), n_packets=4, seed=31)
        # The tag's reflection can only hurt (within estimator noise),
        # and its cost is bounded (it is 25+ dB below the direct path).
        assert -0.7 < res.snr_degradation_db(54) < 3.0
        assert res.throughput_on[54] <= res.throughput_off[54] + 1e-9
        assert set(res.rates_mbps) == {6, 54}


class TestComparison:
    def test_backfi_dominates_kellogg(self):
        res = comparison.run(distances_m=(1.0,), trials=3, seed=41)
        assert res.backfi_bps[1.0] > 1000 * max(res.kellogg_bps[1.0], 1.0)


class TestAblations:
    def test_full_system_wins(self):
        res = ablations.run(distance_m=1.5, trials=2, seed=43)
        full = res.outcome("full")
        assert full.success_rate == 1.0
        assert res.outcome("no_analog").success_rate < full.success_rate
        assert res.outcome("no_digital").success_rate < full.success_rate

    def test_mrc_beats_divide(self):
        table = ablations.mrc_vs_divide(trials=2, seed=47)
        mrc_err = float(table.rows[0][1])
        div_err = float(table.rows[1][1])
        assert mrc_err < div_err
