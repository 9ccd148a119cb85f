"""Tests for the CLI and the ASCII plotting utilities."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.cli import build_parser, main
from repro.experiments.plotting import ascii_cdf, ascii_plot, ascii_scatter


class TestPlotting:
    def test_basic_plot_contains_markers(self):
        out = ascii_plot({"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]},
                         title="t")
        assert "t" in out
        assert "o" in out and "x" in out
        assert "o=a" in out and "x=b" in out

    def test_log_scale(self):
        out = ascii_plot({"s": [(1, 10), (2, 1e6)]}, logy=True)
        assert "1e+06" in out

    def test_single_point(self):
        out = ascii_plot({"s": [(1.0, 2.0)]})
        assert "o" in out

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_plot({})
        with pytest.raises(ValueError):
            ascii_plot({"s": []})

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ascii_plot({"s": [(0, 0)]}, width=2, height=2)

    def test_axis_alignment(self):
        out = ascii_plot({"s": [(0, 0), (1, 1)]}, width=20, height=5)
        lines = out.splitlines()
        border_rows = [ln for ln in lines if "|" in ln]
        axis_row = next(ln for ln in lines if "+" in ln)
        assert axis_row.index("+") == border_rows[0].index("|")

    def test_cdf_monotone_markers(self):
        out = ascii_cdf([1, 2, 3, 4, 5], title="c")
        assert "P(X<=x)" in out

    def test_cdf_empty(self):
        with pytest.raises(ValueError):
            ascii_cdf([])

    def test_scatter_with_diagonal(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 10, 20)
        out = ascii_scatter(x, x + 1, title="s")
        assert "y=x" in out

    def test_scatter_shape_mismatch(self):
        with pytest.raises(ValueError):
            ascii_scatter([1, 2], [1])


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        for cmd in ("info", "link", "sweep", "plan", "experiments"):
            args = parser.parse_args([cmd])
            assert args.command == cmd

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_link_command_succeeds(self, capsys):
        rc = main(["link", "--distance", "1.0", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "post-MRC SNR" in out

    def test_link_command_fails_at_extreme_range(self, capsys):
        rc = main(["link", "--distance", "25.0", "--modulation", "16psk",
                   "--symbol-rate", "2.5e6", "--seed", "3"])
        assert rc == 1

    def test_plan_command(self, capsys):
        rc = main(["plan", "--distances", "1.0", "3.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "REPB" in out

    def test_info_command(self, capsys):
        rc = main(["info"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "link budget" in out
        assert "Fig. 7" in out

    def test_sweep_command_small(self, capsys):
        rc = main(["sweep", "--distances", "1.0", "--trials", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max throughput vs range" in out


    @pytest.mark.parametrize("override, path", [
        ("seed=abc", "seed"), ("link=3", "link"), ("nope=1", "nope"),
        ('link={"n_payload_bits": "x"}', "link.n_payload_bits")])
    def test_bad_override_is_one_error_line(self, override, path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["link", "--set", override])
        message = str(info.value.code)
        assert message.startswith("repro: error: ")
        assert "\n" not in message
        assert repr(path) in message


class TestImportCost:
    @pytest.fixture(scope="class")
    def loaded(self):
        """The ``scipy`` modules a fresh ``import repro.cli`` loads."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; "
             "print('\\n'.join(m for m in sys.modules "
             "if m.startswith('scipy')))"],
            env=env, capture_output=True, text=True, check=True)
        return out.stdout.split()

    def test_cli_import_leaves_scipy_signal_unloaded(self, loaded):
        """``repro serve`` never filters, so importing the CLI must not
        pay for ``scipy.signal`` (it is imported where ``lfilter`` runs)."""
        assert [m for m in loaded if m.startswith("scipy.signal")] == []

    def test_cli_import_leaves_scipy_fft_unloaded(self, loaded):
        """Nor for ``scipy.fft``: only the overlap-save convolution of
        filters of ``FFT_MIN_TAPS`` or more taps imports it."""
        assert [m for m in loaded if m.startswith("scipy.fft")] == []
