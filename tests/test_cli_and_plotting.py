"""Tests for the CLI and the ASCII plotting utilities."""

import json
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

    @pytest.mark.parametrize("command", [
        "link", "sweep", "robustness", "profile", "network", "serve"])
    def test_unknown_scenario_is_one_error_line(self, command):
        """Every command that takes ``--scenario`` refuses an unknown
        preset with one error line listing the registered ones."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", command,
             "--scenario", "nope"], env=_interpreter_env(),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "repro: error: unknown scenario 'nope'; registered: ")
        assert "paper-1m" in lines[0]

    @pytest.mark.parametrize("distance", ["-1", "0", "nan"])
    def test_sweep_refuses_non_positive_distance(self, distance):
        """Refused before any cell runs (a refused cell's missing point
        used to crash the table)."""
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--distances", "1.0", distance,
                  "--trials", "1"])
        assert str(info.value.code) == \
            f"repro: error: distance must be positive, got {distance} m"


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

    @pytest.mark.parametrize("argv, field", [
        (["--set", "seed=-1"], "seed"),
        (["--set", "link.wifi_rate_mbps=7"], "wifi_rate_mbps"),
        (["--set", "link.preamble_us=-4"], "preamble_us"),
        (["--set", "link.preamble_us=0.3"], "preamble_us"),
        (["--set", "link.tag_speed_m_s=-1"], "tag_speed_m_s"),
        (["--set", "link.backscatter_evm=-0.1"], "backscatter_evm"),
        (["--set", "scene.env_drift_rms=-1"], "env_drift_rms"),
        (["--set", "scene.env_drift_coherence_us=-5"],
         "env_drift_coherence_us"),
        (["--seed", "-1"], "seed"),
        (["--wifi-rate", "7"], "wifi_rate_mbps"),
    ])
    def test_refused_value_is_one_error_line(self, argv, field):
        """A value of the right type that the scenario's config refuses
        ends ``repro link`` with one error line naming the field (a
        non-zero exit, no traceback), before anything is built."""
        with pytest.raises(SystemExit) as info:
            main(["link", "--scenario", "paper-1m", *argv])
        message = str(info.value.code)
        assert message.startswith(f"repro: error: {field} must be ")
        assert "\n" not in message


_SYNTHESIZE_AND_DECODE = """
import json, sys
import numpy as np
from repro.channel.environment import Scene
from repro.link.batch import run_exchange_batch
from repro.link.session import synthesize_exchange
from repro.reader.reader import BackFiReader
from repro.scenario import get_scenario
from repro.tag.tag import BackFiTag
from repro.wifi import random_payload

built = get_scenario("paper-1m").build(rng=np.random.default_rng(0))
cap = synthesize_exchange(built.scene, built.tag,
                          rng=np.random.default_rng(1),
                          **built.session_kwargs())
one = built.reader.decode(cap.timeline, cap.rx, built.scene.h_env,
                          pa_output=cap.x_pa, rng=np.random.default_rng(2))
cfg = built.config.tag
cell = run_exchange_batch(
    [Scene.build(tag_distance_m=1.0 + 0.2 * b, rng=np.random.default_rng(b))
     for b in range(4)],
    [BackFiTag(cfg) for _ in range(4)], BackFiReader(cfg),
    psdu=random_payload(1500, np.random.default_rng(9)),
    rngs=[np.random.default_rng(10 + b) for b in range(4)])
loaded = [m for m in sys.modules if m.startswith("scipy")]
service = [m for m in sys.modules if m in ("asyncio", "ssl")
           or m == "repro.streaming" or m.startswith("repro.streaming.")]

import repro
names = ("RetryPolicy", "ServerThread", "ServiceClient",
         "SessionMultiplexer", "StreamingDecoder", "StreamingServer")
listed = set(names) <= set(dir(repro))
lazy = [getattr(repro, n) for n in names]
import repro.streaming
import scipy.signal
from dsp_oracle import ar1_lfilter
from repro.channel.hardware import ar1_filter
w = np.random.default_rng(3).standard_normal((3, 500, 2)).view(np.complex128)
w = w.reshape(3, 500)
print(json.dumps({
    "decoded": [one.ok] + [r.reader.ok for r in cell],
    "loaded": loaded,
    "service": service,
    "service_names_listed": listed,
    "service_names": [n for n, v in zip(names, lazy) if n in repro.__all__
                      and v is getattr(repro.streaming, n)],
    "matches_lfilter": ar1_filter(w, 0.99, 0.1j).tobytes()
    == ar1_lfilter(w, 0.99, 0.1j).tobytes(),
    "kernel_reused": scipy.signal._signaltools._sigtools
    is sys.modules["scipy.signal._sigtools"],
}))
"""


def _interpreter_env() -> dict:
    """The environment of a new interpreter with ``src/`` and ``tests/``
    on its path."""
    src = str(Path(repro.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, tests] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _fresh_interpreter(code: str) -> str:
    """Run ``code`` in a new interpreter with ``src/`` and ``tests/`` on
    its path; returns its standard output."""
    return subprocess.run([sys.executable, "-c", code],
                          env=_interpreter_env(), capture_output=True,
                          text=True, check=True).stdout


class TestImportCost:
    @pytest.fixture(scope="class")
    def loaded(self):
        """The ``scipy`` modules a fresh ``import repro.cli`` loads."""
        return _fresh_interpreter(
            "import sys, repro.cli; "
            "print('\\n'.join(m for m in sys.modules "
            "if m.startswith('scipy')))").split()

    def test_cli_import_leaves_scipy_signal_unloaded(self, loaded):
        """``repro serve`` never filters, so importing the CLI must not
        pay for ``scipy.signal`` (nor for its kernel module, which the
        AR(1) filter loads at its first call)."""
        assert [m for m in loaded if m.startswith("scipy.signal")] == []

    def test_cli_import_leaves_scipy_fft_unloaded(self, loaded):
        """Nor for ``scipy.fft``: only the overlap-save convolution of
        filters of ``FFT_MIN_TAPS`` or more taps imports it."""
        assert [m for m in loaded if m.startswith("scipy.fft")] == []

    @pytest.fixture(scope="class")
    def decoded(self):
        """What a fresh process that synthesizes and decodes loads."""
        return json.loads(_fresh_interpreter(_SYNTHESIZE_AND_DECODE))

    def test_synthesis_and_decode_load_no_scipy_package(self, decoded):
        """A process that synthesizes a ``paper-1m`` exchange and a 4-row
        cell and decodes both loads no SciPy package: the AR(1) drift
        calls SciPy's compiled kernel, the only ``scipy.*`` module it
        loads.  A later ``import scipy.signal`` reuses that module, and
        the filter still equals ``lfilter`` byte for byte."""
        out = decoded
        assert len(out["decoded"]) == 5 and out["decoded"][0]
        assert "scipy" not in out["loaded"]
        assert "scipy.signal" not in out["loaded"]
        assert set(out["loaded"]) <= {"scipy.signal._sigtools"}
        assert out["matches_lfilter"]
        assert out["kernel_reused"]

    def test_synthesis_and_decode_load_no_service_layer(self, decoded):
        """Nor the streaming service: ``import repro`` resolves the six
        top-level service names at their first access, so a process that
        only synthesizes and decodes loads no ``asyncio``, ``ssl`` or
        ``repro.streaming`` module.  ``dir(repro)`` still lists them, and
        each then resolves, in the same process, to its
        :mod:`repro.streaming` object."""
        assert decoded["decoded"][0]
        assert decoded["service"] == []
        assert decoded["service_names_listed"]
        assert decoded["service_names"] == [
            "RetryPolicy", "ServerThread", "ServiceClient",
            "SessionMultiplexer", "StreamingDecoder", "StreamingServer"]
