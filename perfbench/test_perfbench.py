"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the checkout root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import inspect
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _fake_traced_phase() -> workloads.Phase:
    phase = workloads.Phase(latencies_s=[0.010, 0.012], starts=[0.0, 0.02],
                            attempted=2, groups=[1, 1])
    return phase


def test_metric_names_are_valid_and_match_the_output():
    spec = _spec()
    entries = spec["end_to_end"] + spec["per_layer"] + spec["workloads"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for entry in entries:
        assert NAME.match(entry["name"]), entry
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for entry in spec["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)

    calib = run.Calibrator()
    calib.burst(3)
    phase = workloads.Phase(latencies_s=[0.01, 0.02], starts=[0.0, 0.1],
                            attempted=2)
    e2e = run.end_to_end(phase, [(0.5, 1.0)], 100.0, calib)
    assert {n: u for n, (_, _, u) in e2e.items()} == \
        {e["name"]: e["unit"] for e in spec["end_to_end"]}

    layer, _ = run.per_layer(_fake_traced_phase(), {"reader.sync": 0.01},
                             {"reader.sync": 2}, {}, 1, tracing.STAGES,
                             0.0, 1.0)
    assert {n: u for n, (_, u) in layer.items()} == \
        {e["name"]: e["unit"] for e in spec["per_layer"]}


def test_oracle_flags_a_flipped_payload_bit():
    wl = workloads.make("decode-1m", ROOT, ROOT / ".perfbench_work")
    wl.n_inputs = 1
    wl.setup(seed=5)
    result = wl.call(0)
    frame_bits = wl.inputs[0][1].plan.frame_bits
    assert workloads.payload_matches(result, frame_bits)
    sha = workloads.payload_sha256(result.payload_bits)
    assert sha == workloads.payload_sha256(
        workloads.expected_payload(frame_bits))

    result.payload_bits = result.payload_bits.copy()
    result.payload_bits[7] ^= 1
    assert not workloads.payload_matches(result, frame_bits)
    assert workloads.payload_sha256(result.payload_bits) != sha
    phase = workloads.Phase()
    workloads.count_result(phase, result, frame_bits)
    assert (phase.attempted, phase.failed, phase.wrong) == (1, 1, 1)


def test_tracer_charges_self_time_and_restores_every_wrapper():
    mod = types.ModuleType("perfbench_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    class Box:
        @staticmethod
        def twice(x):
            return 2 * x

    mod.inner, mod.outer, mod.Box = inner, outer, Box
    sys.modules[mod.__name__] = mod
    try:
        tr = tracing.Tracer().install((
            (mod.__name__, "outer", "a"),
            (mod.__name__, "inner", "b"),
            (mod.__name__, "Box.twice", "c"),
            (mod.__name__, "gone", "d"),
        ))
        assert mod.outer is not outer and mod.inner is not inner
        assert mod.outer(1) == 4 and Box.twice(3) == 6
        snap = tr.snapshot()
        out = snap[f"a|{mod.__name__}:outer"]
        inn = snap[f"b|{mod.__name__}:inner"]
        assert out["calls"] == inn["calls"] == 1
        assert out["self_s"] + inn["self_s"] == pytest.approx(out["total_s"])
        assert tr.missing == [f"{mod.__name__}:gone"]
        tr.restore()
        assert mod.outer is outer and mod.inner is inner
        assert isinstance(inspect.getattr_static(Box, "twice"), staticmethod)
        assert Box.twice(3) == 6
    finally:
        del sys.modules[mod.__name__]


def test_traced_run_leaves_no_wrapper_in_the_program():
    originals = {}
    for module_name, attr, _ in tracing.TARGETS:
        owner = __import__(module_name, fromlist=["_"])
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        originals[(module_name, attr)] = inspect.getattr_static(owner, name)
    tr = tracing.Tracer().install()
    assert not tr.missing
    wl = workloads.make("cells-near", ROOT, ROOT / ".perfbench_work")
    wl.n_inputs = 1
    try:
        wl.setup(seed=3)
        wl.call(0)
    finally:
        tr.restore()
    stages, _ = tracing.by_stage(tr.snapshot())
    assert stages["reader.sync"] > 0 and stages["synth.ap_tx"] > 0
    for (module_name, attr), raw in originals.items():
        owner = __import__(module_name, fromlist=["_"])
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert inspect.getattr_static(owner, name) is raw, attr


def _serve_processes() -> list[int]:
    pids = []
    for proc in Path("/proc").iterdir():
        if not proc.name.isdigit():
            continue
        try:
            cmd = (proc / "cmdline").read_bytes()
        except OSError:
            continue
        if b"serve_boot.py" in cmd:
            pids.append(int(proc.name))
    return pids


def test_serve_run_leaves_no_process_behind():
    before = set(_serve_processes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-50",
         "--seed", "4", "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["mux.warm_downgrades"]["value"] == 5
    assert set(_serve_processes()) <= before
    assert not (ROOT / ".perfbench_work").exists()


def test_exits_non_zero_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "decode-1m",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:     # another run is using it
            pass
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_inputs_depend_only_on_the_seed():
    a = workloads.make("cells-near", ROOT, ROOT / ".perfbench_work")
    b = workloads.make("cells-near", ROOT, ROOT / ".perfbench_work")
    a.n_inputs = b.n_inputs = 1
    a.setup(seed=9)
    b.setup(seed=9)
    (psdu_a, scenes_a), (psdu_b, scenes_b) = a.cells[0], b.cells[0]
    assert psdu_a == psdu_b
    assert all(np.array_equal(x.h_b, y.h_b)
               for x, y in zip(scenes_a, scenes_b))
