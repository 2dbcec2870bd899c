"""Self-test of the benchmark on tiny scenes.

    python3 -m pytest -q benchmark/tests

Checks that every metric BENCHMARK.json names is emitted with its unit for
every workload, in both modes, and that a failed output check is counted in
the error rate instead of aborting the run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run as bench  # noqa: E402
from scenes import HEX_MESHES, WORKLOAD_COMMANDS, write_scenes  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_benchmark_json_workloads_are_known():
    assert set(WORKLOADS) <= set(WORKLOAD_COMMANDS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(WORKLOAD_COMMANDS))
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result = bench.measure(workload, seed=5, seconds=0.0, trace=trace,
                           work=str(tmp_path), tiny=True)
    line = bench.contract_line(result, SPEC)
    section = "per_layer" if trace else "end_to_end"
    assert list(line["metrics"]) == [m["name"] for m in SPEC[section]]
    for entry in SPEC[section]:
        metric = line["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"], entry["name"]
        assert isinstance(metric["value"], (int, float)), entry["name"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 3
    assert result["end_to_end"]["error_rate"] == (0.0, "ratio")
    if not trace:
        assert result["end_to_end"]["setup_s"][0] > 0.0
    json.dumps(line)  # the last output line must serialize


def test_setup_probe_stops_at_the_first_step(tmp_path):
    # On tiny scenes set-up and the whole command take about the same time,
    # so a timing comparison would be noise; instead the probe must end the
    # command before it writes any output.
    scenes = write_scenes("demo_run", str(tmp_path / "scene"), seed=5, tiny=True)
    ctx = bench.Context("run", scenes, str(tmp_path))
    setup = bench._setup_probe(ctx, 0)
    assert setup is not None and setup > 0.0
    assert not os.path.exists(tmp_path / "out")


def test_hex_scenes_follow_the_seed(tmp_path):
    def mesh_bytes(seed, name):
        scenes = write_scenes("hexblock_snapshots", str(tmp_path / name), seed, tiny=True)
        assert [s.jitter_seed for s in scenes] == [seed * HEX_MESHES + k for k in range(HEX_MESHES)]
        blocks = []
        for scene in scenes:
            with open(os.path.join(os.path.dirname(scene.scenario), "block.mesh"), "rb") as fh:
                blocks.append(fh.read())
        return blocks

    first, again, other = mesh_bytes(3, "a"), mesh_bytes(3, "b"), mesh_bytes(4, "c")
    assert first == again
    assert len(set(first)) == HEX_MESHES
    assert not set(first) & set(other)


def test_corrupted_snapshot_counts_in_error_rate(tmp_path, monkeypatch):
    real_spawn = bench._spawn
    cli_runs = []

    def corrupting_spawn(argv, cwd):
        done = real_spawn(argv, cwd)
        if argv[1:2] == ["-c"] and "--out" in argv:  # untraced CLI repetitions only
            cli_runs.append(argv)
            if len(cli_runs) == 2:
                out_dir = argv[argv.index("--out") + 1]
                snapshot = sorted(f for f in os.listdir(out_dir) if f.startswith("snapshot_")
                                  and f.endswith(".csv"))[0]
                with open(os.path.join(out_dir, snapshot), "a", encoding="utf-8") as fh:
                    fh.write("0,0,0,0,0\n")
        return done

    monkeypatch.setattr(bench, "_spawn", corrupting_spawn)
    result = bench.measure("demo_run", seed=5, seconds=0.0, trace=False,
                           work=str(tmp_path), tiny=True, min_reps=3)
    line = bench.contract_line(result, SPEC)
    assert len(cli_runs) == 3
    assert line["failed"] == 1 and not line["correct"]
    assert result["end_to_end"]["error_rate"][0] == pytest.approx(1 / line["attempted"])
    assert [r["ok"] for r in result["repetitions"]] == [True, False, True]
    assert "differ from the first repetition" in result["repetitions"][1]["message"]
    assert all(c["ok"] for c in result["checks"])


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_child_spans():
    trace = {
        "spawn": 0.0, "import_end": 0.5, "wall_s": 3.0, "estimates": [[23, True], [5, False]],
        "spans": [
            ["integrator.run", 1.0, 2.5, -1],
            ["kernels.apply", 1.1, 1.6, 0],
            ["material.evaluate", 1.2, 1.3, 1],
            ["kernels.apply", 1.7, 2.0, 0],
        ],
    }
    stats = bench._layer_stats(trace)
    layers = stats["layers"]
    assert layers["integrator.run"]["s"] == pytest.approx(1.5 - 0.8)
    assert layers["kernels.apply"]["s"] == pytest.approx(0.8 - 0.1)
    assert layers["kernels.apply"]["calls"] == 2
    assert stats["import_s"] == pytest.approx(0.5)
    assert stats["unattributed_s"] == pytest.approx(3.0 - 0.5 - 1.5)
    assert (stats["iterations"], stats["unconverged"]) == (28, 1)


def test_high_percentile_keeps_ten_samples_beyond():
    assert bench._hi_percentile(list(range(30)), 30)[1] == 50.0
    assert bench._hi_percentile(list(range(100)), 100)[1] == 90.0
    assert bench._hi_percentile(list(range(1000)), 1000)[1] == 99.0
