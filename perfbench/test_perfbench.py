"""Smoke test of the benchmark: metric names, restored attributes, bare dir.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
bench.import_srlab()


def _layer_attributes():
    import srlab._streams
    import srlab.integrator
    import srlab.mc
    import srlab.model
    return {
        "batch_to_physical": srlab.integrator.batch_to_physical,
        "batch_from_physical": srlab.integrator.batch_from_physical,
        "DriftModel.f": srlab.model.DriftModel.__dict__["f"],
        "mode_stream": srlab._streams.mode_stream,
        "simulate_batch": srlab.mc.simulate_batch,
        "simulate_linear_mode": srlab.mc.simulate_linear_mode,
        "run_batch": srlab.mc.run_batch,
        "transition_probability": srlab.mc.transition_probability,
    }


def _result(capsys, *args):
    assert bench.main(["--smoke", "--seconds", "0.1", *args]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], detail["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    return detail, result["metrics"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_and_attributes_are_restored(workload, capsys):
    before = _layer_attributes()
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        detail, metrics = _result(capsys, "--workload", workload,
                                  "--seed", "3", "--trace", str(trace))
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in metrics.items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
        assert set(detail["environment"]) >= {"cpu_count", "nproc", "workers",
                                              "numpy", "python"}
        assert _layer_attributes() == before
    assert metrics["integrator.calls"]["value"] == (
        0 if workload == "variance_k8" else metrics["mc.chunks"]["value"])


def test_bare_benchmark_directory_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "variance_k8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_map_covers_every_per_layer_metric():
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    mapped = {m for layer in layers["layers"] for m in layer["metrics"]}
    assert mapped == {m["name"] for m in SPEC["per_layer"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert all(move["workload"] in workloads
               for layer in layers["layers"] for move in layer["moves"])
