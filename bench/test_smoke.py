"""Smoke test of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench/test_smoke.py

Runs the same job pipeline as the real workloads on verify 5,
count_classes(6, 3) and accumulate(3, 2) with attempts 2, and checks that
a run emits exactly the metrics BENCHMARK.json names, each with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

TINY = {
    "verify-5": {"kind": "verify", "n": 5, "instances": 13, "calibration": "fraction"},
    "classes-6-3": {"kind": "classes", "n": 6, "k": 3, "instances": 16, "classes": 4,
                    "calibration": "fraction"},
    "search-3-2": {"kind": "search", "n": 3, "k": 2, "seed": 0, "attempts": 2,
                   "classes": 1, "calibration": "numpy"},
}


def declared(section):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in config[section]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_emits_every_metric_with_its_unit(name, trace):
    result, jobs = run.measure(TINY[name], 0, trace, f"smoke-{name}")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {key: m["unit"] for key, m in result["metrics"].items()}
    assert emitted == declared("per_layer" if trace else "end_to_end")
    assert {key: m["unit"] for key, m in jobs["raw"].items()} == run.RAW_UNITS
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert len(jobs["plain"]) == 1 and len(jobs["traced"]) == int(trace)


def test_traced_spans_cover_the_layers():
    result, _ = run.measure(TINY["verify-5"], 0, True, "smoke-verify-5")
    value = {key: m["value"] for key, m in result["metrics"].items()}
    for layer in ("sptree.realize", "weights.spanning_trees", "numeric.transfer_current",
                  "extremal.verify_instance", "cli.main"):
        assert value[f"{layer}.calls"] > 0
    assert 0 < value["weights.tree_ratio"] <= 1


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify-8",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
