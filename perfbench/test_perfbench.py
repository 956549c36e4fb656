"""Tests of the benchmark itself: every metric BENCHMARK.json names is
printed, traced runs repeat their counts exactly, and the runner refuses a
checkout without walshcs sources.

    python3 -m pytest perfbench

Runs each workload three times with --seconds 1 (several minutes).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OUT = Path(__file__).resolve().parent / "out"
EXACT_SUFFIXES = (".calls", ".points")
EXACT_NAMES = ("reconstruct.iterations", "reconstruct.applies_per_solve", "trace.spans")


def run_benchmark(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return result


def assert_metrics_match(metrics, spec):
    assert list(metrics) == [m["name"] for m in spec]
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    metrics = result_of(run_benchmark(workload, trace=0))["metrics"]
    assert_metrics_match(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_print_every_per_layer_metric_and_repeat_counts(workload):
    first = result_of(run_benchmark(workload, trace=1))["metrics"]
    second = result_of(run_benchmark(workload, trace=1))["metrics"]
    assert_metrics_match(first, SPEC["per_layer"])
    exact = [n for n in first if n.endswith(EXACT_SUFFIXES) or n in EXACT_NAMES]
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}
    for metrics in (first, second):
        assert metrics["trace.self_sum_s"]["value"] <= metrics["trace.wall_s"]["value"]
    if workload.startswith("solve"):
        applies = first["operator.apply.s"]["value"] + first["operator.apply_adjoint.s"]["value"]
        assert applies > 0.5 * first["reconstruct.solve_bpdn.s"]["value"]
        assert first["reconstruct.iterations"]["value"] > 0
    else:
        assert first["reconstruct.solve_bpdn.calls"]["value"] == 0
        assert first["operator.column.calls"]["value"] > 0


def test_fails_without_the_program():
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_benchmark(WORKLOADS[0], trace=0, cwd=bare)
        assert proc.returncode != 0
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        assert '"metrics"' not in last
    finally:
        shutil.rmtree(bare)
