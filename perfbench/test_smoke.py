"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every named metric is printed with its unit, that the output
checks run and pass, that exact counts repeat across runs with one seed,
and that the benchmark refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-toy", "train-paper", "infer-toy")
EXACT_SUFFIXES = (".calls", ".gflop", ".bwd_useful_frac", "graph_nodes")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, seed=0, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


_cache = {}


def result(workload, trace, seed=0):
    key = (workload, trace, seed)
    if key not in _cache:
        p = run(workload, trace, seed)
        assert p.returncode == 0, p.stderr
        lines = p.stdout.strip().splitlines()
        _cache[key] = (lines[:-1], json.loads(lines[-1]))
    return _cache[key]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_with_unit(workload, trace):
    report, res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    metric_lines = [line for line in report if line.startswith("  ")
                    and not line.startswith("  check") and not line.startswith("  note")
                    and not line.startswith("  spans")]
    for line, m in zip(metric_lines, wanted):
        assert line.split()[2] == m["unit"], line
        if not trace:
            assert "(n=" in line, line
    assert any(line.split()[0] == "failed_ratio" for line in report)
    if not trace:
        # the median is printed but not gated
        assert any(line.split()[0].endswith("_ms_p50") and "not gated" in line
                   for line in report)
        assert all(res["metrics"][m["name"]]["value"] > 0 for m in wanted)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_output_checks_run_and_pass(workload, trace):
    report, res = result(workload, trace)
    checks = [line for line in report if line.startswith("  check ")]
    assert checks
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    names = " ".join(checks)
    assert "finite" in names
    if trace:
        assert "bit-identical" in names and "exact counts repeat" in names
    if workload == "infer-toy":
        assert "f64 copy" in names
    if workload == "train-paper":
        assert "f64 forward" in names


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_across_runs(workload):
    _, first = result(workload, 1, seed=5)
    _cache.pop((workload, 1, 5))
    _, second = result(workload, 1, seed=5)
    exact = [k for k in first["metrics"] if k.endswith(EXACT_SUFFIXES)]
    assert exact
    for k in exact:
        assert first["metrics"][k] == second["metrics"][k], k


def test_refuses_without_program_sources():
    bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        p = run("train-toy", 0, root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert p.returncode != 0
    assert "correct" not in p.stdout
