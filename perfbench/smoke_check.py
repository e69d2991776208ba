"""Smoke test of the benchmark itself, at tiny pair counts.

    python3 -m pytest perfbench/smoke_check.py

Every workload in both modes must print, as its last line, a result whose
metrics are exactly the ones BENCHMARK.json declares for that mode, each with
its declared unit, and whose output checks all pass.  A directory holding
only BENCHMARK.json and the benchmark's own files must make it fail without
printing a result.  The file name keeps it out of the default test run.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace, pairs=20000):
    return subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--pairs", str(pairs)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_declared_metrics_and_checks(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
