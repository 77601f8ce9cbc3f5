"""Smoke test of the benchmark itself: a handful of ops per workload.

Run from the root of a source checkout with

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric BENCHMARK.json declares is printed with its
unit, that a deliberately corrupted output is counted as a failed op, that
the traced run's counts repeat exactly, and that the benchmark refuses to
run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Per-layer metrics that are counts of work: identical on every traced run
# of one seed.
COUNT_UNITS = ("count", "count/cell", "count/term", "B")


def _run(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "0", "--max-ops", "2"))
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "1", "--max-ops", "1", "--corrupt-op", "0"))
    _assert_metrics(result, SPEC["per_layer"])
    assert not result["correct"] and result["failed"] == 1


def test_traced_counts_repeat_for_a_seed():
    def counts() -> dict:
        result = _result(_run("--workload", "table-closed", "--seed", "4", "--seconds", "1",
                              "--trace", "1", "--max-ops", "2"))
        assert result["correct"]
        return {k: v["value"] for k, v in result["metrics"].items()
                if v["unit"] in COUNT_UNITS}

    first = counts()
    assert first["pmf.joint_pmf.calls"] > 0 and first["special.poisson_weight.calls"] > 0
    assert counts() == first


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
