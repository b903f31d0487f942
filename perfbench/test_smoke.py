"""Smoke test of the benchmark at tiny sizes (under two minutes).

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the correctness gate trips on a wrong verdict injected from the benchmark
side, that compare.py reads result sets, and that the benchmark refuses to
run without the library sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module")
def results_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("results")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit(workload, trace, results_dir):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                "--out", str(results_dir))
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_compare_reads_result_sets(results_dir):
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(results_dir), str(results_dir)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in WORKLOADS:
        assert f"{name:<14} ops_per_s" in proc.stdout


def test_compare_verdicts():
    import compare

    assert compare.verdict([10, 10.2, 9.8, 10.1], [10.5, 10.4, 10.6, 10.5], "lower", 0.1) == "within-bound"
    assert compare.verdict([10, 10.2, 9.8, 10.1], [12, 12.4, 12.6, 12.5], "lower", 0.1) == "worse"
    assert compare.verdict([10, 10.2, 9.8, 10.1], [8, 8.4, 8.6, 8.5], "higher", 0.1) == "worse"
    assert compare.verdict([5, 10, 15, 20], [11, 12, 13, 14], "lower", 0.1) == "unresolved"


def test_gate_trips_on_injected_wrong_verdict():
    result = _result(_run("--workload", "extract_b", "--seed", "3", "--seconds", "1",
                          "--inject-wrong-verdict"))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_check_rejects_a_wrong_verdict(workload):
    import chevalley
    import workloads

    wl = workloads.WORKLOADS[workload]()
    wl.setup(chevalley)
    spec = next(wl.inputs(3))
    assert wl.run(spec)[0]
    assert not wl.run(spec, corrupt=True)[0]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "extract_b", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
