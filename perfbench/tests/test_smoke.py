"""Smoke tests for the benchmark: every workload runs at minimal size and passes its checks.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run([sys.executable, script, *args], capture_output=True, text=True,
                          timeout=300, cwd=cwd)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_and_passes_its_checks(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--size", "smoke")
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = run.PER_LAYER if trace else run.E2E
    assert {name: unit for name, unit, _ in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_metric_lists_match_benchmark_json():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json beside the benchmark")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "serve_small", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_generator_is_deterministic(tmp_path):
    for name in ("a", "b"):
        gen.generate("serve_latency", 5, str(tmp_path / name), "smoke")
    for name in os.listdir(tmp_path / "a"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_latency_seam_guard_fails_when_the_seam_is_bypassed():
    plan = gen.build_serve(gen.WORKLOADS["serve_latency"], 1, "smoke")["plan.json"]
    seam = workloads.LatencySeam(plan, 0.02)  # never called: as if the runner bypassed it
    checks = workloads.Checks()
    workloads.check_seam(seam, plan, 0.0, checks)
    assert len(checks.failures) == 3
