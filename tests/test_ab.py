"""Smoke tests for ``tools/ab.py``: an A/A run of this checkout, with no git.

No timing is asserted; only that the tool runs both workers, checks their
outputs, and reports a well-formed result.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB = os.path.join(ROOT, "tools", "ab.py")
sys.path.insert(0, os.path.dirname(AB))

import ab  # noqa: E402


def ab_run(*args):
    return subprocess.run([sys.executable, AB, *args], capture_output=True, text=True, timeout=300, cwd=ROOT)


@pytest.mark.parametrize("workload, timing", [("train_groups", []), ("serve_latency", []), ("train_groups", ["--setup"])])
def test_an_a_a_run_of_this_checkout(workload, timing):
    out = ab_run("--base", ROOT, "--head", ROOT, "--workload", workload, "--size", "smoke", "--pairs", "3", *timing)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["timing"] == ("setup" if timing else "pass") and result["pairs"] == 3
    assert result["outputs_match"]
    lo, hi = result["interval"]
    assert 0 < lo <= result["ratio"] <= hi
    assert result["head_wins"] + result["base_wins"] <= 3
    assert result["coverage"] == 0.75
    assert result["base_ms"] > 0 and result["head_ms"] > 0
    assert f"median time: base {result['base_ms']:.3f} ms, head {result['head_ms']:.3f} ms" in out.stdout
    assert {"nproc", "pinned_cpu", "python"} <= set(result["machine"])


def test_a_tree_without_the_program_is_refused(tmp_path):
    out = ab_run("--base", str(tmp_path), "--head", ROOT, "--workload", "train_groups", "--size", "smoke")
    assert out.returncode == 2
    assert "holds no src/tableprep" in out.stderr


@pytest.mark.parametrize(
    "n, k, coverage",
    # k of the classical order-statistic table for the median at 95%
    [(1, 1, 0.0), (5, 1, 0.9375), (6, 1, 0.96875), (10, 2, 0.978515625), (20, 6, 0.9586105346679688)],
)
def test_the_median_interval_takes_the_tabled_order_statistics(n, k, coverage):
    values = [float(i) for i in range(n, 0, -1)]
    assert ab.median_interval(values) == (float(k), float(n + 1 - k), coverage)
