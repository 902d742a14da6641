"""Pinned work counts of every benchmark workload.

Each workload runs traced at smoke size (seed 3) through ``perfbench/run.py``
in a child process, as ``perfbench/tests/test_smoke.py`` runs it. The counts
its per-layer metrics report (requests, rows, cells, calls, steps) are
deterministic, so a change that does more or less work fails here even when
its timings are too noisy to show it. ``runner.instance_ms.count`` is left
out: it counts timed passes, not work. A change that moves a count on purpose
updates the pin and states the old and new values in ``CHANGES.md``.

Counts are compared as numbers: a median over an even number of passes
prints ``8.0`` where an odd number prints ``8``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

# counts shared by every workload that does not run that layer
_NO_GATE = {"reward.calls": 0, "reward.cells_scanned": 0, "gate.groups": 0, "gate.attempts": 0}
_NO_SERVE = {
    "table.markdown_calls": 0, "llm.requests": 0, "llm.retries": 0, "llm.request_failures": 0,
    "merge.calls": 0, "merge.ops_out": 0, "rollback.qa_calls": 0,
    "rollback.state1": 0, "rollback.state2": 0, "rollback.state3": 0,
}

PINS = {
    "serve_small": {
        "table.cells_ingested": 1488, "table.markdown_calls": 8,
        "llm.requests": 40, "llm.retries": 0, "llm.request_failures": 0,
        "merge.calls": 8, "merge.ops_out": 19,
        "engine.steps_ok": 19, "engine.steps_failed": 0, "engine.steps_skipped": 0,
        "ops.rows_in": 296, "semantic.calls": 3,
        "rollback.qa_calls": 16, "rollback.state1": 2, "rollback.state2": 2, "rollback.state3": 4,
        **_NO_GATE,
    },
    "serve_large": {
        "table.cells_ingested": 21744, "table.markdown_calls": 3,
        "llm.requests": 15, "llm.retries": 0, "llm.request_failures": 0,
        "merge.calls": 3, "merge.ops_out": 8,
        "engine.steps_ok": 8, "engine.steps_failed": 0, "engine.steps_skipped": 0,
        "ops.rows_in": 3709, "semantic.calls": 0,
        "rollback.qa_calls": 6, "rollback.state1": 1, "rollback.state2": 1, "rollback.state3": 1,
        **_NO_GATE,
    },
    "serve_latency": {
        "table.cells_ingested": 224, "table.markdown_calls": 6,
        "llm.requests": 36, "llm.retries": 6, "llm.request_failures": 11,
        "merge.calls": 5, "merge.ops_out": 11,
        "engine.steps_ok": 11, "engine.steps_failed": 0, "engine.steps_skipped": 0,
        "ops.rows_in": 61, "semantic.calls": 1,
        "rollback.qa_calls": 10, "rollback.state1": 1, "rollback.state2": 1, "rollback.state3": 3,
        **_NO_GATE,
    },
    "train_groups": {
        **_NO_SERVE,
        "table.cells_ingested": 4933,
        "engine.steps_ok": 58, "engine.steps_failed": 3, "engine.steps_skipped": 0,
        "ops.rows_in": 1194, "semantic.calls": 2,
        "reward.calls": 56, "reward.cells_scanned": 7150, "gate.groups": 4, "gate.attempts": 7,
    },
}


def traced_counts(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", "1", "--size", "smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] == "count" and name != "runner.instance_ms.count"
    }


def test_every_workload_is_pinned():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(os.path.join(ROOT, "perfbench"))
    assert set(PINS) == set(gen.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(PINS))
def test_work_counts_are_pinned(workload):
    counts = traced_counts(workload)
    assert set(counts) == set(PINS[workload])
    moved = {name: (PINS[workload][name], value) for name, value in counts.items() if value != PINS[workload][name]}
    assert moved == {}, f"count: (pinned, now) {moved}"
