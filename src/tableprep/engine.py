"""Pipeline execution with full intermediate traces.

Failure policy: the first operator error truncates the pipeline. The failed
step is recorded, every later step is marked skipped, and the trace's final
table is the last successfully produced one, so downstream QA always has a
usable table.

Sharing rule: each thread keeps a memo of the tables derived from one input
table. Calls on the same thread that pass the same table object and the same
executor object (``is``) share it: a step whose operator prefix an earlier
call already ran successfully reuses that call's table instead of running the
operator again. So the candidates of one group, scored back to back, run each
distinct prefix once, and candidates sharing a prefix share its one semantic
call (with a chat-model executor, one request). Only successful steps are
stored; a failing step runs again on every call, so a transient semantic
failure is retried. A call with another table or executor replaces the memo,
so a thread holds one table's derived tables at a time. Traces are
value-identical to running every step.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .errors import TablePrepError
from .ops import (
    AddColumnOp,
    CleanColumnOp,
    FilterOp,
    GroupByOp,
    OperatorSpec,
    Pipeline,
    SelectOp,
    SortByOp,
    canonical_key,
    exec_filter,
    exec_group_by,
    exec_select,
    exec_sort_by,
)
from .semantic import SemanticExecutor, exec_add_column, exec_clean_column
from .table import Table

OK = "ok"
FAILED = "failed"
SKIPPED = "skipped"


@dataclass(frozen=True)
class StepRecord:
    spec: OperatorSpec
    status: str
    table_after: Table
    error: str | None = None


@dataclass(frozen=True)
class ExecutionTrace:
    initial: Table
    steps: tuple[StepRecord, ...]
    final: Table
    truncated_at: int | None = None


class _NoExecutor:
    """Placeholder when no semantic executor is configured; semantic ops fail."""

    def infer_column(self, table, new_column, description):
        raise TablePrepError("no semantic executor configured")

    def rewrite_column(self, table, column, description):
        raise TablePrepError("no semantic executor configured")


_NO_EXECUTOR = _NoExecutor()

# per thread: (input table, executor, trie root); a trie node maps an operator
# spec to (the table it produced, child node)
_memo = threading.local()


def apply_operator(spec: OperatorSpec, table: Table, executor: SemanticExecutor) -> Table:
    if isinstance(spec, SelectOp):
        return exec_select(table, spec.columns)
    if isinstance(spec, FilterOp):
        return exec_filter(table, spec.column, spec.cmp, spec.value)
    if isinstance(spec, SortByOp):
        return exec_sort_by(table, spec.column, spec.order, spec.k)
    if isinstance(spec, GroupByOp):
        return exec_group_by(table, spec.column)
    if isinstance(spec, AddColumnOp):
        return exec_add_column(table, spec.new_column, spec.description, executor)
    if isinstance(spec, CleanColumnOp):
        return exec_clean_column(table, spec.column, spec.description, executor)
    raise TablePrepError(f"unsupported operator spec {type(spec).__name__}")


def execute(pipeline: Pipeline, table: Table, executor: SemanticExecutor | None = None) -> ExecutionTrace:
    """Run the pipeline, capturing every intermediate table and step status.

    Never raises for operator-level failures; those are recorded in the trace.
    Steps this thread already ran on ``table`` with ``executor`` are reused
    (see the module docstring).
    """
    ex = executor if executor is not None else _NO_EXECUTOR
    memo = getattr(_memo, "state", None)
    if memo is None or memo[0] is not table or memo[1] is not ex:
        memo = _memo.state = (table, ex, {})
    node = memo[2]
    current = table
    steps: list[StepRecord] = []
    truncated_at: int | None = None
    for i, spec in enumerate(pipeline.ops):
        if truncated_at is not None:
            steps.append(StepRecord(spec, SKIPPED, current))
            continue
        hit = node.get(spec)
        if hit is not None:
            current, node = hit
            steps.append(StepRecord(spec, OK, current))
            continue
        try:
            current = apply_operator(spec, current, ex)
        except TablePrepError as err:
            truncated_at = i
            steps.append(StepRecord(spec, FAILED, current, error=str(err)))
            continue
        child: dict = {}
        node[spec] = (current, child)
        node = child
        steps.append(StepRecord(spec, OK, current))
    return ExecutionTrace(table, tuple(steps), current, truncated_at)


def trace_to_json(trace: ExecutionTrace) -> dict:
    """Shape used by the CLI's ``exec --trace`` output."""
    return {
        "initial": {"rows": trace.initial.n_rows, "cols": trace.initial.n_cols},
        "final": {"rows": trace.final.n_rows, "cols": trace.final.n_cols},
        "truncated_at": trace.truncated_at,
        "steps": [
            {
                "op": canonical_key(step.spec),
                "status": step.status,
                "rows": step.table_after.n_rows,
                "cols": step.table_after.n_cols,
                **({"error": step.error} if step.error else {}),
            }
            for step in trace.steps
        ],
    }
