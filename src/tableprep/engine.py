"""Pipeline execution with full intermediate traces.

Failure policy: the first operator error truncates the pipeline. The failed
step is recorded, every later step is marked skipped, and the trace's final
table is the last successfully produced one, so downstream QA always has a
usable table.

Execution shares work between calls on one thread (:class:`ThreadScope`),
scoped to one input table and one executor. It keeps the table each successful
operator prefix produced, so each distinct prefix runs once, and the trace of
each pipeline that ran with no failed step, which that pipeline gets back. A
failed step is never kept, so a transient semantic failure is retried. Specs
compare without their explanations, so an operator that differs from one
already run only in its explanation runs no second time, and a trace taken
from the memo may carry an earlier variant's explanation text.
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


class ThreadScope(threading.local):
    """Per-thread work shared between calls on the same pair of objects.

    ``memo(a, b)`` returns this thread's ``make()`` value for ``a`` and ``b``,
    compared by ``is``, so an equal but distinct object starts a fresh value.
    A call with another pair replaces the value, so a thread holds one pair's
    work at a time, and threads never see each other's. The held pair stays
    alive while it is held; an entry of the value keyed by an object's ``id``
    stores that object beside it, so no key's ``id`` is reused while it is a
    key. Results taken from the value equal computing them afresh; only the
    work skipped changes.
    """

    def __init__(self, make):
        self._make = make
        self._held = None

    def memo(self, a, b):
        held = self._held
        if held is None or held[0] is not a or held[1] is not b:
            held = self._held = (a, b, self._make())
        return held[2]


# per (input table, executor): (trie root, traces); a trie node maps an
# operator spec to (the table it produced, child node), and traces maps the ops
# of each pipeline that ran with no failed step to its trace
_SCOPE = ThreadScope(lambda: ({}, {}))


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
    Steps and whole traces this thread already ran on ``table`` with
    ``executor`` are reused (see the module docstring).
    """
    ex = executor if executor is not None else _NO_EXECUTOR
    node, traces = _SCOPE.memo(table, ex)
    trace = traces.get(pipeline.ops)
    if trace is not None:
        return trace
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
    trace = ExecutionTrace(table, tuple(steps), current, truncated_at)
    if truncated_at is None:
        traces[pipeline.ops] = trace
    return trace


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
