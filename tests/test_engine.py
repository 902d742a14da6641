import ast
import gc
import json
import random
import threading
import weakref
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableprep import engine
from tableprep.engine import FAILED, OK, SKIPPED, ThreadScope, execute, trace_to_json
from tableprep.errors import ColumnExistsError, ColumnNotFoundError, ExecutorFailureError
from tableprep.ops import (
    AddColumnOp,
    CleanColumnOp,
    FilterOp,
    GroupByOp,
    Pipeline,
    SelectOp,
    SortByOp,
    parse_pipeline,
)
from tableprep.semantic import MockSemanticExecutor

from conftest import CountingExecutor, make_table, random_table
from oracles import ref_execute


@pytest.fixture
def table():
    return make_table(["a", "b"], [["x", 1], ["y", 2], ["x", 3]])


def pipe(*docs):
    return parse_pipeline(list(docs))


class TestExecute:
    def test_two_ok_steps(self, table):
        pipeline = pipe(
            {"operation": "select", "columns": ["a"]},
            {"operation": "filter", "column": "a", "cmp": "==", "value": "x"},
        )
        trace = execute(pipeline, table)
        assert [s.status for s in trace.steps] == [OK, OK]
        assert trace.final.n_rows == 2
        assert trace.truncated_at is None
        assert trace.steps[-1].table_after == trace.final

    def test_failure_truncates(self, table):
        pipeline = pipe(
            {"operation": "filter", "column": "ghost", "cmp": "==", "value": "x"},
            {"operation": "sort_by", "column": "a", "order": "asc"},
        )
        trace = execute(pipeline, table)
        assert [s.status for s in trace.steps] == [FAILED, SKIPPED]
        assert trace.final == table
        assert trace.truncated_at == 0
        assert "ghost" in trace.steps[0].error

    def test_empty_pipeline_is_identity(self, table):
        trace = execute(pipe(), table)
        assert trace.final == table
        assert trace.steps == ()

    def test_failure_mid_pipeline_keeps_last_good(self, table):
        pipeline = pipe(
            {"operation": "select", "columns": ["a"]},
            {"operation": "filter", "column": "b", "cmp": "==", "value": 1},
            {"operation": "group_by", "column": "a"},
        )
        trace = execute(pipeline, table)
        assert [s.status for s in trace.steps] == [OK, FAILED, SKIPPED]
        assert trace.final.columns == ("a",)
        assert trace.truncated_at == 1

    def test_semantic_without_executor_fails_step(self, table):
        pipeline = pipe({"operation": "add_column", "new_column": "g", "description": "infer"})
        trace = execute(pipeline, table)
        assert trace.steps[0].status == FAILED
        assert trace.final == table

    def test_no_executor_refuses_as_every_executor_does(self, table):
        for spec in (AddColumnOp("g", "infer"), CleanColumnOp("a", "tidy")):
            with pytest.raises(ExecutorFailureError, match="^no semantic executor configured$"):
                engine.apply_operator(spec, table, None)
            assert execute(Pipeline((spec,)), table).steps[0].error == "no semantic executor configured"

    def test_no_executor_refuses_only_after_the_column_checks(self, table):
        with pytest.raises(ColumnExistsError):
            engine.apply_operator(AddColumnOp("a", "infer"), table, None)
        with pytest.raises(ColumnNotFoundError):
            engine.apply_operator(CleanColumnOp("zz", "tidy"), table, None)

    def test_an_object_that_is_not_a_spec_is_a_bug(self, table):
        for call in (lambda: engine.apply_operator("select a", table, None), lambda: execute(Pipeline(("select a",)), table)):
            with pytest.raises(TypeError, match="^unsupported operator spec str$"):
                call()

    def test_trace_length_always_matches(self, rng):
        for _ in range(30):
            t = random_table(rng)
            n = rng.randint(0, 4)
            docs = [
                {"operation": "sort_by", "column": rng.choice(t.columns), "order": "asc"}
                for _ in range(n)
            ]
            trace = execute(pipe(*docs), t)
            assert len(trace.steps) == n


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), n_ops=st.integers(min_value=0, max_value=4))
def test_prefix_consistency_property(seed, n_ops):
    rng = random.Random(seed)
    t = random_table(rng)
    docs = []
    for _ in range(n_ops):
        kind = rng.choice(["select", "filter", "sort_by", "group_by"])
        column = rng.choice([*t.columns, "ghost"])
        if kind == "select":
            docs.append({"operation": "select", "columns": [column]})
        elif kind == "filter":
            docs.append({"operation": "filter", "column": column, "cmp": ">", "value": 3})
        elif kind == "sort_by":
            docs.append({"operation": "sort_by", "column": column, "order": "desc"})
        else:
            docs.append({"operation": "group_by", "column": column})
    pipeline = pipe(*docs)
    trace = execute(pipeline, t)
    # rollback's state 2 reads the first step's table instead of re-executing
    for k in range(1, len(pipeline) + 1):
        assert execute(Pipeline(pipeline[:k]), t).final == trace.steps[k - 1].table_after


def test_reexecution_with_mock_is_identical(table):
    executor = MockSemanticExecutor({"genders": {"x": "F", "y": "M"}})
    pipeline = pipe(
        {"operation": "add_column", "new_column": "g", "description": "genders"},
        {"operation": "filter", "column": "g", "cmp": "==", "value": "F"},
    )
    first = execute(pipeline, table, executor)
    second = execute(pipeline, table, executor)
    assert first == second
    assert first.final.n_rows == 2


def test_trace_json_shape(table):
    pipeline = pipe(
        {"operation": "select", "columns": ["a"]},
        {"operation": "filter", "column": "ghost", "cmp": "==", "value": 1},
        {"operation": "group_by", "column": "a"},
    )
    doc = trace_to_json(execute(pipeline, table))
    assert doc["initial"] == {"rows": 3, "cols": 2}
    assert doc["truncated_at"] == 1
    assert [s["status"] for s in doc["steps"]] == [OK, FAILED, SKIPPED]
    assert "error" in doc["steps"][1]
    json.dumps(doc)


# --- the per-thread prefix memo ----------------------------------------------


class RecordingExecutor:
    """Deterministic semantic executor that records each call and its outcome.

    ``add_column`` copies the table's first column; ``clean_column`` swaps the
    cell ``"x"`` for ``"z"``. A description of ``"broken"`` raises instead.
    """

    def __init__(self):
        self.calls = []  # (kind, table columns, name, description, ok)

    def _call(self, kind, table, name, description):
        ok = description != "broken"
        self.calls.append((kind, table.columns, name, description, ok))
        if not ok:
            raise ExecutorFailureError(f"{kind} refused")

    def infer_column(self, table, new_column, description):
        self._call("infer", table, new_column, description)
        return [row[0] for row in table.rows]

    def rewrite_column(self, table, column, description):
        self._call("rewrite", table, column, description)
        idx = table.columns.index(column)
        return ["z" if row[idx] == "x" else row[idx] for row in table.rows]


MEMO_COLUMNS = ["a", "b", "n", "ghost"]
memo_column = st.sampled_from(MEMO_COLUMNS)
memo_description = st.sampled_from(["copy", "broken"])
memo_operators = st.one_of(
    st.builds(SelectOp, st.lists(memo_column, min_size=1, max_size=2).map(tuple)),
    st.builds(FilterOp, memo_column, st.sampled_from(["==", ">"]), st.sampled_from(["x", Decimal(1)])),
    st.builds(SortByOp, memo_column, st.sampled_from(["asc", "desc"]), st.sampled_from([None, 1])),
    st.builds(GroupByOp, memo_column),
    st.builds(AddColumnOp, st.sampled_from(["n", "a"]), memo_description),
    st.builds(CleanColumnOp, memo_column, memo_description),
)
memo_groups = st.lists(
    st.lists(memo_operators, max_size=4).map(lambda ops: Pipeline(tuple(ops))), min_size=1, max_size=8
)


@st.composite
def memo_tables(draw):
    columns = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, unique=True))
    cells = st.sampled_from([0, 1, 2, "x", "y", None])
    rows = draw(st.lists(st.lists(cells, min_size=len(columns), max_size=len(columns)), max_size=4))
    return make_table(columns, rows)


@settings(max_examples=300, deadline=None)
@given(table=memo_tables(), group=memo_groups, repeat=st.booleans())
def test_memo_traces_equal_fresh_execution_and_share_each_semantic_prefix(table, group, repeat):
    if repeat:  # a candidate group often holds the same pipeline more than once
        group = group + group[:2]
    reference = [ref_execute(pipeline, table, RecordingExecutor()) for pipeline in group]
    executor = RecordingExecutor()
    for pipeline, want in zip(group, reference):
        got = execute(pipeline, table, executor)
        assert got.steps == want.steps  # spec, status, error and table, step by step
        assert got == want
    semantic = (AddColumnOp, CleanColumnOp)
    prefixes = {
        pipeline[: i + 1]
        for pipeline, trace in zip(group, reference)
        for i, step in enumerate(trace.steps)
        if step.status == OK and isinstance(step.spec, semantic)
    }
    assert sum(ok for *_, ok in executor.calls) == len(prefixes)
    # a refused semantic step is never stored, so every candidate reaching it asks again
    refused = sum(
        1 for trace in reference
        if trace.truncated_at is not None and trace.steps[trace.truncated_at].error.endswith("refused")
    )
    assert sum(not ok for *_, ok in executor.calls) == refused


def test_another_table_or_executor_starts_a_new_memo(table):
    pipeline = Pipeline((AddColumnOp("n", "copy"), FilterOp("n", "==", "x")))
    executor = RecordingExecutor()
    first = execute(pipeline, table, executor)
    assert execute(pipeline, table, executor) == first
    assert len(executor.calls) == 1
    twin = make_table(table.columns, [list(row) for row in table.rows])  # equal, but another object
    assert twin == table and twin is not table
    execute(pipeline, twin, executor)
    assert len(executor.calls) == 2
    execute(pipeline, table, executor)  # the twin's call replaced the memo
    assert len(executor.calls) == 3
    other = RecordingExecutor()
    assert execute(pipeline, table, other) == first
    assert len(other.calls) == 1 and len(executor.calls) == 3
    execute(pipeline, table, executor)
    assert len(executor.calls) == 4


def test_threads_on_different_tables_keep_their_own_memo():
    both_inside = threading.Barrier(2, timeout=10)

    class MeetingExecutor(RecordingExecutor):
        def infer_column(self, table, new_column, description):
            if not self.calls:  # hold each thread's first call until the other thread is in execute too
                both_inside.wait()
            return super().infer_column(table, new_column, description)

    pipeline = Pipeline((AddColumnOp("n", "copy"), SortByOp("n", "desc"), FilterOp("b", ">", Decimal(1))))
    tables = {
        "left": make_table(["a", "b"], [["x", 1], ["y", 2]]),
        "right": make_table(["b", "a"], [[3, "q"], [0, "x"], [2, "x"]]),
    }
    results = {}

    def work(name):
        try:
            executor = MeetingExecutor()
            traces = [execute(pipeline, tables[name], executor) for _ in range(3)]
            results[name] = (traces, len(executor.calls))
        except BaseException as err:  # reported by the assertion below
            results[name] = err

    threads = [threading.Thread(target=work, args=(name,)) for name in tables]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for name, table in tables.items():
        traces, calls = results[name]
        want = ref_execute(pipeline, table, RecordingExecutor())
        assert traces == [want] * 3
        assert calls == 1


def test_a_wording_variant_applies_no_operator_again(table, monkeypatch):
    applied = []
    apply_operator = engine.apply_operator

    def counted(spec, *args):
        applied.append(spec)
        return apply_operator(spec, *args)

    monkeypatch.setattr(engine, "apply_operator", counted)
    executor = CountingExecutor()
    ops = (AddColumnOp("n", "infer n", explanation="one"), CleanColumnOp("a", "tidy a", explanation="one"),
           FilterOp("b", ">", Decimal(1), explanation="one"))
    first = execute(Pipeline(ops), table, executor)
    reworded = tuple(replace(op, explanation="other words") for op in ops)
    assert execute(Pipeline(reworded), table, executor) == first
    assert execute(Pipeline((*reworded[:2], SortByOp("n", "asc"))), table, executor).steps[-1].status == OK
    assert [spec.kind for spec in applied] == ["add_column", "clean_column", "filter", "sort_by"]
    assert (executor.infer_calls, executor.rewrite_calls) == (1, 1)


def test_a_semantic_step_that_raised_runs_again_for_the_next_candidate(table):
    class FlakyExecutor(RecordingExecutor):
        def infer_column(self, table, new_column, description):
            if not self.calls:
                self.calls.append(("infer", table.columns, new_column, description, False))
                raise ExecutorFailureError("transient")
            return super().infer_column(table, new_column, description)

    executor = FlakyExecutor()
    add = AddColumnOp("n", "copy")
    first = execute(Pipeline((add, FilterOp("n", "==", "x"))), table, executor)
    assert [s.status for s in first.steps] == [FAILED, SKIPPED]
    second = execute(Pipeline((add, SortByOp("n", "asc"))), table, executor)
    assert [s.status for s in second.steps] == [OK, OK]
    third = execute(Pipeline((add, GroupByOp("n"))), table, executor)
    assert [s.status for s in third.steps] == [OK, OK]
    assert len(executor.calls) == 2
    assert third.steps[0].table_after is second.steps[0].table_after


class _Key:
    """An object that compares equal to every other ``_Key`` and can be weakly referenced."""

    def __eq__(self, other):
        return isinstance(other, _Key)


class TestThreadScope:
    def test_the_same_pair_gets_the_same_value(self):
        made = []
        scope = ThreadScope(lambda: made.append(1) or {})
        a, b = _Key(), _Key()
        value = scope.memo(a, b)
        assert scope.memo(a, b) is value and made == [1]

    def test_an_equal_but_distinct_object_starts_a_fresh_value(self):
        scope = ThreadScope(dict)
        a, b = _Key(), _Key()
        value = scope.memo(a, b)
        twin = _Key()
        assert twin == a and twin is not a
        assert scope.memo(twin, b) is not value
        assert scope.memo(a, twin) is not value

    def test_another_pair_replaces_the_value(self):
        scope = ThreadScope(dict)
        a, b, c = _Key(), _Key(), _Key()
        first = scope.memo(a, b)
        first["kept"] = 1
        second = scope.memo(a, c)
        assert second == {} and second is not first
        back = scope.memo(a, b)  # (a, c) replaced the first value
        assert back == {} and back is not first

    def test_the_held_pair_stays_alive(self):
        scope = ThreadScope(dict)
        a, b = _Key(), _Key()
        refs = weakref.ref(a), weakref.ref(b)
        scope.memo(a, b)
        del a, b
        gc.collect()
        assert all(ref() is not None for ref in refs)  # so no id of a kept key is reused
        scope.memo(_Key(), _Key())
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_threads_keep_their_own_values(self):
        scope = ThreadScope(list)
        both_hold = threading.Barrier(2, timeout=10)
        pairs = {"left": (_Key(), _Key()), "right": (_Key(), _Key())}
        results = {}

        def work(name):
            try:
                value = scope.memo(*pairs[name])
                value.append(name)
                both_hold.wait()  # each thread holds its value while the other sets its own
                again = scope.memo(*pairs[name])
                results[name] = (again is value, list(again))
            except BaseException as err:  # reported by the assertion below
                results[name] = err

        threads = [threading.Thread(target=work, args=(name,)) for name in pairs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert results == {"left": (True, ["left"]), "right": (True, ["right"])}


def test_thread_scope_is_the_only_thread_local():
    """``threading.local`` appears in the package only as the base of
    ``engine.ThreadScope``, so per-thread sharing keeps one mechanism."""
    uses = []
    for path in sorted(Path(engine.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bases = {id(base): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for base in node.bases}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("threading", "_thread"):
                uses += [(path.name, f"import {alias.name}") for alias in node.names if alias.name in ("local", "_local")]
            if isinstance(node, ast.Attribute) and node.attr in ("local", "_local"):
                if ast.unparse(node.value) in ("threading", "_thread"):
                    uses.append((path.name, bases.get(id(node))))
    assert uses == [("engine.py", "ThreadScope")]


def test_the_semantic_operators_alone_refuse_a_missing_executor():
    """``engine.py`` stands in no executor of its own: it defines no executor
    method and names no executor refusal, so ``None`` reaches the operators."""
    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not defined & {"infer_column", "rewrite_column"}
    assert "ExecutorFailureError" not in names
