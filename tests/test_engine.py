import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableprep.engine import FAILED, OK, SKIPPED, execute, trace_to_json
from tableprep.ops import Pipeline, parse_pipeline
from tableprep.semantic import MockSemanticExecutor

from conftest import make_table, random_table


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
        assert execute(Pipeline(pipeline.ops[:k]), t).final == trace.steps[k - 1].table_after


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
