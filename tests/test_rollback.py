import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableprep.errors import QaTransportError, RequestFailedError, TablePrepError
from tableprep.llm import GenerationConfig
from tableprep.ops import AddColumnOp, CleanColumnOp, FilterOp, GroupByOp, Pipeline, SelectOp, SortByOp, parse_pipeline
from tableprep.rollback import (
    CellLookupQaClient,
    HttpQaClient,
    answer_with_rollback,
    detect_no_data,
)
from tableprep.semantic import MockSemanticExecutor

from conftest import CountingExecutor, FlakyTransport, SequenceQaClient, make_table
from oracles import ref_answer_with_rollback

NO_DATA = "No data available"


def pipe(*docs):
    return parse_pipeline(list(docs))


@pytest.fixture
def table():
    return make_table(["name", "score"], [["target", 9], ["other", 3], ["third", 5]])


@pytest.fixture
def pipeline():
    # op1 keeps the answer; op2 filters it away
    return pipe(
        {"operation": "select", "columns": ["name", "score"]},
        {"operation": "filter", "column": "name", "cmp": "==", "value": "other"},
    )


class TestDetectNoData:
    def test_exact_phrase(self):
        assert detect_no_data("No data available")

    def test_case_and_punctuation(self):
        assert detect_no_data("NO DATA AVAILABLE.")
        assert detect_no_data("  no\n data\tavailable ")

    def test_regular_answer(self):
        assert not detect_no_data("The answer is 42")

    def test_embedded_phrase(self):
        assert detect_no_data("Sorry, no data available for that year")


class TestRollbackStates:
    @pytest.mark.parametrize(
        "responses,expected_state,expected_calls",
        [
            (["42"], 1, 1),
            ([NO_DATA, "42"], 2, 2),
            ([NO_DATA, NO_DATA, "42"], 3, 3),
            ([NO_DATA, NO_DATA, NO_DATA], 3, 3),
        ],
    )
    def test_behavior_table(self, table, pipeline, responses, expected_state, expected_calls):
        qa = SequenceQaClient(responses)
        result = answer_with_rollback("q", table, pipeline, qa)
        assert result.state_used == expected_state
        assert result.qa_calls == expected_calls
        assert result.qa_calls == qa.calls
        assert result.answer == responses[min(expected_calls, len(responses)) - 1]

    def test_never_answers_returns_state3_verbatim(self, table, pipeline):
        qa = SequenceQaClient([NO_DATA])
        result = answer_with_rollback("q", table, pipeline, qa)
        assert result.state_used == 3
        assert result.answer == NO_DATA

    def test_tables_tried_sizes(self, table, pipeline):
        qa = SequenceQaClient([NO_DATA, NO_DATA, "x"])
        result = answer_with_rollback("q", table, pipeline, qa)
        # state 1: filtered to 1 row; state 2: select only; state 3: original
        assert result.tables_tried == ((1, 2), (3, 2), (3, 2))

    def test_state3_submits_original(self, table, pipeline):
        seen = []

        class Spy:
            def ask(self, question, submitted):
                seen.append(submitted)
                return NO_DATA

        answer_with_rollback("q", table, pipeline, Spy())
        assert seen[2] == table

    def test_state2_reuses_trace_table(self, table):
        # op1 fails, so state 2 falls back to the truncated (original) table
        pipeline = pipe(
            {"operation": "filter", "column": "ghost", "cmp": "==", "value": 1},
            {"operation": "select", "columns": ["name"]},
        )
        seen = []

        class Spy:
            def ask(self, question, submitted):
                seen.append(submitted)
                return NO_DATA

        answer_with_rollback("q", table, pipeline, Spy())
        assert seen[0] == table and seen[1] == table and seen[2] == table


    def test_one_operator_pipeline_asks_twice_about_one_table(self, table):
        """With one operator, states 1 and 2 both submit ``trace.final``, so a
        refused answer repeats the same QA call; pinned at today's three calls."""
        seen = []

        class Spy:
            def ask(self, question, submitted):
                seen.append(submitted)
                return NO_DATA

        result = answer_with_rollback("q", table, pipe({"operation": "select", "columns": ["name"]}), Spy())
        assert result.qa_calls == 3
        assert seen[0] is seen[1] is result.trace.final and seen[2] is table


class TestEmptyPipeline:
    def test_short_circuit_default(self, table):
        qa = SequenceQaClient(["42"])
        result = answer_with_rollback("q", table, pipe(), qa)
        assert result.qa_calls == 1
        assert result.state_used == 3
        assert result.tables_tried == ((3, 2),)


class TestExecutorEconomy:
    def test_semantic_ops_run_once(self, table):
        executor = CountingExecutor()
        pipeline = pipe(
            {"operation": "add_column", "new_column": "g", "description": "infer"},
            {"operation": "filter", "column": "g", "cmp": "==", "value": "none"},
        )
        qa = SequenceQaClient([NO_DATA, NO_DATA, NO_DATA])
        result = answer_with_rollback("q", table, pipeline, qa, executor)
        assert result.qa_calls == 3
        # state 2 reuses the trace's first-op output instead of re-running it
        assert executor.infer_calls == 1


class TestTransportErrors:
    def test_error_carries_state(self, table, pipeline):
        class Flaky:
            def __init__(self):
                self.calls = 0

            def ask(self, question, submitted):
                self.calls += 1
                if self.calls == 2:
                    raise TablePrepError("boom")
                return NO_DATA

        with pytest.raises(QaTransportError) as exc:
            answer_with_rollback("q", table, pipeline, Flaky())
        assert exc.value.state == 2
        assert str(exc.value) == "rollback state 2: boom"


class TestCellLookupQaClient:
    def test_answers_when_cell_present(self, table):
        qa = CellLookupQaClient({"q": ["target"]})
        assert qa.ask("q", table) == "target"

    def test_no_data_when_absent(self):
        qa = CellLookupQaClient({"q": ["target"]})
        assert qa.ask("q", make_table(["a"], [["other"]])) == NO_DATA

    def test_numeric_rendering(self):
        qa = CellLookupQaClient({"q": ["9"]})
        assert qa.ask("q", make_table(["a"], [[9]])) == "9"

    def test_rollback_recovers_dropped_answer(self, table):
        # merged pipeline drops the answer row; state 2 (select only) has it
        pipeline = pipe(
            {"operation": "select", "columns": ["name"]},
            {"operation": "filter", "column": "name", "cmp": "==", "value": "other"},
        )
        qa = CellLookupQaClient({"q": ["target"]})
        result = answer_with_rollback("q", table, pipeline, qa)
        assert result.state_used == 2
        assert result.answer == "target"


class TestHttpQaClient:
    def test_recovers_after_retries(self, table, backoffs):
        transport = FlakyTransport(text="target", fail_first=2)
        qa = HttpQaClient(transport, GenerationConfig(retries=2))
        assert qa.ask("q", table) == "target"
        assert transport.attempts[0] == 3
        assert backoffs == [0.1, 0.2]

    def test_exhausted_retries_raise_request_failed_and_rollback_names_the_state(self, table, pipeline, backoffs):
        transport = FlakyTransport(fail_first=3)
        qa = HttpQaClient(transport, GenerationConfig(retries=2))
        with pytest.raises(RequestFailedError, match="^transient$"):
            qa.ask("q", table)
        assert transport.attempts[0] == 3
        with pytest.raises(QaTransportError, match="^rollback state 1: permanently down$") as exc:
            answer_with_rollback("q", table, pipeline, HttpQaClient(FlakyTransport(dead_indices={0}), GenerationConfig()))
        assert exc.value.state == 1

    def test_prompt_rows_capped_by_config(self):
        big = make_table(["a"], [[i] for i in range(30)])
        transport = FlakyTransport(text="0")
        HttpQaClient(transport, GenerationConfig(prompt_max_rows=5)).ask("q", big)
        assert "(25 rows omitted)" in transport.sent[0][1]["content"]


# Small tables over three columns, pipelines that read an absent column too
# ("z") and whose semantic steps may have no matching rule, and cell_lookup
# scripts whose answers are cells, a group count, or absent from every table.
ROLLBACK_COLUMNS = ["a", "b", "c"]
rollback_column = st.sampled_from([*ROLLBACK_COLUMNS, "z"])
rollback_cells = ["x", "y", "1", "2"]
rollback_operators = st.one_of(
    st.builds(SelectOp, st.lists(rollback_column, min_size=1, max_size=2).map(tuple)),
    st.builds(FilterOp, rollback_column, st.sampled_from(["==", "!=", ">"]), st.sampled_from(["x", "1"])),
    st.builds(SortByOp, rollback_column, st.sampled_from(["asc", "desc"]), st.sampled_from([None, 1])),
    st.builds(GroupByOp, rollback_column),
    st.builds(AddColumnOp, st.sampled_from(["n", "a"]), st.sampled_from(["flip", "unknown"])),
    st.builds(CleanColumnOp, rollback_column, st.sampled_from(["flip", "unknown"])),
)
ROLLBACK_EXECUTOR = MockSemanticExecutor({"flip": {"x": "y", "y": "x", "1": "2"}})


@st.composite
def rollback_tables(draw):
    columns = draw(st.lists(st.sampled_from(ROLLBACK_COLUMNS), min_size=1, unique=True))
    cells = st.sampled_from([*rollback_cells, 1, 2, None])
    rows = draw(st.lists(st.lists(cells, min_size=len(columns), max_size=len(columns)), max_size=4))
    return make_table(columns, rows)


class RecordingQa:
    """Records each table a QA client is asked about."""

    def __init__(self, inner):
        self.inner = inner
        self.asked = []

    def ask(self, question, table):
        self.asked.append(table)
        return self.inner.ask(question, table)


@settings(max_examples=200, deadline=None)
@given(
    table=rollback_tables(),
    pipeline=st.lists(rollback_operators, max_size=4).map(Pipeline),
    script=st.dictionaries(st.sampled_from(["q", "other"]),
                           st.lists(st.sampled_from([*rollback_cells, "3", "zz"]), max_size=3), max_size=2),
    with_executor=st.booleans(),
)
def test_rollback_matches_the_plain_walk_over_its_states(table, pipeline, script, with_executor):
    executor = ROLLBACK_EXECUTOR if with_executor else None
    got_qa, ref_qa = RecordingQa(CellLookupQaClient(script)), RecordingQa(CellLookupQaClient(script))
    got = answer_with_rollback("q", table, pipeline, got_qa, executor)
    answer, state, asked, trace = ref_answer_with_rollback("q", table, pipeline, ref_qa, executor)
    assert (got.answer, got.state_used, got.qa_calls) == (answer, state, len(asked))
    assert got_qa.asked == asked
    assert got.tables_tried == tuple((t.n_rows, t.n_cols) for t in asked)
    assert got.trace == trace
