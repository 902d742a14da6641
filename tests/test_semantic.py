import json
import logging
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableprep.engine import FAILED, OK, SKIPPED, execute
from tableprep.errors import ColumnExistsError, ColumnNotFoundError, ExecutorFailureError, RequestFailedError
from tableprep.llm import GenerationConfig, ScriptedTransport
from tableprep.ops import parse_pipeline
from tableprep.table import CELL_DECODER, Table, load_json_table, serialize_markdown
from tableprep.semantic import (
    LlmSemanticExecutor,
    MockSemanticExecutor,
    exec_add_column,
    exec_clean_column,
)

from conftest import FlakyTransport, make_table
from oracles import (
    ref_exec_add_column,
    ref_exec_clean_column,
    ref_load_json_table,
    ref_mock_infer_column,
    ref_mock_rewrite_column,
)


@pytest.fixture
def names_table():
    return make_table(["Name", "Score"], [["Ada", 10], ["Bob", 7]])


class TestAddColumn:
    def test_gender_inference_rule(self, names_table):
        executor = MockSemanticExecutor(
            {"infer genders": {"Ada": "F", "Bob": "M"}}
        )
        out = exec_add_column(
            names_table, "Gender", "infer genders from the column Name", executor
        )
        assert out.columns == ("Name", "Score", "Gender")
        assert [row[2] for row in out.rows] == ["F", "M"]
        # existing data untouched
        assert [row[:2] for row in out.rows] == list(names_table.rows)

    def test_short_output_padded_with_warning(self, names_table, caplog):
        class Short:
            def infer_column(self, table, new_column, description):
                return ["v"]

        with caplog.at_level(logging.WARNING):
            out = exec_add_column(names_table, "g", "whatever", Short())
        assert [row[2] for row in out.rows] == ["v", None]
        assert any("padding" in r.message for r in caplog.records)

    def test_long_output_truncated(self, names_table):
        class Long:
            def infer_column(self, table, new_column, description):
                return ["a", "b", "c", "d"]

        out = exec_add_column(names_table, "g", "whatever", Long())
        assert [row[2] for row in out.rows] == ["a", "b"]

    def test_existing_column_rejected(self, names_table):
        executor = MockSemanticExecutor({})
        with pytest.raises(ColumnExistsError):
            exec_add_column(names_table, "Score", "anything", executor)

    def test_no_matching_rule_fills_nulls(self, names_table, caplog):
        with caplog.at_level(logging.WARNING):
            out = exec_add_column(names_table, "g", "unmatched", MockSemanticExecutor({}))
        assert [row[2] for row in out.rows] == [None, None]

    def test_numeric_outputs_get_typed(self, names_table):
        executor = MockSemanticExecutor({"age": {"Ada": "36", "Bob": "41"}})
        out = exec_add_column(names_table, "Age", "age of person", executor)
        assert [row[2] for row in out.rows] == [Decimal(36), Decimal(41)]


class TestCleanColumn:
    def test_date_standardization_rule(self):
        table = make_table(["Date", "v"], [["1 Jan 2020", 1], ["2 Feb 2021", 2]])
        executor = MockSemanticExecutor(
            {"standardize date format": {"1 Jan 2020": "2020-01-01", "2 Feb 2021": "2021-02-02"}}
        )
        out = exec_clean_column(table, "Date", "standardize date format", executor)
        assert [row[0] for row in out.rows] == ["2020-01-01", "2021-02-02"]
        assert out.columns == table.columns
        assert [row[1] for row in out.rows] == [Decimal(1), Decimal(2)]

    def test_unmapped_cells_unchanged(self):
        table = make_table(["Date"], [["1 Jan 2020"], ["???"]])
        executor = MockSemanticExecutor(
            {"standardize date format": {"1 Jan 2020": "2020-01-01"}}
        )
        out = exec_clean_column(table, "Date", "standardize date format", executor)
        assert [row[0] for row in out.rows] == ["2020-01-01", "???"]

    def test_no_rule_leaves_table_unchanged(self, caplog):
        table = make_table(["Date"], [["x"]])
        with caplog.at_level(logging.WARNING):
            out = exec_clean_column(table, "Date", "nothing registered", MockSemanticExecutor({}))
        assert out == table
        assert any("unchanged" in r.message for r in caplog.records)

    def test_zero_rows(self):
        table = make_table(["Date"], [])
        out = exec_clean_column(table, "Date", "anything", MockSemanticExecutor({}))
        assert out == table

    def test_missing_column(self):
        with pytest.raises(ColumnNotFoundError):
            exec_clean_column(make_table(["a"], []), "b", "x", MockSemanticExecutor({}))

    def test_shape_never_changes(self, names_table):
        executor = MockSemanticExecutor({"": {"Ada": "Ada L."}})
        out = exec_clean_column(names_table, "Name", "touch up", executor)
        assert out.n_rows == names_table.n_rows
        assert out.columns == names_table.columns

    def test_a_none_value_keeps_the_cell(self, names_table):
        out = exec_clean_column(names_table, "Name", "whatever", _Returns([None, "B"]))
        assert [row[0] for row in out.rows] == ["Ada", "B"]

    def test_short_output_keeps_the_remaining_cells(self, names_table, caplog):
        with caplog.at_level(logging.WARNING):
            out = exec_clean_column(names_table, "Score", "whatever", _Returns(["v"]))
        assert [row[1] for row in out.rows] == ["v", Decimal(7)]
        assert any("padding" in r.message for r in caplog.records)


class TestMockExecutor:
    def test_first_registered_pattern_wins(self, names_table):
        executor = MockSemanticExecutor(
            {"gender": {"Ada": "first"}, "infer gender": {"Ada": "second"}}
        )
        out = exec_add_column(names_table, "g", "infer gender", executor)
        assert out.rows[0][2] == "first"

    def test_refusing_rule_surfaces_executor_failure(self, names_table):
        def refuse(cell):
            raise ExecutorFailureError("refused")

        executor = _PerCell(refuse)
        trace = execute(parse_pipeline([{"operation": "add_column", "new_column": "g", "description": "infer"}]),
                        names_table, executor)
        assert trace.steps[0].status == FAILED and trace.steps[0].error == "refused"

    def test_a_bug_in_a_rule_propagates(self, names_table):
        def bug(cell):
            return 1 / 0

        executor = _PerCell(bug)
        with pytest.raises(ZeroDivisionError):
            execute(parse_pipeline([{"operation": "add_column", "new_column": "g", "description": "infer"}]),
                    names_table, executor)

    def test_from_json(self):
        executor = MockSemanticExecutor({"p": {"in": "out"}})
        table = make_table(["a"], [["in"]])
        out = exec_clean_column(table, "a", "p", executor)
        assert out.rows[0][0] == "out"

    def test_determinism(self, names_table):
        executor = MockSemanticExecutor({"infer genders": {"Ada": "F", "Bob": "M"}})
        first = exec_add_column(names_table, "g", "infer genders", executor)
        second = exec_add_column(names_table, "g", "infer genders", executor)
        assert first == second


_RULE_KEYS = st.sampled_from(["", "7", "7.0", "+7", "07", ".5", "0.5", "-0", "0", "1E+1", "10",
                               "-7", "Paris", "paris ", " "])
_RULE_OUTPUTS = st.sampled_from(["x", "", "7", "7.00", " y", "0"]) | st.just(Decimal("2.50"))
_RULE_CELLS = st.one_of(
    st.none(),
    _RULE_KEYS,
    st.sampled_from([Decimal(7), Decimal("7.0"), Decimal("7.00"), Decimal("-0"), Decimal("0.50"),
                     Decimal("1E+1"), Decimal("-7"), Decimal(".5"), Decimal("0E-3")]),
    st.builds(lambda digits, exp: Decimal(digits).scaleb(exp), st.integers(-12, 12), st.integers(-2, 2)),
)


@st.composite
def _rules_and_tables(draw):
    rule = draw(st.dictionaries(_RULE_KEYS, _RULE_OUTPUTS, max_size=6))
    n_cols = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[_RULE_CELLS] * n_cols), max_size=6))
    return rule, Table(tuple(f"c{i}" for i in range(n_cols)), tuple(rows))


class TestMockMappingRulesMatchTheRenderingOracle:
    """A mapping rule looks cells up by value; the oracle renders each cell."""

    @settings(max_examples=300, deadline=None)
    @given(_rules_and_tables())
    def test_infer_and_rewrite_column(self, rule_and_table):
        rule, table = rule_and_table
        executor = MockSemanticExecutor({"derive": rule})
        got = exec_add_column(table, "new", "derive", executor).rows
        values = ref_mock_infer_column(rule, table)
        assert repr(got) == repr(tuple(row + (value,) for row, value in zip(table.rows, values)))
        for idx, column in enumerate(table.columns):
            got = exec_clean_column(table, column, "derive", executor).rows
            values = ref_mock_rewrite_column(rule, table, column)
            spliced = tuple(row[:idx] + (value,) + row[idx + 1 :] for row, value in zip(table.rows, values))
            assert repr(got) == repr(spliced)

    def test_a_non_canonical_number_key_never_matches_a_number(self):
        table = make_table(["v"], [[Decimal(7)], [Decimal("7.0")], [Decimal("7.00")], ["7.0"]])
        executor = MockSemanticExecutor({"derive": {"7.0": "hit"}})
        assert executor.rewrite_column(table, "v", "derive") == [None] * 3 + ["hit"]
        cleaned = exec_clean_column(table, "v", "derive", executor)
        assert repr(cleaned.rows) == repr(tuple(table.rows[:3]) + (("hit",),))
        assert executor.infer_column(table, "new", "derive") == [None] * 3 + ["hit"]


_ADD = {"operation": "add_column", "new_column": "g", "description": "derive"}
_CLEAN = {"operation": "clean_column", "column": "Score", "description": "derive"}


class TestExecutorCellsValidated:
    """Only the cells an executor returns are checked; a bad one fails the step."""

    @pytest.mark.parametrize("op", [_ADD, _CLEAN], ids=["add_column", "clean_column"])
    @pytest.mark.parametrize("bad, message", [
        (Decimal("NaN"), "non-finite number in row 1"),
        (Decimal("Infinity"), "non-finite number in row 1"),
        (Decimal("sNaN"), "non-finite number in row 1"),
        (3, "unsupported cell type int in row 1"),
        (2.5, "unsupported cell type float in row 1"),
        (True, "unsupported cell type bool in row 1"),
    ], ids=["nan", "infinity", "snan", "int", "float", "bool"])
    def test_callable_rule_returning_a_non_cell(self, names_table, op, bad, message):
        # valid for Ada's row, invalid for Bob's: the message names row 1
        def rule(cell):
            if cell == "Bob" or cell == Decimal(7):
                return bad
            return "ok" if isinstance(cell, str) or cell == Decimal(10) else None

        pipeline = parse_pipeline([op, {"operation": "select", "columns": ["Name"]}])
        trace = execute(pipeline, names_table, _PerCell(rule))
        assert [step.status for step in trace.steps] == [FAILED, SKIPPED]
        assert trace.steps[0].error == message
        assert trace.final == names_table

    @pytest.mark.parametrize("op, rows", [
        (_ADD, (("Ada", Decimal(10), Decimal(3)), ("Bob", Decimal(7), None))),
        (_CLEAN, (("Ada", Decimal(3)), ("Bob", Decimal(7)))),
    ], ids=["add_column", "clean_column"])
    def test_json_mapping_rule_with_a_number_output(self, names_table, op, rows):
        # a mapping output is a JSON value, typed as a dataset table types it
        executor = MockSemanticExecutor({"derive": {"Ada": 3, "10": 3}})
        trace = execute(parse_pipeline([op]), names_table, executor)
        assert trace.steps[0].status == OK
        assert trace.final.rows == rows


class _Text(str):
    """A str subclass: a valid cell that is not exactly ``str``."""


# cells of the input tables: missing, ASCII and non-ASCII text, and numbers
# whose spelling a row builder must keep as it is
_KERNEL_CELLS = st.one_of(
    st.none(),
    st.text(alphabet="aZ7 .é字\U0001f600", max_size=3),
    st.sampled_from([Decimal("-0"), Decimal("0E-5"), Decimal("1E+3"), Decimal("1.500"), Decimal(7)]),
)
# what an executor may return: cells, and values a cell check must refuse
_EXECUTOR_VALUES = st.one_of(
    _KERNEL_CELLS,
    st.sampled_from([Decimal("NaN"), Decimal("Infinity"), Decimal("-Infinity"), Decimal("sNaN"),
                     3, 2.5, True, False, _Text("t")]),
)


class _Returns:
    """An executor that answers every call with one fixed list of values."""

    def __init__(self, values):
        self.values = values

    def infer_column(self, table, new_column, description):
        return list(self.values)

    def rewrite_column(self, table, column, description):
        return list(self.values)


class _PerCell:
    """An executor that calls ``rule`` on cells: add_column takes each row's
    first value that is not None, clean_column the value of each cell."""

    def __init__(self, rule):
        self.rule = rule

    def infer_column(self, table, new_column, description):
        return [next((value for value in map(self.rule, row) if value is not None), None) for row in table.rows]

    def rewrite_column(self, table, column, description):
        idx = table.columns.index(column)
        return [self.rule(row[idx]) for row in table.rows]


def _outcome(kernel, *args):
    """The table a kernel returns, or the class and message of its error."""
    try:
        table = kernel(*args)
    except Exception as err:  # any error must match the reference's
        return type(err), str(err)
    return table.columns, [[(type(cell), repr(cell)) for cell in row] for row in table.rows]


@st.composite
def _kernel_cases(draw):
    n_cols = draw(st.integers(1, 4))
    columns = tuple(f"c{i}" for i in range(n_cols))
    rows = draw(st.lists(st.tuples(*[_KERNEL_CELLS] * n_cols), max_size=5))
    table = Table(columns, tuple(rows))
    # short, exact and long outputs; mostly cells, so valid ones are common
    length = draw(st.sampled_from([0, max(len(rows) - 1, 0), len(rows), len(rows), len(rows) + 2]))
    values = draw(st.lists(st.one_of(_KERNEL_CELLS, _KERNEL_CELLS, _EXECUTOR_VALUES),
                           min_size=length, max_size=length))
    # a name the table lacks or one it has; the first, last or a middle column
    new_column = draw(st.sampled_from(["new", "new", "new", columns[-1]]))
    column = draw(st.sampled_from([columns[0], columns[-1], columns[n_cols // 2], "new"]))
    return table, new_column, column, values


class TestKernelsMatchTheReference:
    """The semantic operators give the reference row builders' table, or the
    same error, for every table and executor output."""

    @settings(max_examples=400, deadline=None)
    @given(_kernel_cases())
    def test_add_and_clean_column(self, case):
        table, new_column, column, values = case
        executor = _Returns(values)
        added = (table, new_column, "derive", executor)
        assert _outcome(exec_add_column, *added) == _outcome(ref_exec_add_column, *added)
        cleaned = (table, column, "derive", executor)
        assert _outcome(exec_clean_column, *cleaned) == _outcome(ref_exec_clean_column, *cleaned)

    def test_a_20k_by_12_table(self):
        columns = tuple(f"c{j}" for j in range(12))
        cells = [None, "text", "é字", Decimal("-0"), Decimal("1.500"), Decimal("1E+3")]
        rows = tuple(tuple(cells[(i + j) % len(cells)] for j in range(12)) for i in range(20_000))
        table = Table(columns, rows)
        executor = _Returns([cells[i % len(cells)] for i in range(20_000)])
        added = (table, "new", "derive", executor)
        assert exec_add_column(*added) == ref_exec_add_column(*added)
        for column in ("c0", "c5", "c11"):
            cleaned = (table, column, "derive", executor)
            assert exec_clean_column(*cleaned) == ref_exec_clean_column(*cleaned)


class _FixedTransport:
    def __init__(self, text):
        self.text = text
        self.requests = []

    def complete(self, messages, config, index=0):
        self.requests.append(messages)
        return self.text


def _listed(transport):
    """The table that the one request's prompt lists, as its markdown."""
    (request,) = transport.requests
    lines = request[1]["content"].splitlines()
    assert lines[1].startswith("Rows (") and lines[-1].startswith("Answer with")
    return "\n".join(lines[2:-1])


class TestLlmExecutor:
    def test_batched_add_column(self, names_table):
        transport = _FixedTransport('["F", "M"]')
        executor = LlmSemanticExecutor(transport, GenerationConfig())
        out = exec_add_column(names_table, "Gender", "infer genders from Name", executor)
        assert [row[2] for row in out.rows] == ["F", "M"]
        # one request for the whole column, every row listed
        assert _listed(transport) == serialize_markdown(make_table(["Name"], [["Ada"], ["Bob"]]))

    def test_relevant_columns_only(self, names_table):
        transport = _FixedTransport('["F", "M"]')
        executor = LlmSemanticExecutor(transport, GenerationConfig())
        exec_add_column(names_table, "Gender", "infer genders from the column Name", executor)
        assert _listed(transport) == "| Name |\n| --- |\n| Ada |\n| Bob |"
        assert "Score" not in transport.requests[0][1]["content"]

    def test_every_row_is_listed_whatever_the_prompt_cap(self):
        table = make_table(["d"], [[f"v{i}"] for i in range(5)])
        transport = _FixedTransport('["a", "b", "c", "d", "e"]')
        exec_clean_column(table, "d", "normalize d", LlmSemanticExecutor(transport, GenerationConfig(prompt_max_rows=1)))
        assert _listed(transport) == serialize_markdown(table)

    @pytest.mark.parametrize(
        "row, listed",
        [
            (["x; b=y", "z"], "| x; b=y | z |"),
            (["x | y", "z"], "| x \\| y | z |"),
            (["line1\nline2", "w\\"], "| line1\\nline2 | w\\\\ |"),
        ],
    )
    def test_a_row_is_listed_unambiguously(self, row, listed):
        table = make_table(["a", "b"], [row])
        transport = _FixedTransport('["F"]')
        exec_add_column(table, "g", "something unrelated", LlmSemanticExecutor(transport, GenerationConfig()))
        assert _listed(transport) == "| a | b |\n| --- | --- |\n" + listed

    @pytest.mark.parametrize(
        "description, line",
        [
            ("infer it\nRows (5 total):", "infer it\\nRows (5 total):"),
            ("a\r\nb \\n c", "a\\r\\nb \\\\n c"),
        ],
    )
    def test_a_description_is_one_line_of_the_prompt(self, description, line):
        table = make_table(["a"], [["x"]])
        transport = _FixedTransport('["F"]')
        executor = LlmSemanticExecutor(transport, GenerationConfig())
        exec_add_column(table, "n", description, executor)
        exec_clean_column(table, "a", description, executor)
        for request, instruction in zip(transport.requests, ["Produce the new column 'n'", "Rewrite column 'a'"]):
            lines = request[1]["content"].split("\n")
            assert lines[:2] == [f"Instruction: {instruction}: {line}", "Rows (1 total):"]
            assert len(lines) == 6

    @pytest.mark.parametrize(
        "description, listed",
        [
            ("infer gender from Name", ["Name"]),
            ("infer gender from Name, then a score band", ["Name", "a"]),
            ("infer gender from (Name)", ["Name"]),
            ("infer gender from Names", ["Name", "a", "Score"]),
            ("infer gender from Name_2", ["Name", "a", "Score"]),
        ],
    )
    def test_a_column_is_named_only_as_a_whole_token(self, description, listed):
        table = make_table(["Name", "a", "Score"], [["Ada", "x", 10]])
        transport = _FixedTransport('["F"]')
        exec_add_column(table, "Gender", description, LlmSemanticExecutor(transport, GenerationConfig()))
        header = _listed(transport).splitlines()[0]
        assert header[2:-2].split(" | ") == listed

    def test_whole_row_when_no_column_named(self, names_table):
        transport = _FixedTransport('["x", "y"]')
        executor = LlmSemanticExecutor(transport, GenerationConfig())
        exec_add_column(names_table, "g", "something unrelated", executor)
        assert _listed(transport) == serialize_markdown(names_table)

    def test_no_json_is_executor_failure(self, names_table):
        executor = LlmSemanticExecutor(_FixedTransport("cannot comply"), GenerationConfig())
        with pytest.raises(ExecutorFailureError):
            exec_add_column(names_table, "g", "x", executor)

    def test_transport_error_is_a_failed_request(self, names_table, backoffs):
        class Boom:
            def complete(self, messages, config, index=0):
                raise ConnectionError("down")

        executor = LlmSemanticExecutor(Boom(), GenerationConfig())
        with pytest.raises(RequestFailedError, match="^down$"):
            exec_add_column(names_table, "g", "x", executor)

    def test_recovers_after_retries(self, names_table, backoffs):
        transport = FlakyTransport(text='["F", "M"]', fail_first=2)
        executor = LlmSemanticExecutor(transport, GenerationConfig(retries=2))
        out = exec_add_column(names_table, "g", "x", executor)
        assert [row[2] for row in out.rows] == ["F", "M"]
        assert transport.attempts[0] == 3
        assert backoffs == [0.1, 0.2]

    def test_exhausted_retries_raise_request_failed(self, names_table, backoffs):
        transport = FlakyTransport(text='["F", "M"]', fail_first=3)
        executor = LlmSemanticExecutor(transport, GenerationConfig(retries=2))
        with pytest.raises(RequestFailedError, match="^transient$"):
            exec_add_column(names_table, "g", "x", executor)
        assert transport.attempts[0] == 3

    def test_number_answers_are_their_exact_values(self, names_table):
        transport = _FixedTransport('[1e3, 0.10000000000000000001]')
        executor = LlmSemanticExecutor(transport, GenerationConfig())
        out = exec_add_column(names_table, "g", "x", executor)
        assert [row[2] for row in out.rows] == [Decimal(1000), Decimal("0.10000000000000000001")]

    def test_clean_column_empty_answers_keep_original(self):
        table = make_table(["d"], [["keep"], ["change"]])
        transport = _FixedTransport('["", "changed"]')
        executor = LlmSemanticExecutor(transport, GenerationConfig())
        out = exec_clean_column(table, "d", "normalize d", executor)
        assert [row[0] for row in out.rows] == ["keep", "changed"]


# JSON literals of one value: null, text (much of it numeric-looking), integers,
# numbers with a fraction or an exponent (read as Decimals), booleans
_JSON_SCALARS = st.one_of(
    st.just("null"),
    st.sampled_from(["", "7", "07", "-0", "2.50", "1e5", " 5", "True", "[1]", "x"]).map(json.dumps),
    st.text(alphabet="a7 .-é", max_size=4).map(json.dumps),
    st.integers(-10**20, 10**20).map(str),
    st.builds(lambda whole, fraction, exponent: whole + fraction + exponent,
              st.sampled_from(["0", "-0", "7", "-12", "123456789012345678901"]),
              st.sampled_from(["", ".0", ".50", ".125"]),
              st.sampled_from(["", "e3", "E-2", "e+20"])).filter(lambda text: set(text) & set(".eE")),
    st.sampled_from(["true", "false"]),
)
_JSON_VALUES = _JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=3).map(lambda items: f"[{', '.join(items)}]")


def _same_cell(cell):
    """Equal numbers of one memo share one object, such as ``1.0`` and
    ``1.00``; any other cell must keep its exact spelling."""
    return type(cell), cell if isinstance(cell, Decimal) else repr(cell)


@settings(max_examples=200, deadline=None)
@given(st.lists(_JSON_VALUES, min_size=1, max_size=5))
def test_a_json_value_is_the_same_cell_on_every_route(literals):
    """A dataset row, an LLM executor's reply and a mock mapping's outputs
    type each JSON value as the loader oracle does."""
    reply = f"[{', '.join(literals)}]"
    doc = {"header": [f"c{i}" for i in range(len(literals))], "rows": [CELL_DECODER.decode(reply)]}
    expected = list(map(_same_cell, ref_load_json_table(doc).rows[0]))

    dataset = load_json_table(doc).rows[0]
    keys = Table(("key",), tuple((f"k{i}",) for i in range(len(literals))))
    llm = LlmSemanticExecutor(ScriptedTransport([reply]), GenerationConfig())
    mapping = "{%s}" % ", ".join(f'"k{i}": {literal}' for i, literal in enumerate(literals))
    mock = MockSemanticExecutor({"derive": CELL_DECODER.decode(mapping)})
    for route in (dataset,
                  [row[1] for row in exec_add_column(keys, "v", "derive", llm).rows],
                  [row[1] for row in exec_add_column(keys, "v", "derive", mock).rows]):
        assert list(map(_same_cell, route)) == expected
