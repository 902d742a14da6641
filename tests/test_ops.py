import json
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableprep.errors import (
    BadParamTypeError,
    ColumnNotFoundError,
    MissingParamError,
    NoValidColumnsError,
    PipelineParseError,
    UnknownOperatorError,
)
from tableprep.ops import (
    COMPARATORS,
    AddColumnOp,
    CleanColumnOp,
    FilterOp,
    GroupByOp,
    Pipeline,
    SelectOp,
    SortByOp,
    canonical_key,
    exec_filter,
    exec_group_by,
    exec_select,
    exec_sort_by,
    operator_to_json,
    parse_operator,
    parse_pipeline,
    pipeline_to_json,
)
from tableprep.table import CELL_DECODER, Table, parse_number

from conftest import CELL_TEXTS, make_table, random_table
from oracles import (
    ref_canonical_key,
    ref_filter,
    ref_group_by,
    ref_operator_to_json,
    ref_select,
    ref_sort_by,
)


class TestParseOperator:
    def test_filter(self):
        spec = parse_operator(
            {"operation": "filter", "column": "Country", "cmp": "==", "value": "USA"}
        )
        assert spec == FilterOp("Country", "==", "USA")

    def test_sort_without_k(self):
        spec = parse_operator({"operation": "sort_by", "column": "Score", "order": "desc"})
        assert spec == SortByOp("Score", "desc", None)

    def test_unknown_operator(self):
        with pytest.raises(UnknownOperatorError):
            parse_operator({"operation": "explode"})

    def test_missing_operation_field(self):
        with pytest.raises(MissingParamError):
            parse_operator({"columns": ["a"]})

    def test_missing_param(self):
        with pytest.raises(MissingParamError):
            parse_operator({"operation": "filter", "column": "a", "cmp": "=="})

    def test_bad_cmp(self):
        with pytest.raises(BadParamTypeError):
            parse_operator({"operation": "filter", "column": "a", "cmp": "~=", "value": 1})

    def test_bad_value_types(self):
        for value in (None, True, [1], {"v": 1}):
            with pytest.raises(BadParamTypeError):
                parse_operator({"operation": "filter", "column": "a", "cmp": "==", "value": value})

    def test_numeric_value_normalization(self):
        by_int = parse_operator({"operation": "filter", "column": "a", "cmp": ">", "value": 5})
        by_str = parse_operator({"operation": "filter", "column": "a", "cmp": ">", "value": "5"})
        assert by_int.value == Decimal(5)
        assert by_str.value == Decimal(5)

    def test_select_requires_nonempty_columns(self):
        with pytest.raises(BadParamTypeError):
            parse_operator({"operation": "select", "columns": []})

    def test_sort_k_validation(self):
        with pytest.raises(BadParamTypeError):
            parse_operator({"operation": "sort_by", "column": "a", "order": "asc", "k": 0})
        with pytest.raises(BadParamTypeError):
            parse_operator({"operation": "sort_by", "column": "a", "order": "up"})

    def test_add_column_requires_description(self):
        with pytest.raises(BadParamTypeError):
            parse_operator({"operation": "add_column", "new_column": "g", "description": " "})

    def test_explanation_captured_and_extras_ignored(self):
        spec = parse_operator(
            {"operation": "group_by", "column": "a", "explanation": "count", "z": 1}
        )
        assert spec == GroupByOp("a", explanation="count")
        assert spec.explanation == "count"


class TestParsePipeline:
    def test_empty_is_identity(self):
        assert parse_pipeline([]) == Pipeline()

    def test_order_preserved(self):
        pipeline = parse_pipeline(
            [
                {"operation": "select", "columns": ["a"]},
                {"operation": "filter", "column": "a", "cmp": "==", "value": "x"},
            ]
        )
        assert [op.kind for op in pipeline] == ["select", "filter"]

    def test_pipeline_is_the_tuple_of_its_specs(self):
        spec = SelectOp(("a",))
        assert Pipeline() == () and len(Pipeline()) == 0 and not Pipeline()
        assert Pipeline([spec]) == Pipeline(iter([spec])) == (spec,)
        assert hash(Pipeline([spec])) == hash((spec,))
        assert not hasattr(Pipeline(), "__dict__")

    def test_error_carries_index(self):
        with pytest.raises(PipelineParseError) as exc:
            parse_pipeline([{"operation": "select", "columns": ["a"]}, {"operation": "nope"}])
        assert exc.value.index == 1

    def test_round_trip(self):
        doc = [
            {"operation": "select", "columns": ["a", "b"]},
            {"operation": "filter", "column": "a", "cmp": ">", "value": 5},
            {"operation": "sort_by", "column": "a", "order": "asc", "k": 3},
            {"operation": "group_by", "column": "b"},
            {"operation": "add_column", "new_column": "g", "description": "infer"},
            {"operation": "clean_column", "column": "a", "description": "fix", "explanation": "e"},
        ]
        pipeline = parse_pipeline(doc)
        assert parse_pipeline(pipeline_to_json(pipeline)) == pipeline


_CMP_DETAIL = "expected one of ['==', '!=', '>', '<', '>=', '<=']"


@pytest.mark.parametrize("item, message", [
    ("select", "operator '?' has invalid parameter 'operator': expected a JSON object"),
    ({"columns": ["a"]}, "operator '?' is missing parameter 'operation'"),
    ({"operation": 1}, "operator '?' has invalid parameter 'operation': expected a string"),
    ({"operation": "explode"}, "unknown operator: 'explode'"),
    ({"operation": "group_by"}, "operator 'group_by' is missing parameter 'column'"),
    ({"operation": "select", "columns": "a"},
     "operator 'select' has invalid parameter 'columns': expected a non-empty list of names"),
    ({"operation": "group_by", "column": 1},
     "operator 'group_by' has invalid parameter 'column': expected a string"),
    ({"operation": "add_column", "new_column": " ", "description": "d"},
     "operator 'add_column' has invalid parameter 'new_column': must be non-empty"),
    ({"operation": "clean_column", "column": "a", "description": 2},
     "operator 'clean_column' has invalid parameter 'description': expected a string"),
    ({"operation": "filter", "column": "a", "cmp": "=", "value": 1},
     f"operator 'filter' has invalid parameter 'cmp': {_CMP_DETAIL}"),
    ({"operation": "filter", "column": "a", "cmp": "==", "value": None},
     "operator 'filter' has invalid parameter 'value': expected a string or number"),
    ({"operation": "sort_by", "column": "a", "order": "up"},
     "operator 'sort_by' has invalid parameter 'order': expected 'asc' or 'desc'"),
    ({"operation": "sort_by", "column": "a", "order": "asc", "k": True},
     "operator 'sort_by' has invalid parameter 'k': expected an integer >= 1"),
    ({"operation": "group_by", "column": "a", "explanation": None},
     "operator 'group_by' has invalid parameter 'explanation': expected a string"),
])
def test_parse_error_text(item, message):
    """These messages land in run reports' ``candidate_errors``."""
    with pytest.raises(PipelineParseError) as exc:
        parse_pipeline([{"operation": "group_by", "column": "a"}, item])
    assert str(exc.value) == f"invalid operator at index 1: {message}"


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
def test_non_finite_json_threshold_is_a_parse_error(text):
    """Python's JSON decoder turns these into non-finite floats."""
    doc = json.loads(f'[{{"operation": "filter", "column": "a", "cmp": ">", "value": {text}}}]')
    with pytest.raises(PipelineParseError) as exc:
        parse_pipeline(doc)
    assert str(exc.value) == (
        "invalid operator at index 0: operator 'filter' has invalid parameter 'value': "
        "expected a string or a finite number"
    )


def test_a_decimal_threshold_is_kept_exact_and_must_be_finite():
    doc = CELL_DECODER.decode('[{"operation": "filter", "column": "a", "cmp": ">", "value": 0.10000000000000000001}]')
    assert parse_pipeline(doc)[0].value == Decimal("0.10000000000000000001")
    for value in (Decimal("NaN"), Decimal("-Infinity"), Decimal("sNaN")):
        with pytest.raises(PipelineParseError, match="expected a string or a finite number"):
            parse_pipeline([{"operation": "filter", "column": "a", "cmp": ">", "value": value}])


_TEXT = st.text(max_size=6)
_NON_BLANK = _TEXT.filter(str.strip)
_EXPLANATION = st.none() | _TEXT
_FILTER_VALUES = st.one_of(
    st.decimals(allow_nan=False, allow_infinity=False, min_value=-(10**9), max_value=10**9),
    st.integers(min_value=-(10**9), max_value=10**9),
    _TEXT,
    st.none(),
)
_SPECS = st.one_of(
    st.builds(SelectOp, st.lists(_TEXT, min_size=1, max_size=4).map(tuple), _EXPLANATION),
    st.builds(FilterOp, _TEXT, st.sampled_from(COMPARATORS), _FILTER_VALUES, _EXPLANATION),
    st.builds(SortByOp, _TEXT, st.sampled_from(["asc", "desc"]),
              st.none() | st.integers(min_value=1), _EXPLANATION),
    st.builds(GroupByOp, _TEXT, _EXPLANATION),
    st.builds(AddColumnOp, _NON_BLANK, _NON_BLANK, _EXPLANATION),
    st.builds(CleanColumnOp, _TEXT, _NON_BLANK, _EXPLANATION),
)


def _parsed_form(spec) -> bool:
    """Whether parsing can produce ``spec``: a filter threshold is never None,
    and one spelled as a number is parsed to a Decimal."""
    if isinstance(spec, FilterOp):
        if isinstance(spec.value, str):
            return parse_number(spec.value) is None
        return spec.value is not None
    return True


@settings(max_examples=400, deadline=None)
@given(_SPECS)
def test_wire_format_matches_references(spec):
    doc = operator_to_json(spec)
    reference = ref_operator_to_json(spec)
    assert doc == reference
    assert json.dumps(doc, ensure_ascii=False) == json.dumps(reference, ensure_ascii=False)
    assert canonical_key(spec) == ref_canonical_key(spec)
    if _parsed_form(spec):
        assert parse_operator(doc) == spec


class TestCanonicalKey:
    def test_deterministic(self):
        a = FilterOp("Country", "==", "USA")
        b = FilterOp("Country", "==", "USA")
        assert canonical_key(a) == canonical_key(b)

    def test_explanation_excluded(self):
        a = FilterOp("Country", "==", "USA", explanation="one")
        b = FilterOp("Country", "==", "USA", explanation="two")
        assert canonical_key(a) == canonical_key(b)

    def test_numeric_value_canonicalized(self):
        assert canonical_key(FilterOp("x", ">", Decimal(5))) == canonical_key(
            FilterOp("x", ">", "5")
        )
        assert canonical_key(FilterOp("x", ">", Decimal("5.0"))) == canonical_key(
            FilterOp("x", ">", "5")
        )

    def test_an_int_threshold_keys_as_its_equal_decimal(self):
        assert FilterOp("x", "==", 5) == FilterOp("x", "==", Decimal(5))
        assert canonical_key(FilterOp("x", "==", 5)) == canonical_key(FilterOp("x", "==", Decimal("5.0")))
        assert canonical_key(FilterOp("x", "==", -7)) == canonical_key(FilterOp("x", "==", "-7"))

    def test_distinct_ops_distinct_keys(self):
        specs = [
            SelectOp(("a",)),
            FilterOp("a", "==", "x"),
            FilterOp("a", "!=", "x"),
            SortByOp("a", "asc"),
            SortByOp("a", "asc", k=2),
            GroupByOp("a"),
            AddColumnOp("g", "infer"),
        ]
        keys = {canonical_key(s) for s in specs}
        assert len(keys) == len(specs)

    def test_select_order_insensitive(self):
        assert canonical_key(SelectOp(("b", "a"))) == canonical_key(SelectOp(("a", "b")))


class TestExecSelect:
    def test_original_order_kept(self):
        table = make_table("abc", [[1, 2, 3], [4, 5, 6]])
        out = exec_select(table, ["c", "a"])
        assert out.columns == ("a", "c")
        assert out.rows == ((Decimal(1), Decimal(3)), (Decimal(4), Decimal(6)))

    def test_unknown_names_dropped(self):
        table = make_table("ab", [[1, 2]])
        out = exec_select(table, ["a", "ghost"])
        assert out.columns == ("a",)

    def test_all_unknown_is_error(self):
        with pytest.raises(NoValidColumnsError):
            exec_select(make_table("ab", [[1, 2]]), ["ghost"])

    def test_row_count_preserved(self, rng):
        for _ in range(50):
            table = random_table(rng)
            request = [c for c in table.columns if rng.random() < 0.6] or [table.columns[0]]
            out = exec_select(table, request)
            assert out.n_rows == table.n_rows
            assert set(out.columns) <= set(table.columns)


class TestExecFilter:
    def test_equality_keeps_matching_rows(self):
        table = make_table(
            ["Country", "v"], [["USA", 1], ["France", 2], ["USA", 3]]
        )
        out = exec_filter(table, "Country", "==", "USA")
        assert out.n_rows == 2
        assert out.columns == table.columns

    def test_numeric_threshold_skips_null(self):
        # derived by evaluating the comparison rules per cell
        table = make_table(["x"], [[3], [7], [None]])
        out = exec_filter(table, "x", ">", Decimal(5))
        assert out.rows == ((Decimal(7),),)

    def test_empty_table(self):
        out = exec_filter(make_table(["x"], []), "x", "==", "q")
        assert out.rows == ()

    def test_column_missing(self):
        with pytest.raises(ColumnNotFoundError):
            exec_filter(make_table(["x"], []), "ghost", "==", "q")

    def test_null_only_satisfies_not_equal(self):
        table = make_table(["x"], [[None]])
        assert exec_filter(table, "x", "!=", "q").n_rows == 1
        for cmp in ("==", ">", "<", ">=", "<="):
            assert exec_filter(table, "x", cmp, "q").n_rows == 0

    def test_text_number_equality_via_rendering(self):
        table = make_table(["x"], [["7"], ["07"]])
        out = exec_filter(table, "x", "==", Decimal(7))
        # text cells compare as rendered strings against the rendered threshold
        assert out.rows == (("7",),)

    def test_lexicographic_ordering_on_text(self):
        table = make_table(["x"], [["apple"], ["banana"]])
        out = exec_filter(table, "x", ">", "avocado")
        assert out.rows == (("banana",),)

    def test_rows_are_subsequence(self, rng):
        for _ in range(50):
            table = random_table(rng)
            if table.n_rows == 0:
                continue
            column = rng.choice(table.columns)
            cmp = rng.choice(["==", "!=", ">", "<", ">=", "<="])
            value = rng.choice([Decimal(rng.randint(0, 9)), "x", "5"])
            out = exec_filter(table, column, cmp, value)
            it = iter(table.rows)
            assert all(any(row == candidate for candidate in it) for row in out.rows)


class TestExecSortBy:
    def test_desc_top_1(self):
        # oracle: brute-force sort of [2, 9, 5] descending
        table = make_table(["x"], [[2], [9], [5]])
        out = exec_sort_by(table, "x", "desc", k=1)
        assert out.rows == ((Decimal(9),),)

    def test_stability_on_sorted_input(self):
        table = make_table(["x", "tag"], [[1, "a"], [1, "b"], [2, "c"]])
        out = exec_sort_by(table, "x", "asc")
        assert out == table

    def test_nulls_last_in_asc(self):
        table = make_table(["x"], [[5], [None], [1]])
        out = exec_sort_by(table, "x", "asc")
        assert [row[0] for row in out.rows] == [Decimal(1), Decimal(5), None]

    def test_nulls_last_in_desc(self):
        table = make_table(["x"], [[None], [1], [5]])
        out = exec_sort_by(table, "x", "desc")
        assert [row[0] for row in out.rows] == [Decimal(5), Decimal(1), None]

    def test_k_larger_than_table(self):
        table = make_table(["x"], [[1], [2]])
        assert exec_sort_by(table, "x", "asc", k=10).n_rows == 2

    def test_permutation_property(self, rng):
        for _ in range(50):
            table = random_table(rng)
            if table.n_cols == 0:
                continue
            column = rng.choice(table.columns)
            out = exec_sort_by(table, column, rng.choice(["asc", "desc"]))
            assert sorted(map(repr, out.rows)) == sorted(map(repr, table.rows))


class TestExecGroupBy:
    def test_tally(self):
        # oracle: brute-force tally of [A, B, A]
        table = make_table(["Team"], [["A"], ["B"], ["A"]])
        out = exec_group_by(table, "Team")
        assert out.columns == ("Team", "count")
        assert out.rows == (("A", Decimal(2)), ("B", Decimal(1)))

    def test_zero_rows(self):
        out = exec_group_by(make_table(["Team"], []), "Team")
        assert out.n_rows == 0
        assert out.n_cols == 2

    def test_count_name_collision(self):
        out = exec_group_by(make_table(["count"], [["a"]]), "count")
        assert out.columns == ("count", "count_")

    def test_null_is_its_own_group(self):
        table = make_table(["x"], [[None], ["a"], [None]])
        out = exec_group_by(table, "x")
        assert out.rows == ((None, Decimal(2)), ("a", Decimal(1)))

    def test_counts_sum_to_rows(self, rng):
        for _ in range(50):
            table = random_table(rng)
            column = rng.choice(table.columns)
            out = exec_group_by(table, column)
            assert sum(int(row[1]) for row in out.rows) == table.n_rows


def _random_request(rng, table, may_ghost=True):
    names = list(table.columns)
    if may_ghost and rng.random() < 0.3:
        names.append("ghost")
    rng.shuffle(names)
    return names[: rng.randint(1, len(names))]


class TestOracleEquivalence:
    """Each structured operator matches the naive reference exactly."""

    def test_select(self, rng):
        for _ in range(300):
            table = random_table(rng)
            request = _random_request(rng, table)
            if not set(request) & set(table.columns):
                with pytest.raises(NoValidColumnsError):
                    exec_select(table, request)
                continue
            assert exec_select(table, request) == ref_select(table, request)

    def test_filter(self, rng):
        comparators = ["==", "!=", ">", "<", ">=", "<="]
        for _ in range(300):
            table = random_table(rng)
            column = rng.choice(table.columns)
            cmp = rng.choice(comparators)
            value = rng.choice([Decimal(rng.randint(0, 9)), *CELL_TEXTS])
            assert exec_filter(table, column, cmp, value) == ref_filter(table, column, cmp, value)

    def test_sort_by(self, rng):
        for _ in range(300):
            table = random_table(rng)
            column = rng.choice(table.columns)
            order = rng.choice(["asc", "desc"])
            k = rng.choice([None, 1, 2, 5])
            assert exec_sort_by(table, column, order, k) == ref_sort_by(table, column, order, k)

    def test_group_by(self, rng):
        for _ in range(300):
            table = random_table(rng)
            column = rng.choice(table.columns)
            assert exec_group_by(table, column) == ref_group_by(table, column)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_structured_ops_are_deterministic(seed):
    rng = random.Random(seed)
    table = random_table(rng)
    column = rng.choice(table.columns)
    assert exec_sort_by(table, column, "asc") == exec_sort_by(table, column, "asc")
    assert exec_group_by(table, column) == exec_group_by(table, column)


def test_operator_to_json_value_forms():
    assert operator_to_json(FilterOp("a", ">", Decimal(5)))["value"] == 5
    assert operator_to_json(FilterOp("a", ">", Decimal("0.1")))["value"] == "0.1"
    assert operator_to_json(FilterOp("a", "==", "USA"))["value"] == "USA"


# Text cells spelled like numbers, and thresholds given directly as such
# strings, probe where numeric and text comparison part ways.
_NUMERIC_SPELLINGS = ["5", "5.0", "+5", "07", "7", ""]
_TEXT_CELLS = st.sampled_from(["x", "apple", *_NUMERIC_SPELLINGS])
_NUMBER_CELLS = st.integers(0, 9).map(Decimal)
_COLUMN_KINDS = {
    "text": _TEXT_CELLS,
    "number": _NUMBER_CELLS,
    "mixed": st.one_of(_TEXT_CELLS, _NUMBER_CELLS),
}
_THRESHOLDS = st.one_of(_NUMBER_CELLS, st.sampled_from(["x", "apple", "5.0", "+5", "07", "5", "7"]))


@st.composite
def _typed_tables(draw):
    """Tables whose columns are all text, all numbers or mixed, with nulls."""
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=4))
    cells = [st.one_of(st.none(), _COLUMN_KINDS[kind]) for kind in kinds]
    rows = draw(st.lists(st.tuples(*cells), max_size=8))
    return Table(tuple(f"c{i}" for i in range(len(kinds))), tuple(rows))


def _assert_valid(out: Table) -> None:
    """The output of a trusted build is what the validating constructor builds."""
    assert type(out.columns) is tuple and type(out.rows) is tuple
    assert all(type(row) is tuple for row in out.rows)
    assert Table(out.columns, out.rows) == out


class TestStructuredOpsProperties:
    @settings(max_examples=100, deadline=None)
    @given(_typed_tables(), st.data())
    def test_select_and_group_by(self, table, data):
        request = data.draw(st.lists(st.sampled_from(table.columns), min_size=1))
        out = exec_select(table, request)
        _assert_valid(out)
        assert out == ref_select(table, request)
        column = data.draw(st.sampled_from(table.columns))
        out = exec_group_by(table, column)
        _assert_valid(out)
        assert out == ref_group_by(table, column)

    @settings(max_examples=200, deadline=None)
    @given(_typed_tables(), st.data(), st.sampled_from(["==", "!=", ">", "<", ">=", "<="]), _THRESHOLDS)
    def test_filter(self, table, data, cmp, value):
        column = data.draw(st.sampled_from(table.columns))
        out = exec_filter(table, column, cmp, value)
        _assert_valid(out)
        assert out == ref_filter(table, column, cmp, value)

    @settings(max_examples=150, deadline=None)
    @given(_typed_tables(), st.data(), st.sampled_from(["asc", "desc"]))
    def test_sort_by_every_k(self, table, data, order):
        column = data.draw(st.sampled_from(table.columns))
        for k in [None, *range(1, table.n_rows + 2)]:
            out = exec_sort_by(table, column, order, k)
            _assert_valid(out)
            assert out == ref_sort_by(table, column, order, k)


def test_numeric_looking_threshold_against_text_keeps_its_spelling():
    table = make_table(["x"], [["5.0"], ["5"], [5]])
    # text cells compare with the threshold as written, numbers by value
    assert exec_filter(table, "x", "==", "5.0").rows == (("5.0",), (Decimal(5),))
    assert exec_filter(table, "x", "==", "+5").rows == ((Decimal(5),),)
