import ast
import csv
import io
import json
import re
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tableprep
from tableprep.data import load_instances_jsonl
from tableprep.engine import apply_operator
from tableprep.errors import (
    DuplicateColumnError,
    EmptyInputError,
    InvalidCellError,
    RaggedRowError,
    TablePrepError,
)
from tableprep.ops import AddColumnOp, CleanColumnOp, FilterOp, GroupByOp, OperatorSpec, SelectOp, SortByOp
from tableprep.semantic import MockSemanticExecutor
from tableprep.table import (
    CELL_DECODER,
    CellWidths,
    Table,
    cell_count,
    check_rows,
    format_number,
    load_csv,
    load_json_table,
    markdown_size,
    parse_number,
    render_value,
    serialize_json,
    serialize_markdown,
)

from conftest import make_table
from oracles import ref_check_rows, ref_format_number, ref_load_csv, ref_load_json_table


class TestIngestion:
    def test_csv_basic(self):
        table = load_csv(b"a,b\n1,x")
        assert table.columns == ("a", "b")
        assert table.rows == ((Decimal(1), "x"),)

    def test_csv_duplicate_header(self):
        with pytest.raises(DuplicateColumnError):
            load_csv(b"a,a\n1,2")

    def test_csv_header_only(self):
        table = load_csv(b"a\n")
        assert table.columns == ("a",)
        assert table.rows == ()

    def test_csv_empty_cell_becomes_null(self):
        table = load_csv(b"a,b\n1,\n")
        assert table.rows[0] == (Decimal(1), None)

    def test_csv_ragged(self):
        with pytest.raises(RaggedRowError):
            load_csv(b"a,b\n1\n")

    def test_csv_empty_input(self):
        with pytest.raises(EmptyInputError):
            load_csv(b"")

    def test_csv_byte_order_mark_is_not_part_of_the_header(self):
        table = load_csv("\ufeffname,score\nAda,3\n".encode("utf-8"))
        assert table.columns == ("name", "score")
        assert table.rows == (("Ada", Decimal(3)),)
        assert load_csv("\ufeff".encode("utf-8") + b"name\n\xef\xbb\xbfAda\n").rows == (("\ufeffAda",),)

    def test_csv_quoted_commas_preserved(self):
        table = load_csv(b'a\n" x, y "\n')
        assert table.rows[0] == (" x, y ",)

    def test_json_basic(self):
        table = load_json_table({"header": ["Name"], "rows": [["Ada"]]})
        assert table.columns == ("Name",)
        assert table.rows == (("Ada",),)

    def test_json_ragged(self):
        with pytest.raises(RaggedRowError):
            load_json_table({"header": ["a"], "rows": [["1", "2"]]})

    def test_json_missing_keys(self):
        with pytest.raises(EmptyInputError):
            load_json_table({"rows": []})
        with pytest.raises(EmptyInputError):
            load_json_table({"header": []})

    def test_json_empty_cell_is_null(self):
        table = load_json_table({"header": ["n"], "rows": [[""]]})
        assert table.rows == ((None,),)

    def test_json_duplicate_header(self):
        with pytest.raises(DuplicateColumnError):
            load_json_table({"header": ["a", "a"], "rows": []})

    def test_ingestion_deterministic(self):
        data = b"a,b\n1.50,-.5\n007,+2\n"
        assert load_csv(data) == load_csv(data)
        table = load_csv(data)
        assert table.rows[0] == (Decimal("1.50"), Decimal("-.5"))

    def test_whitespace_stays_text(self):
        # interior whitespace means the cell is not a plain decimal literal
        table = load_csv(b"a\n 5\n")
        assert table.rows[0] == (" 5",)


class TestNumberDetection:
    @pytest.mark.parametrize(
        "text", ["1", "-1", "+1", "1.5", ".5", "-.5", "1.", "007", "123.450"]
    )
    def test_accepts_plain_decimals(self, text):
        assert parse_number(text) is not None

    @pytest.mark.parametrize(
        "text", ["", " 5", "5 ", "1e5", "NaN", "Infinity", "1,000", "$5", "5%", "--1", "1.2.3"]
    )
    def test_rejects_everything_else(self, text):
        assert parse_number(text) is None

    def test_format_number_strips_trailing_zeros(self):
        assert format_number(Decimal("1.50")) == "1.5"
        assert format_number(Decimal("5.0")) == "5"
        assert format_number(Decimal("50")) == "50"
        assert format_number(Decimal("0.00")) == "0"
        assert format_number(Decimal("-0")) == "0"
        assert format_number(Decimal("-2.10")) == "-2.1"

    @settings(max_examples=400)
    @given(st.one_of(
        st.decimals(allow_nan=False, allow_infinity=False),
        st.builds(lambda digits, exp: Decimal(digits).scaleb(exp),
                  st.integers(-10**6, 10**6), st.integers(-30, 30)),
        st.builds(lambda sign, exp: Decimal((sign, (0,), exp)), st.integers(0, 1), st.integers(-30, 30)),
    ))
    @example(Decimal("-0"))
    @example(Decimal("0E+3"))
    @example(Decimal("-0E+3"))
    @example(Decimal("0E-30"))
    @example(Decimal("-0.000"))
    @example(Decimal("1E+2"))
    @example(Decimal("1.500"))
    @example(Decimal("-1.0E-7"))
    def test_format_number_matches_the_oracle(self, value):
        assert format_number(value) == ref_format_number(value)

    @pytest.mark.parametrize("text", [
        "123456789012345678901234567890", "-0.00000000000000000000000000000001", "1.00000000000000000000000000001",
    ])
    def test_long_numbers_survive_a_csv_round_trip(self, text):
        table = load_csv(f"id\n{text}\n".encode())
        assert serialize_json(table)["rows"] == [[text]]

    def test_render_value(self):
        assert render_value(None) == ""
        assert render_value("x ") == "x "
        assert render_value(Decimal("7")) == "7"


class TestTableInvariants:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(DuplicateColumnError):
            Table(("a", "a"))

    def test_row_width_checked(self):
        with pytest.raises(RaggedRowError):
            Table(("a", "b"), (("x",),))

    def test_nonfinite_numbers_rejected(self):
        with pytest.raises(InvalidCellError):
            Table(("a",), ((Decimal("NaN"),),))
        with pytest.raises(InvalidCellError):
            Table(("a",), ((Decimal("Infinity"),),))

    def test_every_operator_runs_on_a_table_built_from_lists(self):
        """The operators build rows by tuple concatenation, so the public
        constructor stores a caller's list rows as tuples: every operator
        gives the same table on them as on tuple rows."""
        rows = [["x", Decimal(1)], ["y", Decimal(2)], ["x", Decimal(3)]]
        listed, tupled = Table(["a", "b"], rows), Table(("a", "b"), tuple(map(tuple, rows)))
        assert listed == tupled and type(listed.columns) is tuple and type(listed.rows[0]) is tuple
        executor = MockSemanticExecutor({"up": {"x": "X", "y": "Y"}})
        specs = [SelectOp(("b",)), FilterOp("a", "==", "x"), SortByOp("b", "desc"), GroupByOp("a"),
                 AddColumnOp("c", "up"), CleanColumnOp("a", "up")]
        assert {type(spec) for spec in specs} == set(OperatorSpec.__args__)
        for spec in specs:
            assert apply_operator(spec, listed, executor) == apply_operator(spec, tupled, executor), spec

    def test_cell_count(self):
        assert cell_count(make_table("abcd", [[1, 2, 3, 4]] * 3)) == 12
        assert cell_count(make_table("abcd", [])) == 0
        assert cell_count(make_table("a", [[1]])) == 1


class TestSerialization:
    def test_markdown_single_cell(self):
        table = make_table(["a"], [[1]])
        assert serialize_markdown(table) == "| a |\n| --- |\n| 1 |"

    def test_markdown_zero_rows(self):
        table = make_table(["a", "b"], [])
        assert serialize_markdown(table) == "| a | b |\n| --- | --- |"

    def test_markdown_row_cap(self):
        table = make_table(["a"], [[i] for i in range(5)])
        text = serialize_markdown(table, max_rows=2)
        lines = text.split("\n")
        assert lines[-1] == "... (3 rows omitted)"
        assert len(lines) == 2 + 2 + 1

    def test_markdown_cap_not_exceeded(self):
        table = make_table(["a"], [[1], [2]])
        assert serialize_markdown(table, max_rows=2) == serialize_markdown(table)

    def test_markdown_null_and_number_rendering(self):
        table = make_table(["a", "b"], [[None, Decimal("2.50")]])
        assert serialize_markdown(table).split("\n")[2] == "|  | 2.5 |"

    def test_markdown_line_count_property(self, rng):
        from conftest import random_table

        for _ in range(25):
            table = random_table(rng)
            assert len(serialize_markdown(table).split("\n")) == table.n_rows + 2

    @pytest.mark.parametrize("table", [
        Table(("a", "b"), (("x | y", "z"), ("line1\nline2", "w"))),
        Table(("a|b", "c\\"), (("\r\n", "|"), ("\\|", " | | "), (None, "\\n"))),
    ])
    def test_a_cell_keeps_the_shape_of_the_table(self, table):
        lines = serialize_markdown(table).split("\n")
        assert len(lines) == table.n_rows + 2
        for line in lines:  # a field's own pipes are escaped: the rest frame n_cols fields
            assert len(re.findall(r"(?<!\\)\|", line)) == table.n_cols + 1

    def test_markdown_escapes_backslash_pipe_and_line_breaks(self):
        table = Table(("a|b",), (("x | y\\",), ("p\r\nq",)))
        assert serialize_markdown(table) == "| a\\|b |\n| --- |\n| x \\| y\\\\ |\n| p\\r\\nq |"

    def test_markdown_size_by_hand(self):
        table = make_table(["a", "é"], [[None, Decimal("2.50")], ["ü", "x"]])
        # "| a | é |", "| --- | --- |", "|  | 2.5 |", "| ü | x |"
        assert markdown_size(table, CellWidths()) == 10 + 1 + 13 + 1 + 10 + 1 + 10


_text_cell = st.text(
    alphabet="abcxyz -_:", min_size=1, max_size=6
).filter(lambda s: parse_number(s) is None)


@settings(max_examples=60, deadline=None)
@given(
    header=st.lists(
        st.text(alphabet="abcdefg", min_size=1, max_size=4), min_size=1, max_size=5, unique=True
    ),
    body=st.data(),
)
def test_json_round_trip_text_tables(header, body):
    n_rows = body.draw(st.integers(min_value=0, max_value=5))
    rows = [
        tuple(body.draw(_text_cell) for _ in header)
        for _ in range(n_rows)
    ]
    table = Table(tuple(header), tuple(rows))
    assert load_json_table(serialize_json(table)) == table


# Raw cell texts drawn from a small pool, so cells repeat within a table and
# across the tables of one file: signs, leading and trailing dots, exponents,
# zero padding, a non-ASCII digit, whitespace and the empty cell.
_RAW_TEXTS = st.sampled_from([
    "", " ", "7", "7.0", "7.00", "+7", "-7", "07", ".5", "-.5", "5.", "0", "-0", "1.50",
    "1e5", "1E+1", "NaN", "Infinity", "٣", "1,000", " 5", "Paris", "paris ", "a,b", 'say "x"',
])
_RAW_TEXT_CELLS = _RAW_TEXTS | st.text(alphabet="0123456789+-.eE x", max_size=5)
# JSON cells: text, null, numbers and bools; 1, 1.0 and true are equal as Python
# keys but type differently, as "1", "1.0" and "True"
_JSON_CELLS = st.one_of(
    _RAW_TEXT_CELLS, st.none(), st.sampled_from([1, 1.0, True, False, 0, -0.0, 7, 1.5, 10**30]),
    st.integers(-10**6, 10**6), st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _raw_tables(draw, cells):
    header = draw(st.lists(st.text(alphabet="abcdefg", min_size=1, max_size=3), min_size=1, max_size=4,
                           unique=True))
    rows = draw(st.lists(st.lists(cells, min_size=len(header), max_size=len(header)), max_size=6))
    return {"header": header, "rows": rows}


def _same_cells(table, reference):
    """Equal cell for cell, Decimal exponents included."""
    assert table.columns == reference.columns
    assert repr(table.rows) == repr(reference.rows)


def _csv_bytes(doc):
    buffer = io.StringIO()
    csv.writer(buffer).writerows([doc["header"], *doc["rows"]])
    return buffer.getvalue().encode("utf-8")


class TestLoadersMatchTheOracle:
    @settings(max_examples=200, deadline=None)
    @given(_raw_tables(_RAW_TEXT_CELLS))
    def test_csv(self, doc):
        data = _csv_bytes(doc)
        _same_cells(load_csv(data), ref_load_csv(data))

    @settings(max_examples=200, deadline=None)
    @given(_raw_tables(_JSON_CELLS))
    def test_json_table(self, doc):
        _same_cells(load_json_table(doc), ref_load_json_table(doc))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_raw_tables(_JSON_CELLS), min_size=1, max_size=4))
    def test_every_table_of_a_jsonl_file(self, tmp_path_factory, docs):
        path = tmp_path_factory.mktemp("jsonl") / "d.jsonl"
        lines = [json.dumps({"id": str(i), "question": "q", "table": doc}) for i, doc in enumerate(docs)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        instances, errors = load_instances_jsonl(str(path))
        assert errors == [] and len(instances) == len(docs)
        for instance, line in zip(instances, lines):
            doc = json.loads(line, parse_float=Decimal)["table"]  # numbers as written, such as 1e+16
            reference = ref_load_json_table(doc)
            assert instance.table == reference
            for raw_row, row, ref_row in zip(doc["rows"], instance.table.rows, reference.rows):
                for raw, cell, ref in zip(raw_row, row, ref_row):
                    assert type(cell) is type(ref)
                    if not isinstance(raw, Decimal):  # equal numbers, such as 0.0 and -0.0, share one object
                        assert repr(cell) == repr(ref)


_NON_FINITE = [Decimal("NaN"), Decimal("Infinity"), Decimal("-Infinity"), Decimal("sNaN"), Decimal("-sNaN")]
_NOT_A_LIST = st.one_of(st.none(), st.text(max_size=3), st.integers(), st.just({"a": 1}), st.just(("x",)))


@st.composite
def _planted(draw, cells, faults, min_width):
    """A table document and a copy with one fault planted: a ragged row (of
    at least ``min_width`` cells), a repeated name, a row that is not a list,
    or a non-finite Decimal, which only a Python caller can pass."""
    doc = draw(_raw_tables(cells))
    header, rows = list(doc["header"]), [list(row) for row in doc["rows"]]
    width, fault = len(header), draw(st.sampled_from(faults))
    if fault == "repeated_name":
        j = draw(st.integers(0, width))
        header.insert(j, draw(st.sampled_from(header)))
        for row in rows:
            row.insert(j, draw(cells))
        return doc, {"header": header, "rows": rows}
    rows = rows or [draw(st.lists(cells, min_size=width, max_size=width))]
    i = draw(st.integers(0, len(rows) - 1))
    if fault == "ragged":
        size = draw(st.sampled_from([n for n in range(min_width, width + 3) if n != width]))
        rows[i] = (rows[i] + draw(st.lists(cells, min_size=2, max_size=2)))[:size]
    elif fault == "not_a_list":
        rows[i] = draw(_NOT_A_LIST)
    else:
        rows[i][draw(st.integers(0, width - 1))] = draw(st.sampled_from(_NON_FINITE))
    return doc, {"header": header, "rows": rows}


def _load_outcome(load, source):
    """The table a loader returns, or the class and message of its error."""
    try:
        table = load(source)
    except TablePrepError as err:
        return type(err), str(err)
    return table.columns, repr(table.rows)


class TestLoadersCheckWhatTypingCannot:
    """The loaders check row widths, names, rows that are not lists and
    non-finite Decimals, and no cell again: a document with one fault raises
    what the oracle's full check raises, and a valid one loads cell for cell."""

    @settings(max_examples=300, deadline=None)
    @given(_planted(_JSON_CELLS, ("ragged", "repeated_name", "not_a_list", "non_finite"), 0))
    def test_json_table(self, docs):
        valid, faulty = docs
        _same_cells(load_json_table(valid), ref_load_json_table(valid))
        outcome = _load_outcome(load_json_table, faulty)
        assert outcome == _load_outcome(ref_load_json_table, faulty)
        assert issubclass(outcome[0], TablePrepError)

    @settings(max_examples=200, deadline=None)
    @given(_planted(_RAW_TEXT_CELLS, ("ragged", "repeated_name"), 1))
    def test_csv(self, docs):
        valid, faulty = map(_csv_bytes, docs)
        _same_cells(load_csv(valid), ref_load_csv(valid))
        outcome = _load_outcome(load_csv, faulty)
        assert outcome == _load_outcome(ref_load_csv, faulty)
        assert issubclass(outcome[0], TablePrepError)

    @pytest.mark.parametrize("header, rows, message", [
        (["a", "a"], [[1, 2], [Decimal("NaN"), 2]], "non-finite number in row 1"),
        (["a"], [[1, 2], [Decimal("NaN")]], "non-finite number in row 1"),
        (["a"], [[1, 2], 5, [Decimal("NaN")]], "row 1 is not a list"),
        (["a", "a"], [[1]], "duplicate column name: 'a'"),
    ], ids=["non_finite_before_names", "non_finite_before_widths", "first_typing_fault", "names_before_widths"])
    def test_a_document_with_several_faults_reports_typing_then_names_then_widths(self, header, rows, message):
        with pytest.raises(TablePrepError) as caught:
            load_json_table({"header": header, "rows": rows})
        assert str(caught.value) == message


# rows for the cell checker: cells, values it must refuse, and widths around 2
_CHECKED_VALUES = st.one_of(
    st.none(), st.text(max_size=2), st.decimals(places=1, min_value=-5, max_value=5),
    st.sampled_from([*_NON_FINITE, 3, 2.5, True, b"x", ["x"]]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_CHECKED_VALUES, min_size=1, max_size=3).map(tuple), max_size=5))
def test_check_rows_raises_what_a_walk_of_every_cell_raises(rows):
    outcomes = []
    for check in (check_rows, ref_check_rows):
        try:
            outcomes.append(check(rows, 2))
        except TablePrepError as err:
            outcomes.append((type(err), str(err)))
    assert outcomes[0] == outcomes[1]


def test_equal_cells_of_one_jsonl_load_share_one_object(tmp_path):
    row = ["Paris", "1.50", 7, "Paris"]
    path = tmp_path / "d.jsonl"
    path.write_text("".join(
        json.dumps({"id": i, "question": "q", "table": {"header": list("abcd"), "rows": [row]}}) + "\n"
        for i in ("a", "b")
    ), encoding="utf-8")
    (first, second), _ = load_instances_jsonl(str(path))
    cells = first.table.rows[0] + second.table.rows[0]
    assert cells == ("Paris", Decimal("1.50"), Decimal(7), "Paris") * 2
    assert len({id(cell) for cell in cells}) == 3


# JSON number literals: a sign, up to 36 whole digits, a fraction of up to 35
# digits and an exponent of up to 400, either way, so most need more digits
# than a float holds
_WHOLE = st.one_of(st.just("0"), st.builds(str.__add__, st.sampled_from("123456789"), st.text("0123456789", max_size=35)))
_FRACTION = st.one_of(st.just(""), st.text("0123456789", min_size=1, max_size=35).map(".".__add__))
_EXPONENT = st.one_of(st.just(""), st.builds(lambda e, sign, n: f"{e}{sign}{n}", st.sampled_from("eE"),
                                             st.sampled_from(["", "+", "-"]), st.integers(0, 400)))
_NUMBER_LITERALS = st.builds(lambda *parts: "".join(parts), st.sampled_from(["", "-"]), _WHOLE, _FRACTION, _EXPONENT)


class TestExactJsonNumbers:
    def test_the_dataset_loader_reads_numbers_exactly(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "i", "question": "q", "table": {"header": ["a", "b", "c"], '
                        '"rows": [[1e16, 0.00001, 12345678901234567890.5]]}, "answers": [1e16, 2.50]}\n',
                        encoding="utf-8")
        (instance,), errors = load_instances_jsonl(str(path))
        assert errors == []
        assert instance.table.rows == ((Decimal("1e16"), Decimal("0.00001"), Decimal("12345678901234567890.5")),)
        assert serialize_json(instance.table)["rows"] == [["10000000000000000", "0.00001", "12345678901234567890.5"]]
        assert instance.answers.answers == ("10000000000000000", "2.5")  # as a number cell of that value renders

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_NUMBER_LITERALS | st.sampled_from(["-0.0", "0e-400", "1e16", "-0", "123456789012345678901234567890.5"]),
                    min_size=1, max_size=6))
    @example(["-0.0", "0.0", "0E+3"])
    def test_a_number_cell_is_the_exact_value_of_its_literal_and_its_rendering_round_trips(self, literals):
        text = '{"header": ["a"], "rows": [%s]}' % ", ".join(f"[{literal}]" for literal in literals)
        table = load_json_table(CELL_DECODER.decode(text))
        for literal, (cell,) in zip(literals, table.rows):
            assert isinstance(cell, Decimal) and cell == Decimal(literal)
            rendered = render_value(cell)
            assert load_json_table({"header": ["a"], "rows": [[rendered]]}).rows == ((cell,),)
            assert CELL_DECODER.decode(rendered) == cell
        # equal values read as Decimals share one object; a JSON integer is typed from its text
        cells = [cell for literal, (cell,) in zip(literals, table.rows) if set(literal) & set(".eE")]
        assert len({id(cell) for cell in cells}) == len(set(cells))

    @pytest.mark.parametrize("literal, ok", [
        ("1e4299", True), ("1e4300", False), ("1e-4300", True), ("1e-4301", False),
        ("9" * 4300 + ".5", True), ("9" * 4301 + ".5", False), ("1e999999999", False),
    ])
    def test_a_number_that_renders_to_more_than_4300_digits_is_refused(self, tmp_path, literal, ok):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "i", "question": "q", "table": {"header": ["a"], "rows": [[%s]]}}\n' % literal,
                        encoding="utf-8")
        instances, errors = load_instances_jsonl(str(path))
        assert (len(instances), len(errors)) == ((1, 0) if ok else (0, 1))
        if not ok:
            assert "needs more than 4300 digits" in errors[0]["error"]

    def test_ints_bools_and_non_finite_values_keep_their_typing(self):
        doc = CELL_DECODER.decode('{"header": ["a", "b", "c", "d"], "rows": [[7, true, NaN, -Infinity]]}')
        assert load_json_table(doc).rows == ((Decimal(7), "True", "nan", "-inf"),)
        with pytest.raises(InvalidCellError):
            load_json_table({"header": ["a"], "rows": [[Decimal("NaN")]]})


_SIZE_NAMES = st.text(alphabet="ab é字\U0001f600|-\\\n\r", max_size=3)
_SIZE_CELLS = st.one_of(
    st.none(),
    st.text(alphabet="a7 .é字\U0001f600|\\\n\r", max_size=4),
    st.sampled_from(["7", "", "-0"]),
    st.decimals(allow_nan=False, allow_infinity=False, places=2, min_value=-1000, max_value=1000),
    st.sampled_from([Decimal("7"), Decimal("7.00"), Decimal("-0"), Decimal("0E+3"), Decimal("1E+2")]),
)


@st.composite
def _sized_tables(draw):
    names = draw(st.lists(_SIZE_NAMES, max_size=4, unique=True))
    rows = draw(st.lists(st.tuples(*[_SIZE_CELLS] * len(names)), max_size=5))
    return Table(tuple(names), tuple(rows))


@settings(max_examples=200, deadline=None)
@given(st.lists(_sized_tables(), min_size=1, max_size=4))
@example([Table(()), Table((), ((), ())), Table(("a",)), Table(("é",), ((None,),))])
@example([Table(("x",), ((Decimal("7"),), ("7",))), Table(("x",), ((Decimal("7.00"),), ("7.00",)))])
def test_markdown_size_is_the_byte_length_of_the_markdown(tables):
    widths = CellWidths()  # one memo shared by every table, as filter_dataset shares it
    for table in tables:
        assert markdown_size(table, widths) == len(serialize_markdown(table).encode("utf-8"))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    _SIZE_CELLS,
    _SIZE_NAMES,
    st.builds(lambda digits, exp: Decimal(digits).scaleb(exp), st.integers(-10**30, 10**30), st.integers(-40, 40)),
), max_size=8))
@example([None, "", "é", "字", "\U0001f600", Decimal("-0"), Decimal("0E-5"), Decimal("1E+3"),
          Decimal("1.500"), Decimal("-12345678901234567890123456789.0100")])
def test_cell_widths_are_the_byte_length_of_the_rendering(cells):
    widths = CellWidths()  # equal cells share an entry, so one memo serves the list
    for cell in cells:
        text = render_value(cell).replace("\\", "\\\\").replace("|", "\\|").replace("\r", "\\r").replace("\n", "\\n")
        assert widths[cell] == len(text.encode("utf-8"))


def test_serialize_json_shape():
    table = make_table(["a", "b"], [[1, None]])
    doc = serialize_json(table)
    assert doc == {"header": ["a", "b"], "rows": [["1", ""]]}
    assert json.dumps(doc)  # JSON-serializable


def test_trusted_constructor_stays_inside_the_operator_kernels():
    """Only the operator kernels and the loaders skip the cell check. The
    loaders reach ``_trusted`` only through ``Table._typed``, whose cells
    ``CellMemo`` typed; the public constructor keeps checking every cell."""
    package = Path(tableprep.__file__).parent
    users = {"_trusted": set(), "_typed": set()}
    for path in sorted(package.glob("*.py")):
        for owner, node in _nodes_by_function(path):
            if isinstance(node, ast.Attribute) and node.attr in users:
                users[node.attr].add((path.name, owner))
            elif isinstance(node, ast.Name) and node.id == "_trusted":
                users["_trusted"].add((path.name, owner))
    assert {module for module, _ in users["_trusted"]} <= {"ops.py", "semantic.py", "table.py"}
    assert {owner for module, owner in users["_trusted"] if module == "table.py"} == {"_typed"}
    assert users["_typed"] == {("table.py", "load_csv"), ("table.py", "load_json_table")}
    assert {module for module, _ in users["_trusted"]} > {"table.py"}  # the scan sees the kernels' own references


def test_input_json_is_decoded_by_one_decoder():
    """Every JSON input is read through CELL_DECODER, so a number is an int or
    its exact Decimal on every path; the run report, whose aggregates are
    floats by format, is the one other reader."""
    readers = []
    for path in sorted(Path(tableprep.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in (
                    "load", "loads", "JSONDecoder",
                ):
                    readers.append((path.name, getattr(top, "name", "")))
    assert readers == [("runner.py", "load_run_report"), ("table.py", "")]


def _nodes_by_function(path):
    """Each AST node of a module, paired with its innermost enclosing function."""
    pairs = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            pairs.append((name, child))
            visit(child, name)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return pairs


def test_only_table_py_turns_a_json_value_into_a_cell():
    """``CellMemo.cell`` is the one rule for what a JSON value becomes as a
    cell: the table loader, the LLM executor's reply and the mock mapping
    outputs call it, and no other code types a non-text value by its
    ``str()`` or tests a number's finiteness on the way in. ``semantic.py``
    tests no finiteness, since ``check_rows`` checks every executor's values,
    and it has one mock rule format: it calls no ``callable`` and types no
    text by ``ingest_cell`` beside the memo."""
    package = Path(tableprep.__file__).parent
    modules = {name: _nodes_by_function(package / name) for name in ("table.py", "semantic.py")}

    def owners(module, match):
        return sorted({owner for owner, node in modules[module] if match(node)})

    def is_call_of(name):
        return lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == name

    def is_attribute(name):
        return lambda node: isinstance(node, ast.Attribute) and node.attr == name

    def names(name):  # as a variable, an import, an attribute or a definition
        return lambda node: name in (getattr(node, "id", None), getattr(node, "name", None),
                                     getattr(node, "attr", None))

    assert owners("table.py", is_attribute("cell")) == ["load_json_table"]
    assert owners("semantic.py", is_attribute("cell")) == ["__init__", "_ask"]
    assert owners("table.py", is_call_of("str")) == ["cell", "format_number"]
    assert owners("semantic.py", is_call_of("str")) == []
    assert owners("table.py", is_attribute("is_finite")) == ["cell", "check_rows"]
    assert owners("semantic.py", is_attribute("is_finite")) == []
    assert owners("semantic.py", names("ingest_cell")) == []
    assert owners("semantic.py", is_call_of("callable")) == []
    assert "_finite" not in {node.name for _, node in modules["table.py"] if isinstance(node, ast.FunctionDef)}
