import json
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableprep.errors import (
    DuplicateColumnError,
    EmptyInputError,
    InvalidCellError,
    RaggedRowError,
)
from tableprep.table import (
    Table,
    cell_count,
    format_number,
    load_csv,
    load_json_table,
    parse_number,
    render_value,
    serialize_json,
    serialize_markdown,
    table_digest,
)

from conftest import make_table


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

    def test_digest_stable_and_distinct(self):
        t1 = make_table(["a"], [[1]])
        t2 = make_table(["a"], [[2]])
        assert table_digest(t1) == table_digest(make_table(["a"], [[1]]))
        assert table_digest(t1) != table_digest(t2)


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


def test_serialize_json_shape():
    table = make_table(["a", "b"], [[1, None]])
    doc = serialize_json(table)
    assert doc == {"header": ["a", "b"], "rows": [["1", ""]]}
    assert json.dumps(doc)  # JSON-serializable
