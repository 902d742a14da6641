"""In-memory table model: typed cells, CSV/JSON ingestion, prompt serialization.

A cell value is one of three Python types:

* ``None``            - missing value (empty cell at ingestion)
* ``str``             - text, whitespace preserved verbatim
* ``decimal.Decimal`` - finite arbitrary-precision number

Tables are immutable after construction and safe to share across threads;
every operator returns a new table.

Ingestion types each distinct raw cell text once per load: a :class:`CellMemo`
maps raw text (or a JSON number's exact value) to its typed value, so equal
raw cells of one load share one immutable value object. The memo lives only
for that load (one ``load_csv``/``load_json_table`` call, or one
``data.load_instances_jsonl`` file); nothing is cached across loads.

:func:`markdown_size` gives the byte length of a table's markdown without
building it. It measures each cell through a :class:`CellWidths` memo that the
caller makes for one call over many tables (``reward.filter_dataset`` makes
one per call) and drops with it. The memo measures a cell without rendering
it: ASCII text by its length, other text by its UTF-8 encoding, ``None`` as 0
and a number by the length of its canonical ``format_number`` spelling, which
is ASCII.

Cells are validated where they enter the program: the public ``Table(...)``
constructor, CSV/JSON ingestion, and the cells a semantic executor returns
(:mod:`tableprep.semantic`). The structured operators in :mod:`tableprep.ops`
only move, drop or count cells of a table that already passed these checks, so
they build their outputs with ``Table._trusted`` and reuse the validated cells
without checking them again.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from itertools import chain

from .errors import (
    DuplicateColumnError,
    EmptyInputError,
    InvalidCellError,
    RaggedRowError,
)

Value = None | str | Decimal

# A cell is numeric iff it fully parses as an optionally signed plain decimal:
# no exponent, no thousands separators, no surrounding whitespace.
_NUMBER_RE = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)\Z")


def parse_number(text: str) -> Decimal | None:
    """Return the Decimal for ``text`` if it is a plain decimal literal, else None."""
    if not _NUMBER_RE.match(text):
        return None
    try:
        return Decimal(text)
    except InvalidOperation:  # pragma: no cover - regex already guards this
        return None


def format_number(value: Decimal) -> str:
    """Canonical rendering, exact at any precision: no trailing fractional
    zeros, no exponent, no leading plus, and every zero as ``0``."""
    text = str(value)  # exact, and cheaper than format(); exponent form only for some values
    if "E" in text:
        if not value:  # a zero such as 0E-1000 would expand to all its digits
            return "0"
        text = format(value, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def render_value(value: Value) -> str:
    """String rendering used for matching, markdown, and JSON serialization."""
    if value is None:
        return ""
    if isinstance(value, Decimal):
        return format_number(value)
    return value


def ingest_cell(text: str) -> Value:
    """Typing rule applied to every raw cell: empty -> None, decimal -> Number."""
    if text == "":
        return None
    number = parse_number(text)
    return number if number is not None else text


class CellMemo(dict):
    """Raw cell text -> its :func:`ingest_cell` value, typed on first sight.

    A JSON number read as a ``Decimal`` is its own value. Equal raw texts, and
    equal numbers, typed through one memo share one value object (values are
    immutable). Make one per load and drop it with the load.
    """

    def __missing__(self, raw: str | Decimal) -> Value:
        value = self[raw] = ingest_cell(raw) if isinstance(raw, str) else raw
        return value


# A JSON number literal whose plain rendering would need more digits than this
# on either side of the point is refused, as Python refuses longer integers.
_MAX_NUMBER_DIGITS = 4300


def _exact_number(literal: str) -> Decimal:
    value = Decimal(literal)
    if value.adjusted() >= _MAX_NUMBER_DIGITS or value.as_tuple().exponent < -_MAX_NUMBER_DIGITS:
        raise ValueError(f"number literal {literal[:32]!r} needs more than {_MAX_NUMBER_DIGITS} digits")
    return value


# Reads every JSON input but a run report: a number with a fraction or an
# exponent becomes the exact Decimal of its literal, not a float.
CELL_DECODER = json.JSONDecoder(parse_float=_exact_number)


def render_lookup(texts) -> dict:
    """The cells that render as one of ``texts``, each mapped to that text.

    Text maps to itself, a number by value when the text is its canonical
    spelling (``format_number`` of its own parse), and ``None`` to ``""``.
    ``format_number`` is a function of the value, so ``lookup.get(cell)`` is
    ``render_value(cell)`` when that is one of ``texts`` and None otherwise,
    without rendering the cell.
    """
    lookup = {}
    for text in texts:
        lookup[text] = text
        number = parse_number(text)
        if number is not None and format_number(number) == text:
            lookup[number] = text
    if "" in lookup:
        lookup[None] = ""
    return lookup


def check_rows(rows, width: int) -> None:
    """Raise unless every row has ``width`` cells and each cell is None, text
    or a finite Decimal."""
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRowError(i, width, len(row))
        for cell in row:
            if cell is None or isinstance(cell, str):
                continue
            if isinstance(cell, Decimal):
                if not cell.is_finite():
                    raise InvalidCellError(f"non-finite number in row {i}")
                continue
            raise InvalidCellError(
                f"unsupported cell type {type(cell).__name__} in row {i}"
            )


@dataclass(frozen=True)
class Table:
    """Ordered named columns plus row-major cells."""

    columns: tuple[str, ...]
    rows: tuple[tuple[Value, ...], ...] = field(default=())

    def __post_init__(self):
        seen: set[str] = set()
        for name in self.columns:
            if name in seen:
                raise DuplicateColumnError(name)
            seen.add(name)
        check_rows(self.rows, len(self.columns))

    @classmethod
    def _trusted(cls, columns: tuple[str, ...], rows: tuple[tuple[Value, ...], ...]) -> "Table":
        """Build a table without ``__post_init__``'s checks.

        Only for operator kernels whose columns and cells come from a table
        that was already validated (or were checked with :func:`check_rows`).
        """
        table = object.__new__(cls)
        object.__setattr__(table, "columns", columns)
        object.__setattr__(table, "rows", rows)
        return table

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    def column_index(self, name: str) -> int | None:
        try:
            return self.columns.index(name)
        except ValueError:
            return None


def cell_count(table: Table) -> int:
    """Number of data cells (rows x columns); supports compression statistics."""
    return table.n_rows * table.n_cols


def load_csv(data: bytes) -> Table:
    """Parse RFC-4180 CSV (UTF-8 with an optional byte-order mark, header row
    required) into a typed table.

    Cells that fully parse as decimal literals become numbers, empty cells
    become missing values, everything else stays text. Each distinct cell
    text is typed once (:class:`CellMemo`).
    """
    text = data.decode("utf-8-sig")
    if text.strip() == "":
        raise EmptyInputError("CSV input is empty")
    reader = csv.reader(io.StringIO(text))
    records = [row for row in reader if row != []]
    if not records:
        raise EmptyInputError("CSV input has no header row")
    typed = CellMemo().__getitem__
    rows = tuple(tuple(map(typed, raw)) for raw in records[1:])
    return Table(tuple(records[0]), rows)


def load_json_table(doc: dict, memo: CellMemo | None = None) -> Table:
    """Parse a ``{"header": [...], "rows": [[...], ...]}`` object into a table.

    Same cell-typing rules as :func:`load_csv` for text. A ``Decimal`` (a JSON
    number read through :data:`CELL_DECODER`) is typed as its exact value and
    must be finite; any other cell, such as a JSON integer, bool or ``NaN``,
    is typed as its ``str()``. Cells are typed through ``memo``, which a
    caller loading many tables shares across them (a fresh one by default).
    """
    if not isinstance(doc, dict):
        raise EmptyInputError("table document must be a JSON object")
    if "header" not in doc:
        raise EmptyInputError("table document is missing 'header'")
    if "rows" not in doc:
        raise EmptyInputError("table document is missing 'rows'")
    header = doc["header"]
    raw_rows = doc["rows"]
    if not isinstance(header, list) or not all(isinstance(c, str) for c in header):
        raise EmptyInputError("'header' must be a list of strings")
    if not isinstance(raw_rows, list):
        raise EmptyInputError("'rows' must be a list of rows")
    typed = (CellMemo() if memo is None else memo).__getitem__
    rows = []
    for i, raw in enumerate(raw_rows):
        if not isinstance(raw, list):
            raise InvalidCellError(f"row {i} is not a list")
        rows.append(tuple([
            None if cell is None
            else typed(cell) if isinstance(cell, str)
            else typed(_finite(cell, i)) if isinstance(cell, Decimal)
            else typed(str(cell))
            for cell in raw
        ]))
    return Table(tuple(header), tuple(rows))


def _finite(number: Decimal, row: int) -> Decimal:
    if not number.is_finite():
        raise InvalidCellError(f"non-finite number in row {row}")
    return number


def serialize_json(table: Table) -> dict:
    """Inverse of :func:`load_json_table` up to cell-typing ambiguity."""
    return {
        "header": list(table.columns),
        "rows": [[render_value(cell) for cell in row] for row in table.rows],
    }


def serialize_markdown(table: Table, max_rows: int | None = None) -> str:
    """Pipe-delimited markdown used to show tables to a model.

    Missing values render as empty strings and numbers render canonically.
    When ``max_rows`` is set and exceeded, only the first ``max_rows`` data
    rows are emitted followed by ``... (K rows omitted)``.
    """
    lines = [
        "| " + " | ".join(table.columns) + " |",
        "| " + " | ".join("---" for _ in table.columns) + " |",
    ]
    shown = table.rows
    omitted = 0
    if max_rows is not None and table.n_rows > max_rows:
        shown = table.rows[:max_rows]
        omitted = table.n_rows - max_rows
    for row in shown:
        cells = [
            cell if isinstance(cell, str) else "" if cell is None else format_number(cell)
            for cell in row
        ]
        lines.append("| " + " | ".join(cells) + " |")
    if omitted:
        lines.append(f"... ({omitted} rows omitted)")
    return "\n".join(lines)


class CellWidths(dict):
    """Cell -> UTF-8 length of its rendering, measured on first sight.

    ``format_number`` is a function of the value, so equal cells share one
    entry. Make one per call that sizes many tables and drop it with the call.
    """

    def __missing__(self, cell: Value) -> int:
        if isinstance(cell, Decimal):  # a canonical number is ASCII
            width = len(format_number(cell))
        elif cell is None:
            width = 0
        else:
            width = len(cell) if cell.isascii() else len(cell.encode("utf-8"))
        self[cell] = width
        return width


def markdown_size(table: Table, widths: CellWidths) -> int:
    """UTF-8 length of ``serialize_markdown(table)``, without building it.

    Column names and cells are measured through ``widths``. A line is
    ``"| "`` + its fields joined by ``" | "`` + ``" |"``, and the header, the
    ``---`` separator and every row each take one line.
    """
    n_cols = len(table.columns)
    joints = 3 * (n_cols - 1) if n_cols else 0
    header = 4 + joints + sum(map(widths.__getitem__, table.columns))
    separator = 4 + joints + 3 * n_cols
    cells = sum(map(widths.__getitem__, chain.from_iterable(table.rows)))
    # each row line adds its frame, its joints and the newline before it
    return header + 1 + separator + table.n_rows * (5 + joints) + cells
