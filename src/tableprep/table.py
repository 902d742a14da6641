"""In-memory table model: typed cells, CSV/JSON ingestion, prompt serialization.

A cell value is one of three Python types:

* ``None``            - missing value (empty cell at ingestion)
* ``str``             - text, whitespace preserved verbatim
* ``decimal.Decimal`` - finite arbitrary-precision number

Tables are immutable after construction and safe to share across threads;
every operator returns a new table.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation

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
    zeros, no exponent, no leading plus."""
    if value == 0:
        return "0"
    text = str(value)  # exact, and cheaper than format(); exponent form only for some values
    if "E" in text:
        text = format(value, "f")
    return text.rstrip("0").rstrip(".") if "." in text else text


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
        width = len(self.columns)
        for i, row in enumerate(self.rows):
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
    """Parse RFC-4180 CSV (UTF-8, header row required) into a typed table.

    Cells that fully parse as decimal literals become numbers, empty cells
    become missing values, everything else stays text.
    """
    text = data.decode("utf-8")
    if text.strip() == "":
        raise EmptyInputError("CSV input is empty")
    reader = csv.reader(io.StringIO(text))
    records = [row for row in reader if row != []]
    if not records:
        raise EmptyInputError("CSV input has no header row")
    header = tuple(records[0])
    rows = []
    for i, raw in enumerate(records[1:]):
        if len(raw) != len(header):
            raise RaggedRowError(i, len(header), len(raw))
        rows.append(tuple(ingest_cell(cell) for cell in raw))
    return Table(header, tuple(rows))


def load_json_table(doc: dict) -> Table:
    """Parse a ``{"header": [...], "rows": [[...], ...]}`` object into a table.

    Same cell-typing rules as :func:`load_csv`.
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
    rows = []
    for i, raw in enumerate(raw_rows):
        if not isinstance(raw, list):
            raise InvalidCellError(f"row {i} is not a list")
        if len(raw) != len(header):
            raise RaggedRowError(i, len(header), len(raw))
        rows.append(
            tuple(
                None if cell is None else ingest_cell(cell if isinstance(cell, str) else str(cell))
                for cell in raw
            )
        )
    return Table(tuple(header), tuple(rows))


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
        lines.append("| " + " | ".join(render_value(cell) for cell in row) + " |")
    if omitted:
        lines.append(f"... ({omitted} rows omitted)")
    return "\n".join(lines)


def table_digest(table: Table) -> str:
    """Stable content hash; keys scripted QA mocks and memo caches."""
    payload = json.dumps(serialize_json(table), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
