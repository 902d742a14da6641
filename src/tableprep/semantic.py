"""Semantic operators (add_column, clean_column) behind a pluggable executor.

Two implementations ship here: a deterministic rule-based mock for tests and
offline runs, and a chat-model-backed executor that batches all rows into one
request. Both satisfy the same contract: one value per input row for
add_column, a same-shape column rewrite for clean_column.

The operators check only the values an executor returns; the rest of the
table was validated where it entered the program. One pass collects the
values' types. When each is exactly ``None``, ``str`` or ``Decimal`` and every
``Decimal`` is finite, the values pass; otherwise they go through
:func:`~tableprep.table.check_rows` as one-cell rows, which names the first bad
row (a ``str`` subclass passes there too). The output rows are built by
C-level maps over the input rows, with no per-row Python code.
"""

from __future__ import annotations

import logging
from decimal import Decimal
from operator import add, itemgetter
from typing import Callable, Mapping, Protocol, Sequence

from .errors import ColumnExistsError, ColumnNotFoundError, ExecutorFailureError
from .llm import GenerationConfig, call_with_retries, first_json_array
from .table import Table, Value, check_rows, ingest_cell, render_lookup, render_value

log = logging.getLogger(__name__)


class SemanticExecutor(Protocol):
    def infer_column(self, table: Table, new_column: str, description: str) -> list[Value]:
        """Return exactly one value per row for the new column."""
        ...

    def rewrite_column(self, table: Table, column: str, description: str) -> list[Value]:
        """Return the full rewritten column, same length as the table."""
        ...


def _repair_length(values: Sequence[Value], n_rows: int, pad, context: str) -> list[Value]:
    """Pad with ``pad(i)`` or truncate so the output has exactly one value per row."""
    out = list(values)
    if len(out) < n_rows:
        log.warning("%s: executor returned %d values for %d rows; padding", context, len(out), n_rows)
        out.extend(pad(i) for i in range(len(out), n_rows))
    elif len(out) > n_rows:
        log.warning("%s: executor returned %d values for %d rows; truncating", context, len(out), n_rows)
        del out[n_rows:]
    return out


# the cell types whose every value is valid, but for non-finite Decimals
_CELL_TYPES = frozenset({type(None), str, Decimal})


def _check_values(values: list) -> None:
    """Raise unless every value is a cell, with :func:`check_rows`' message."""
    types = set(map(type, values))
    if types <= _CELL_TYPES and (
        Decimal not in types or all(v.is_finite() for v in values if type(v) is Decimal)
    ):
        return
    check_rows([(value,) for value in values], 1)


def exec_add_column(table: Table, new_column: str, description: str, executor: SemanticExecutor) -> Table:
    """Append one inferred column; existing columns and row count are untouched."""
    if table.column_index(new_column) is not None:
        raise ColumnExistsError(new_column)
    values = executor.infer_column(table, new_column, description)
    values = _repair_length(values, table.n_rows, lambda i: None, f"add_column {new_column!r}")
    _check_values(values)
    rows = tuple(map(add, table.rows, zip(values)))
    return Table._trusted(table.columns + (new_column,), rows)


def exec_clean_column(table: Table, column: str, description: str, executor: SemanticExecutor) -> Table:
    """Rewrite one column in place; shape and column names never change."""
    idx = table.column_index(column)
    if idx is None:
        raise ColumnNotFoundError(column)
    values = executor.rewrite_column(table, column, description)
    values = _repair_length(
        values, table.n_rows, lambda i: table.rows[i][idx], f"clean_column {column!r}"
    )
    _check_values(values)
    heads = map(itemgetter(slice(None, idx)), table.rows)
    tails = map(itemgetter(slice(idx + 1, None)), table.rows)
    rows = tuple(map(add, map(add, heads, zip(values)), tails))
    return Table._trusted(table.columns, rows)


# A mock rule is either a mapping from rendered input value to output string,
# or a callable taking one cell value and returning a replacement (None = no
# opinion). Patterns match by substring against the operator description;
# first registered pattern wins.
MockRule = Mapping[str, str] | Callable[[Value], Value | str | None]


def _typed(out):
    """A rule's output, typed as ingestion types a raw cell when it is text."""
    return ingest_cell(out) if isinstance(out, str) else out


def _per_cell(rule: MockRule) -> Callable[[Value], Value | None]:
    """The rule as one function of a cell.

    A mapping matches each cell whose rendering is one of its keys, looked up
    by value (:func:`~tableprep.table.render_lookup`), and its outputs are
    typed once here.
    """
    if not callable(rule):
        return {cell: _typed(rule[text]) for cell, text in render_lookup(rule).items()}.get

    def apply(cell: Value) -> Value | None:
        try:
            result = rule(cell)
        except Exception as err:
            raise ExecutorFailureError(f"mock rule raised: {err}") from err
        return _typed(result)

    return apply


class MockSemanticExecutor:
    """Deterministic executor dispatching on substring match of the description."""

    def __init__(self, rules: Mapping[str, MockRule] | None = None):
        self._rules = {pattern: _per_cell(rule) for pattern, rule in (rules or {}).items()}

    @classmethod
    def from_json(cls, doc: Mapping[str, Mapping[str, str]]) -> "MockSemanticExecutor":
        """Load ``{pattern: {input: output, ...}}`` fixture rules."""
        return cls({pattern: dict(mapping) for pattern, mapping in doc.items()})

    def _find_rule(self, description: str) -> Callable[[Value], Value | None] | None:
        for pattern, apply in self._rules.items():
            if pattern in description:
                return apply
        return None

    def infer_column(self, table: Table, new_column: str, description: str) -> list[Value]:
        apply = self._find_rule(description)
        if apply is None:
            log.warning("no mock rule matches add_column description %r; filling nulls", description)
            return [None] * table.n_rows
        values: list[Value] = []
        for row in table.rows:
            hit: Value = None
            for cell in row:
                result = apply(cell)
                if result is not None:
                    hit = result
                    break
            values.append(hit)
        return values

    def rewrite_column(self, table: Table, column: str, description: str) -> list[Value]:
        idx = table.columns.index(column)
        cells = [row[idx] for row in table.rows]
        apply = self._find_rule(description)
        if apply is None:
            log.warning("no mock rule matches clean_column description %r; column unchanged", description)
            return cells
        return [cell if (result := apply(cell)) is None else result for cell in cells]


class LlmSemanticExecutor:
    """Executor that asks a chat model for the whole column in one request.

    The prompt lists one line per row: the row index plus the cells of the
    columns named in the description when any match, otherwise the whole row.
    The model must answer with a JSON array of exactly one string per row;
    length mismatches are repaired upstream by padding or truncation. Failed
    requests are retried ``config.retries`` times.
    """

    SYSTEM_PROMPT = (
        "You transform table columns. Reply with a single JSON array of strings, "
        "one entry per listed row, in row order. Use \"\" when a value cannot be "
        "determined. Do not add prose."
    )

    def __init__(self, transport, config: GenerationConfig):
        self._transport = transport
        self._config = config

    def _relevant_columns(self, table: Table, description: str) -> list[str]:
        named = [c for c in table.columns if c in description]
        return named if named else list(table.columns)

    def _row_listing(self, table: Table, columns: list[str]) -> str:
        indices = [table.columns.index(c) for c in columns]
        lines = []
        for i, row in enumerate(table.rows):
            cells = "; ".join(f"{c}={render_value(row[j])}" for c, j in zip(columns, indices))
            lines.append(f"{i}: {cells}")
        return "\n".join(lines)

    def _ask(self, instruction: str, table: Table, columns: list[str]) -> list[Value]:
        user = (
            f"Instruction: {instruction}\n"
            f"Rows ({table.n_rows} total):\n{self._row_listing(table, columns)}\n"
            f"Answer with a JSON array of exactly {table.n_rows} strings."
        )
        messages = [
            {"role": "system", "content": self.SYSTEM_PROMPT},
            {"role": "user", "content": user},
        ]
        try:
            raw = call_with_retries(
                lambda: self._transport.complete(messages, self._config), self._config.retries
            )
        except Exception as err:
            raise ExecutorFailureError(f"semantic executor transport failed: {err}") from err
        doc = first_json_array(raw)
        if doc is None:
            raise ExecutorFailureError("semantic executor returned no JSON array")
        return [item if item is None or type(item) is Decimal else ingest_cell(str(item)) for item in doc]

    def infer_column(self, table: Table, new_column: str, description: str) -> list[Value]:
        columns = self._relevant_columns(table, description)
        instruction = f"Produce the new column {new_column!r}: {description}"
        return self._ask(instruction, table, columns)

    def rewrite_column(self, table: Table, column: str, description: str) -> list[Value]:
        idx = table.columns.index(column)
        instruction = f"Rewrite column {column!r}: {description}"
        values = self._ask(instruction, table, [column])
        # Unparsed cells (empty answers) stay unchanged.
        return [
            table.rows[i][idx] if i < table.n_rows and v is None else v
            for i, v in enumerate(values)
        ]
