"""Semantic operators (add_column, clean_column) behind a pluggable executor.

Two implementations ship here: a deterministic rule-based mock for tests and
offline runs, and a chat-model-backed executor that batches all rows into one
request. Both satisfy one contract: an executor returns one value per row,
and ``None`` for a row it has no value for. add_column leaves such a cell
missing; clean_column keeps the input cell. A JSON value in a model's reply
or a mock rule's mapping becomes a cell by the one rule of
:meth:`~tableprep.table.CellMemo.cell`, as in a dataset table.

The operators alone repair a reply of the wrong length and keep a cleaned
cell. With no executor (``None``) they refuse, after their own column checks,
with the :class:`ExecutorFailureError` that a refusing executor raises. They
check only the values an executor returns; the rest of the table was
validated where it entered the program. Each operator makes the values
one-cell rows once, checks them by :func:`~tableprep.table.check_rows` and
adds them to the input rows by C-level maps; clean_column first takes the
input cell for each ``None`` value in one pass over the column.
"""

from __future__ import annotations

import logging
import re
from operator import add, itemgetter
from typing import Callable, Mapping, Protocol, Sequence

from .errors import ColumnExistsError, ColumnNotFoundError, ExecutorFailureError
from .llm import GenerationConfig, chat, first_json_array
from .table import CellMemo, Table, Value, check_rows, render_lookup, render_value

log = logging.getLogger(__name__)


class SemanticExecutor(Protocol):
    def infer_column(self, table: Table, new_column: str, description: str) -> list[Value]:
        """Return one value per row for the new column; ``None`` leaves the
        row's cell missing."""
        ...

    def rewrite_column(self, table: Table, column: str, description: str) -> list[Value]:
        """Return one value per row for ``column``; ``None`` keeps the row's
        input cell."""
        ...


def _repair_length(values: Sequence[Value], n_rows: int, context: str) -> list[Value]:
    """Pad with ``None`` or truncate so the output has exactly one value per row."""
    out = list(values)
    if len(out) < n_rows:
        log.warning("%s: executor returned %d values for %d rows; padding", context, len(out), n_rows)
        out.extend([None] * (n_rows - len(out)))
    elif len(out) > n_rows:
        log.warning("%s: executor returned %d values for %d rows; truncating", context, len(out), n_rows)
        del out[n_rows:]
    return out


def _configured(executor: SemanticExecutor | None) -> SemanticExecutor:
    """``executor`` itself; an operator with none to run refuses, as an executor would."""
    if executor is None:
        raise ExecutorFailureError("no semantic executor configured")
    return executor


def exec_add_column(table: Table, new_column: str, description: str, executor: SemanticExecutor | None) -> Table:
    """Append one inferred column; existing columns and row count are untouched."""
    if table.column_index(new_column) is not None:
        raise ColumnExistsError(new_column)
    values = _configured(executor).infer_column(table, new_column, description)
    values = _repair_length(values, table.n_rows, f"add_column {new_column!r}")
    cells = tuple(zip(values))
    check_rows(cells, 1)
    rows = tuple(map(add, table.rows, cells))
    return Table._trusted(table.columns + (new_column,), rows)


def exec_clean_column(table: Table, column: str, description: str, executor: SemanticExecutor | None) -> Table:
    """Rewrite one column in place; shape and column names never change, and
    a row the executor has no value for keeps its cell."""
    idx = table.column_index(column)
    if idx is None:
        raise ColumnNotFoundError(column)
    values = _configured(executor).rewrite_column(table, column, description)
    values = _repair_length(values, table.n_rows, f"clean_column {column!r}")
    inputs = map(itemgetter(idx), table.rows)
    cells = tuple(zip([cell if value is None else value for value, cell in zip(values, inputs)]))
    check_rows(cells, 1)
    heads = map(itemgetter(slice(None, idx)), table.rows)
    tails = map(itemgetter(slice(idx + 1, None)), table.rows)
    rows = tuple(map(add, map(add, heads, cells), tails))
    return Table._trusted(table.columns, rows)


class MockSemanticExecutor:
    """Deterministic executor dispatching on substring match of the description.

    ``rules`` is ``{pattern: {input: output}}`` of JSON values. The first
    pattern that occurs in an operator's description picks the mapping. A
    mapping matches each cell whose rendering is one of its keys, looked up by
    value (:func:`~tableprep.table.render_lookup`), and its outputs are typed
    once, as JSON values; a cell it does not match has no value.
    """

    def __init__(self, rules: Mapping[str, Mapping[str, object]]):
        cell_of = CellMemo().cell
        self._rules = {
            pattern: {cell: cell_of(mapping[text]) for cell, text in render_lookup(mapping).items()}.get
            for pattern, mapping in rules.items()
        }

    def _find_rule(self, description: str) -> Callable[[Value], Value] | None:
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
        apply = self._find_rule(description)
        if apply is None:
            log.warning("no mock rule matches clean_column description %r; column unchanged", description)
            return [None] * table.n_rows
        return list(map(apply, map(itemgetter(table.columns.index(column)), table.rows)))


class LlmSemanticExecutor:
    """Executor that asks a chat model for the whole column in one request.

    The prompt lists one line per row: the row index plus the cells of the
    columns that the description names as whole tokens when any match,
    otherwise the whole row.
    The model must answer with a JSON array of exactly one string per row;
    an empty answer is ``None``, no value, and the operators repair a reply
    of the wrong length. A failed request raises ``RequestFailedError``,
    which ``execute`` records as a failed step, as it does an
    :class:`ExecutorFailureError`.
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
        """The columns that the description names, else every column. A column
        is named where it occurs with no word character on either side."""
        named = [c for c in table.columns if re.search(rf"(?<!\w){re.escape(c)}(?!\w)", description)]
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
        doc = first_json_array(chat(self._transport, self._config, self.SYSTEM_PROMPT, user))
        if doc is None:
            raise ExecutorFailureError("semantic executor returned no JSON array")
        return list(map(CellMemo().cell, doc))

    def infer_column(self, table: Table, new_column: str, description: str) -> list[Value]:
        columns = self._relevant_columns(table, description)
        instruction = f"Produce the new column {new_column!r}: {description}"
        return self._ask(instruction, table, columns)

    def rewrite_column(self, table: Table, column: str, description: str) -> list[Value]:
        instruction = f"Rewrite column {column!r}: {description}"
        return self._ask(instruction, table, [column])
