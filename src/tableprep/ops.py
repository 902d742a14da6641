"""Operator algebra: typed specs, JSON parsing, and the structured executors.

The operator vocabulary is closed: four structured operators executed natively
here (select, filter, sort_by, group_by) and two semantic operators
(add_column, clean_column) whose execution lives in :mod:`tableprep.semantic`.

Wire format is one JSON object per operator, e.g.::

    {"operation": "filter", "column": "Country", "cmp": "==", "value": "USA",
     "explanation": "keep US rows"}

and a pipeline is a JSON array of such objects.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
from decimal import Decimal
from typing import ClassVar, Union, get_args

from .errors import (
    BadParamTypeError,
    ColumnNotFoundError,
    MissingParamError,
    NoValidColumnsError,
    OperatorParseError,
    PipelineParseError,
    UnknownOperatorError,
)
from .table import Table, Value, format_number, parse_number, render_value

COMPARATORS = ("==", "!=", ">", "<", ">=", "<=")

# A spec's identity is its kind and parameters: ``explanation`` is text for
# readers and takes no part in equality or hashing, as in canonical_key.


@dataclass(frozen=True)
class SelectOp:
    kind: ClassVar[str] = "select"
    columns: tuple[str, ...]
    explanation: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class FilterOp:
    kind: ClassVar[str] = "filter"
    column: str
    cmp: str
    value: Value
    explanation: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SortByOp:
    kind: ClassVar[str] = "sort_by"
    column: str
    order: str
    k: int | None = None
    explanation: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class GroupByOp:
    kind: ClassVar[str] = "group_by"
    column: str
    explanation: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class AddColumnOp:
    kind: ClassVar[str] = "add_column"
    new_column: str
    description: str
    explanation: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class CleanColumnOp:
    kind: ClassVar[str] = "clean_column"
    column: str
    description: str
    explanation: str | None = field(default=None, compare=False)


OperatorSpec = Union[SelectOp, FilterOp, SortByOp, GroupByOp, AddColumnOp, CleanColumnOp]


class Pipeline(tuple):
    """Ordered operator sequence: a tuple of specs, built from any iterable;
    ``Pipeline()`` is the identity pipeline and, like any empty tuple, false."""

    __slots__ = ()


# --- wire format ---
# Each spec field is named after its wire key, so the spec dataclasses declare
# the format: one reader per wire key, and a field with a default is optional.


def _string(op: str, key: str, value) -> str:
    if not isinstance(value, str):
        raise BadParamTypeError(op, key, "expected a string")
    return value


def _text(op: str, key: str, value) -> str:
    if _string(op, key, value).strip() == "":
        raise BadParamTypeError(op, key, "must be non-empty")
    return value


def _names(op: str, key: str, value) -> tuple[str, ...]:
    if not isinstance(value, list) or not value or not all(isinstance(c, str) for c in value):
        raise BadParamTypeError(op, key, "expected a non-empty list of names")
    return tuple(value)


def _one_of(choices: tuple[str, ...], detail: str):
    def read(op: str, key: str, value) -> str:
        if value not in choices:
            raise BadParamTypeError(op, key, detail)
        return value

    return read


def _top_k(op: str, key: str, value) -> int | None:
    if value is not None and (isinstance(value, bool) or not isinstance(value, int) or value < 1):
        raise BadParamTypeError(op, key, "expected an integer >= 1")
    return value


def _coerce_scalar(op: str, key: str, value) -> Value:
    """Filter thresholds arrive as JSON scalars; numeric-looking strings and
    JSON numbers both normalize to Decimal so comparison and canonicalization
    agree with cell ingestion. Every JSON input is read through
    :data:`~tableprep.table.CELL_DECODER`, so a number arrives as an int or
    its exact ``Decimal``, which is kept; a float comes only from a Python
    caller and is read through its ``str()``. A ``NaN`` or ``Infinity`` is
    non-finite and is rejected."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float, Decimal)):
        raise BadParamTypeError(op, key, "expected a string or number")
    if isinstance(value, str):
        number = parse_number(value)
        return number if number is not None else value
    number = value if isinstance(value, Decimal) else Decimal(value if isinstance(value, int) else str(value))
    if not number.is_finite():
        raise BadParamTypeError(op, key, "expected a string or a finite number")
    return number


_READERS = {
    "columns": _names,
    "column": _string,
    "new_column": _text,
    "description": _text,
    "cmp": _one_of(COMPARATORS, f"expected one of {list(COMPARATORS)}"),
    "value": _coerce_scalar,
    "order": _one_of(("asc", "desc"), "expected 'asc' or 'desc'"),
    "k": _top_k,
    "explanation": _string,
}

# kind -> (spec class, ((wire key, reader, required), ...) in field order)
_WIRE = {
    cls.kind: (cls, tuple((f.name, _READERS[f.name], f.default is MISSING) for f in fields(cls)))
    for cls in get_args(OperatorSpec)
}


def parse_operator(doc: dict) -> OperatorSpec:
    """Parse one JSON operator object into a typed spec.

    Unknown extra fields are ignored; ``explanation`` is captured if present.
    """
    if not isinstance(doc, dict):
        raise BadParamTypeError("?", "operator", "expected a JSON object")
    if "operation" not in doc:
        raise MissingParamError("?", "operation")
    name = doc["operation"]
    if not isinstance(name, str):
        raise BadParamTypeError("?", "operation", "expected a string")
    if name not in _WIRE:
        raise UnknownOperatorError(name)
    cls, params = _WIRE[name]
    kwargs = {}
    for key, read, required in params:
        if key in doc:
            kwargs[key] = read(name, key, doc[key])
        elif required:
            raise MissingParamError(name, key)
    return cls(**kwargs)


def parse_pipeline(doc: list) -> Pipeline:
    """Parse a JSON array of operator objects, reporting the offending index."""
    if not isinstance(doc, list):
        raise PipelineParseError(0, BadParamTypeError("?", "pipeline", "expected a JSON array"))
    ops = []
    for i, item in enumerate(doc):
        try:
            ops.append(parse_operator(item))
        except OperatorParseError as err:
            raise PipelineParseError(i, err) from err
    return Pipeline(ops)


def _params(spec: OperatorSpec) -> dict:
    """Wire key -> field value in field order; an optional field left at None
    is omitted."""
    params = {}
    for key, _, required in _WIRE[spec.kind][1]:
        value = getattr(spec, key)
        if required or value is not None:
            params[key] = value
    return params


def _value_to_json(value):
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, Decimal):
        if value == value.to_integral_value():
            return int(value)
        return format_number(value)
    return value


def operator_to_json(spec: OperatorSpec) -> dict:
    params = _params(spec)
    return {"operation": spec.kind, **{key: _value_to_json(value) for key, value in params.items()}}


def pipeline_to_json(pipeline: Pipeline) -> list[dict]:
    return [operator_to_json(spec) for spec in pipeline]


def canonical_key(spec: OperatorSpec) -> str:
    """Deterministic identity string: kind plus parameters, explanation excluded.

    A numeric threshold, of any number type, keys as the canonical text of its
    ``Decimal``, so a threshold given as the string "5", the int 5 and
    ``Decimal("5.0")`` produce the same key. A ``None`` threshold keys as JSON
    null, apart from the text "", since the two keep different rows. Select
    columns are treated as a set because execution preserves the table's own
    column order.
    """
    params = _params(spec)
    params.pop("explanation", None)
    if isinstance(spec, SelectOp):
        params["columns"] = sorted(set(spec.columns))
    elif isinstance(spec, FilterOp):
        value = spec.value
        if isinstance(value, str):
            number = parse_number(value)
            params["value"] = format_number(number) if number is not None else value
        elif value is not None:
            params["value"] = format_number(Decimal(value))
    return json.dumps([spec.kind, params], sort_keys=True, separators=(",", ":"), ensure_ascii=False)


# --- structured execution ---
#
# The inputs of these kernels are validated tables, and every output cell is
# one of their cells or an integral Decimal count, so outputs are built with
# ``Table._trusted``.

_COMPARE = {
    "==": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    "<": operator.lt,
    ">=": operator.ge,
    "<=": operator.le,
}


def exec_select(table: Table, columns) -> Table:
    """Keep the requested columns in the table's own column order.

    Requested names absent from the table are dropped silently; only a request
    that matches nothing is an error.
    """
    requested = set(columns)
    kept = [name for name in table.columns if name in requested]
    if not kept:
        raise NoValidColumnsError(tuple(columns))
    if len(kept) == table.n_cols:
        return Table._trusted(table.columns, table.rows)
    indices = [table.columns.index(name) for name in kept]
    if len(indices) == 1:
        (i,) = indices
        rows = tuple((row[i],) for row in table.rows)
    else:
        rows = tuple(map(operator.itemgetter(*indices), table.rows))
    return Table._trusted(tuple(kept), rows)


def _cell_predicate(cmp: str, value: Value):
    """The filter test for one cell, with the threshold resolved once.

    Numeric when the cell is a number and the threshold is a number or a
    numeric-looking string; otherwise both sides compare as rendered strings,
    the threshold keeping its own spelling.
    """
    compare = _COMPARE[cmp]
    number = value if isinstance(value, Decimal) else (
        parse_number(value) if isinstance(value, str) else None
    )
    text = render_value(value)
    keep_null = cmp == "!=" and value is not None

    def keep(cell: Value) -> bool:
        if isinstance(cell, str):
            return compare(cell, text)
        if cell is None:
            return keep_null
        if number is not None:
            return compare(cell, number)
        return compare(format_number(cell), text)

    return keep


def exec_filter(table: Table, column: str, cmp: str, value: Value) -> Table:
    """Keep rows whose cell in ``column`` satisfies the predicate.

    Missing cells never satisfy a predicate except ``!=`` against a non-null
    threshold. Ordering comparators fall back to lexicographic comparison of
    renderings when the pair is not numeric.
    """
    idx = table.column_index(column)
    if idx is None:
        raise ColumnNotFoundError(column)
    keep = _cell_predicate(cmp, value)
    rows = tuple(row for row in table.rows if keep(row[idx]))
    return Table._trusted(table.columns, rows)


_NONE_TYPE = type(None)


def exec_sort_by(table: Table, column: str, order: str, k: int | None = None) -> Table:
    """Stable sort on one column, missing cells always last; optional top-k.

    Numeric ordering applies when every non-null cell in the column is a
    number, otherwise cells order lexicographically by their rendering.
    """
    idx = table.column_index(column)
    if idx is None:
        raise ColumnNotFoundError(column)
    rows = table.rows
    cell = operator.itemgetter(idx)
    types = set(map(type, map(cell, rows)))
    nulls = []
    if _NONE_TYPE in types:
        types.discard(_NONE_TYPE)
        nulls = [row for row in rows if row[idx] is None]
        rows = [row for row in rows if row[idx] is not None]
    if len(types) <= 1:
        key = cell  # all text or all numbers: order the cells
    else:
        key = lambda row: render_value(row[idx])  # mixed: order the renderings
    ordered = sorted(rows, key=key, reverse=(order == "desc"))
    ordered += nulls
    if k is not None:
        del ordered[k:]
    return Table._trusted(table.columns, tuple(ordered))


def exec_group_by(table: Table, column: str) -> Table:
    """One row per distinct value (first-appearance order) with its count.

    Cells are their own group keys: text never equals a number, equal numbers
    share a group, and the dict keeps each group's first cell.
    """
    idx = table.column_index(column)
    if idx is None:
        raise ColumnNotFoundError(column)
    counts = Counter(map(operator.itemgetter(idx), table.rows))
    count_name = "count" if column != "count" else "count_"
    rows = tuple((cell, Decimal(n)) for cell, n in counts.items())
    return Table._trusted((column, count_name), rows)
