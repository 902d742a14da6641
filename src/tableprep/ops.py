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
from dataclasses import dataclass
from decimal import Decimal
from typing import ClassVar, Union

from .errors import (
    BadParamTypeError,
    ColumnNotFoundError,
    MissingParamError,
    NoValidColumnsError,
    PipelineParseError,
    UnknownOperatorError,
)
from .table import Table, Value, format_number, parse_number, render_value

COMPARATORS = ("==", "!=", ">", "<", ">=", "<=")


@dataclass(frozen=True)
class SelectOp:
    kind: ClassVar[str] = "select"
    columns: tuple[str, ...]
    explanation: str | None = None


@dataclass(frozen=True)
class FilterOp:
    kind: ClassVar[str] = "filter"
    column: str
    cmp: str
    value: Value
    explanation: str | None = None


@dataclass(frozen=True)
class SortByOp:
    kind: ClassVar[str] = "sort_by"
    column: str
    order: str
    k: int | None = None
    explanation: str | None = None


@dataclass(frozen=True)
class GroupByOp:
    kind: ClassVar[str] = "group_by"
    column: str
    explanation: str | None = None


@dataclass(frozen=True)
class AddColumnOp:
    kind: ClassVar[str] = "add_column"
    new_column: str
    description: str
    explanation: str | None = None


@dataclass(frozen=True)
class CleanColumnOp:
    kind: ClassVar[str] = "clean_column"
    column: str
    description: str
    explanation: str | None = None


OperatorSpec = Union[SelectOp, FilterOp, SortByOp, GroupByOp, AddColumnOp, CleanColumnOp]


@dataclass(frozen=True)
class Pipeline:
    """Ordered operator sequence; empty means the identity pipeline."""

    ops: tuple[OperatorSpec, ...] = ()

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)


# --- parsing ---


def _require(doc: dict, op: str, param: str):
    if param not in doc:
        raise MissingParamError(op, param)
    return doc[param]


def _require_str(doc: dict, op: str, param: str, allow_empty: bool = True) -> str:
    value = _require(doc, op, param)
    if not isinstance(value, str):
        raise BadParamTypeError(op, param, "expected a string")
    if not allow_empty and value.strip() == "":
        raise BadParamTypeError(op, param, "must be non-empty")
    return value


def _optional_explanation(doc: dict, op: str) -> str | None:
    if "explanation" not in doc:
        return None
    value = doc["explanation"]
    if not isinstance(value, str):
        raise BadParamTypeError(op, "explanation", "expected a string")
    return value


def _coerce_scalar(op: str, param: str, value) -> Value:
    """Filter thresholds arrive as JSON scalars; numeric-looking strings and
    JSON numbers both normalize to Decimal so comparison and canonicalization
    agree with cell ingestion."""
    if isinstance(value, bool) or value is None or isinstance(value, (list, dict)):
        raise BadParamTypeError(op, param, "expected a string or number")
    if isinstance(value, int):
        return Decimal(value)
    if isinstance(value, float):
        return Decimal(str(value))
    if isinstance(value, str):
        number = parse_number(value)
        return number if number is not None else value
    raise BadParamTypeError(op, param, "expected a string or number")


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

    if name == "select":
        columns = _require(doc, name, "columns")
        if (
            not isinstance(columns, list)
            or not columns
            or not all(isinstance(c, str) for c in columns)
        ):
            raise BadParamTypeError(name, "columns", "expected a non-empty list of names")
        return SelectOp(tuple(columns), _optional_explanation(doc, name))

    if name == "filter":
        column = _require_str(doc, name, "column")
        cmp = _require(doc, name, "cmp")
        if cmp not in COMPARATORS:
            raise BadParamTypeError(name, "cmp", f"expected one of {list(COMPARATORS)}")
        value = _coerce_scalar(name, "value", _require(doc, name, "value"))
        return FilterOp(column, cmp, value, _optional_explanation(doc, name))

    if name == "sort_by":
        column = _require_str(doc, name, "column")
        order = _require(doc, name, "order")
        if order not in ("asc", "desc"):
            raise BadParamTypeError(name, "order", "expected 'asc' or 'desc'")
        k = None
        if "k" in doc and doc["k"] is not None:
            k = doc["k"]
            if isinstance(k, bool) or not isinstance(k, int) or k < 1:
                raise BadParamTypeError(name, "k", "expected an integer >= 1")
        return SortByOp(column, order, k, _optional_explanation(doc, name))

    if name == "group_by":
        column = _require_str(doc, name, "column")
        return GroupByOp(column, _optional_explanation(doc, name))

    if name == "add_column":
        new_column = _require_str(doc, name, "new_column", allow_empty=False)
        description = _require_str(doc, name, "description", allow_empty=False)
        return AddColumnOp(new_column, description, _optional_explanation(doc, name))

    if name == "clean_column":
        column = _require_str(doc, name, "column")
        description = _require_str(doc, name, "description", allow_empty=False)
        return CleanColumnOp(column, description, _optional_explanation(doc, name))

    raise UnknownOperatorError(name)


def parse_pipeline(doc: list) -> Pipeline:
    """Parse a JSON array of operator objects, reporting the offending index."""
    if not isinstance(doc, list):
        raise PipelineParseError(0, BadParamTypeError("?", "pipeline", "expected a JSON array"))
    ops = []
    for i, item in enumerate(doc):
        try:
            ops.append(parse_operator(item))
        except (BadParamTypeError, MissingParamError, UnknownOperatorError) as err:
            raise PipelineParseError(i, err) from err
    return Pipeline(tuple(ops))


# --- serialization ---


def _value_to_json(value: Value):
    if isinstance(value, Decimal):
        if value == value.to_integral_value():
            return int(value)
        return format_number(value)
    return value


def operator_to_json(spec: OperatorSpec) -> dict:
    doc: dict = {"operation": spec.kind}
    if isinstance(spec, SelectOp):
        doc["columns"] = list(spec.columns)
    elif isinstance(spec, FilterOp):
        doc["column"] = spec.column
        doc["cmp"] = spec.cmp
        doc["value"] = _value_to_json(spec.value)
    elif isinstance(spec, SortByOp):
        doc["column"] = spec.column
        doc["order"] = spec.order
        if spec.k is not None:
            doc["k"] = spec.k
    elif isinstance(spec, GroupByOp):
        doc["column"] = spec.column
    elif isinstance(spec, AddColumnOp):
        doc["new_column"] = spec.new_column
        doc["description"] = spec.description
    elif isinstance(spec, CleanColumnOp):
        doc["column"] = spec.column
        doc["description"] = spec.description
    if spec.explanation is not None:
        doc["explanation"] = spec.explanation
    return doc


def pipeline_to_json(pipeline: Pipeline) -> list[dict]:
    return [operator_to_json(spec) for spec in pipeline.ops]


def canonical_key(spec: OperatorSpec) -> str:
    """Deterministic identity string: kind plus parameters, explanation excluded.

    Numeric parameters render canonically, so a threshold given as the string
    "5" and as the number 5 produce the same key. Select columns are treated
    as a set because execution preserves the table's own column order.
    """
    if isinstance(spec, SelectOp):
        params = {"columns": sorted(set(spec.columns))}
    elif isinstance(spec, FilterOp):
        value = spec.value
        if isinstance(value, str):
            number = parse_number(value)
            canonical = format_number(number) if number is not None else value
        else:
            canonical = render_value(value)
        params = {"column": spec.column, "cmp": spec.cmp, "value": canonical}
    elif isinstance(spec, SortByOp):
        params = {"column": spec.column, "order": spec.order}
        if spec.k is not None:
            params["k"] = spec.k
    elif isinstance(spec, GroupByOp):
        params = {"column": spec.column}
    elif isinstance(spec, AddColumnOp):
        params = {"new_column": spec.new_column, "description": spec.description}
    else:
        params = {"column": spec.column, "description": spec.description}
    return json.dumps([spec.kind, params], sort_keys=True, separators=(",", ":"), ensure_ascii=False)


# --- structured execution ---


def exec_select(table: Table, columns) -> Table:
    """Keep the requested columns in the table's own column order.

    Requested names absent from the table are dropped silently; only a request
    that matches nothing is an error.
    """
    requested = set(columns)
    kept = [name for name in table.columns if name in requested]
    if not kept:
        raise NoValidColumnsError(tuple(columns))
    indices = [table.columns.index(name) for name in kept]
    rows = tuple(tuple(row[i] for i in indices) for row in table.rows)
    return Table(tuple(kept), rows)


def _as_comparable(cell: Value, value: Value) -> tuple:
    """Pick the comparison domain for one cell/threshold pair.

    Numeric when the cell is a number and the threshold is a number or a
    numeric-looking string; otherwise both sides compare as rendered strings.
    """
    if isinstance(cell, Decimal):
        if isinstance(value, Decimal):
            return cell, value
        if isinstance(value, str):
            number = parse_number(value)
            if number is not None:
                return cell, number
    return render_value(cell), render_value(value)


def _satisfies(cell: Value, cmp: str, value: Value) -> bool:
    if cell is None:
        return cmp == "!=" and value is not None
    left, right = _as_comparable(cell, value)
    if cmp == "==":
        return left == right
    if cmp == "!=":
        return left != right
    if cmp == ">":
        return left > right
    if cmp == "<":
        return left < right
    if cmp == ">=":
        return left >= right
    return left <= right


def exec_filter(table: Table, column: str, cmp: str, value: Value) -> Table:
    """Keep rows whose cell in ``column`` satisfies the predicate.

    Missing cells never satisfy a predicate except ``!=`` against a non-null
    threshold. Ordering comparators fall back to lexicographic comparison of
    renderings when the pair is not numeric.
    """
    idx = table.column_index(column)
    if idx is None:
        raise ColumnNotFoundError(column)
    rows = tuple(row for row in table.rows if _satisfies(row[idx], cmp, value))
    return Table(table.columns, rows)


def exec_sort_by(table: Table, column: str, order: str, k: int | None = None) -> Table:
    """Stable sort on one column, missing cells always last; optional top-k.

    Numeric ordering applies when every non-null cell in the column is a
    number, otherwise cells order lexicographically by their rendering.
    """
    idx = table.column_index(column)
    if idx is None:
        raise ColumnNotFoundError(column)
    cells = [row[idx] for row in table.rows]
    numeric = all(isinstance(c, Decimal) for c in cells if c is not None)

    def key(row):
        cell = row[idx]
        return cell if numeric else render_value(cell)

    non_null = [row for row in table.rows if row[idx] is not None]
    nulls = tuple(row for row in table.rows if row[idx] is None)
    ordered = tuple(sorted(non_null, key=key, reverse=(order == "desc"))) + nulls
    if k is not None:
        ordered = ordered[: min(k, len(ordered))]
    return Table(table.columns, ordered)


def _group_key(cell: Value):
    # None groups with itself; Decimal keys use numeric equality.
    return ("null",) if cell is None else (type(cell).__name__, cell)


def exec_group_by(table: Table, column: str) -> Table:
    """One row per distinct value (first-appearance order) with its count."""
    idx = table.column_index(column)
    if idx is None:
        raise ColumnNotFoundError(column)
    counts: dict = {}
    representatives: dict = {}
    for row in table.rows:
        key = _group_key(row[idx])
        if key not in counts:
            counts[key] = 0
            representatives[key] = row[idx]
        counts[key] += 1
    count_name = "count" if column != "count" else "count_"
    rows = tuple(
        (representatives[key], Decimal(counts[key])) for key in counts
    )
    return Table((column, count_name), rows)
