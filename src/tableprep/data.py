"""Dataset instances and JSONL I/O.

One instance per line: ``{"id": ..., "question": ..., "table": {"header":
[...], "rows": [[...]]}, "answers": [...]}``. The answers field is optional
for unlabeled runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal

from .errors import DatasetError, TablePrepError
from .reward import EXACT, AnswerSet
from .table import CELL_DECODER, CellMemo, Table, format_number, load_json_table, serialize_json


@dataclass(frozen=True)
class Instance:
    id: str
    question: str
    table: Table
    answers: AnswerSet | None = None

    def to_json(self) -> dict:
        doc = {
            "id": self.id,
            "question": self.question,
            "table": serialize_json(self.table),
        }
        if self.answers is not None:
            doc["answers"] = list(self.answers.answers)
        return doc


def instance_from_json(doc: dict, matching: str = EXACT, memo: CellMemo | None = None) -> Instance:
    if not isinstance(doc, dict):
        raise DatasetError("instance must be a JSON object")
    for key in ("id", "question", "table"):
        if key not in doc:
            raise DatasetError(f"instance is missing {key!r}")
    if isinstance(doc["id"], bool) or not isinstance(doc["id"], (str, int)):
        raise DatasetError("'id' must be a string or an integer")
    if not isinstance(doc["question"], str):
        raise DatasetError("'question' must be a string")
    try:
        table = load_json_table(doc["table"], memo)
    except TablePrepError as err:
        raise DatasetError(f"bad table: {err}") from err
    raw_answers = doc.get("answers")
    answers = None if raw_answers is None else parse_answers(raw_answers, matching)
    return Instance(str(doc["id"]), doc["question"], table, answers)


def parse_answers(raw, matching: str) -> AnswerSet:
    """An ``answers`` field: a non-empty JSON list of strings and numbers.

    A number read as a ``Decimal`` reads as its canonical rendering, the text
    a number cell of that value renders as; an integer as its digits.
    """
    if not isinstance(raw, list) or not raw:
        raise DatasetError("'answers' must be a non-empty list when present")
    if any(isinstance(a, bool) or not isinstance(a, (str, int, Decimal)) for a in raw):
        raise DatasetError("each answer must be a string or a number")
    return AnswerSet(tuple(format_number(a) if isinstance(a, Decimal) else str(a) for a in raw), matching)


def load_instances_jsonl(path: str, matching: str = EXACT):
    """Read instances from a JSONL file.

    Lines are read through :data:`~tableprep.table.CELL_DECODER`, so a JSON
    number with a fraction or an exponent is its exact ``Decimal``. Returns
    ``(instances, line_errors)`` where line_errors records malformed lines,
    including JSON the parser refuses such as an integer of more than 4,300
    digits, as ``{"line": n, "error": msg}`` so batch runs can continue.
    Duplicate ids are a dataset error. The tables of one file share one
    :class:`~tableprep.table.CellMemo`, so equal raw cells across instances
    share one value.
    """
    memo = CellMemo()
    instances: list[Instance] = []
    errors: list[dict] = []
    seen_ids: set[str] = set()
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip() == "":
                continue
            try:
                doc = CELL_DECODER.decode(line)
                instance = instance_from_json(doc, matching, memo)
                if instance.id in seen_ids:
                    raise DatasetError(f"duplicate instance id {instance.id!r}")
                seen_ids.add(instance.id)
                instances.append(instance)
            except (ValueError, RecursionError, DatasetError) as err:  # bad JSON, an over-long number, too deep
                errors.append({"line": line_no, "error": str(err)})
    return instances, errors


def write_instances_jsonl(path: str, instances) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for instance in instances:
            fh.write(json.dumps(instance.to_json(), ensure_ascii=False) + "\n")
