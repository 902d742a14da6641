"""Self-supervised pipeline rewards: correctness, compression, length, total.

All reward values are exact rationals (:class:`fractions.Fraction`), so the
weighted total reproduces hand computation without float drift. Correctness is
verifiable only on cell-focused instances, where every gold answer appears
verbatim as a table cell.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .engine import OK, ExecutionTrace
from .errors import BadBudgetError, DegenerateInitialTableError
from .gate import as_fraction
from .table import Table, format_number, parse_number, serialize_markdown

log = logging.getLogger(__name__)

EXACT = "exact"
NORMALIZED = "normalized"

AS_WRITTEN = "as_written"
INVERTED = "inverted"


@dataclass(frozen=True)
class AnswerSet:
    """Gold answers plus the string-matching policy used against cells."""

    answers: tuple[str, ...]
    matching: str = EXACT

    def __post_init__(self):
        if not self.answers:
            raise ValueError("answer set must be non-empty")
        if self.matching not in (EXACT, NORMALIZED):
            raise ValueError(f"unknown matching policy {self.matching!r}")

    @classmethod
    def of(cls, *answers: str, matching: str = EXACT) -> "AnswerSet":
        return cls(tuple(answers), matching)


def _normalize(text: str) -> str:
    return text.strip().casefold()


def match_answer(answer: str, cell_text: str, matching: str) -> bool:
    """True iff ``answer`` equals ``cell_text`` under the matching policy."""
    if matching == NORMALIZED:
        return _normalize(answer) == _normalize(cell_text)
    return answer == cell_text


def contains_all_answers(table: Table, answers: AnswerSet) -> bool:
    """True iff every answer string matches at least one cell rendering.

    Text and missing cells compare as their rendering. Numbers match by value
    against the answers spelled canonically (``format_number`` of their own
    parse): ``format_number`` is a canonical function of the value, so this is
    equivalent to matching the rendering, and no cell is rendered. The scan
    stops once every answer has matched.
    """
    normalized = answers.matching == NORMALIZED
    missing = {_normalize(a) for a in answers.answers} if normalized else set(answers.answers)
    by_value = {}
    for text in missing:
        number = parse_number(text)
        if number is not None and format_number(number) == text:
            by_value[number] = text
    for row in table.rows:
        for cell in row:
            if isinstance(cell, str):
                text = _normalize(cell) if normalized else cell
            elif cell is None:
                text = ""
            else:
                text = by_value.get(cell)
            if text in missing:
                missing.remove(text)
                if not missing:
                    return True
    return False


def op_correctness(table_after: Table, answers: AnswerSet) -> int:
    """Per-operation correctness: 1 iff the produced table keeps all answers."""
    return 1 if contains_all_answers(table_after, answers) else 0


def is_cell_focused(table: Table, answers: AnswerSet) -> bool:
    """Instance-level check under exact matching, whatever the reward policy."""
    return contains_all_answers(table, AnswerSet(answers.answers, EXACT))


def per_op_correctness(trace: ExecutionTrace, answers: AnswerSet) -> list[int]:
    """Correctness bit per step; failed and skipped steps score 0."""
    return [
        op_correctness(step.table_after, answers) if step.status == OK else 0
        for step in trace.steps
    ]


def accuracy_reward(trace: ExecutionTrace, answers: AnswerSet, k: int | None = None) -> Fraction:
    """Cumulative correctness of the first ``k`` steps over pipeline length.

    The denominator is always the full pipeline length, so dropping the answer
    early costs every subsequent step. An empty pipeline scores 0.
    """
    n = len(trace.steps)
    if n == 0:
        log.warning("accuracy reward of an empty pipeline is defined as 0")
        return Fraction(0)
    if k is None:
        k = n
    bits = per_op_correctness(trace, answers)
    return Fraction(sum(bits[:k]), n)


def _table_at(trace: ExecutionTrace, k: int | None) -> Table:
    if k is None or k >= len(trace.steps):
        return trace.final
    if k <= 0:
        return trace.initial
    return trace.steps[k - 1].table_after


def compression_reward(
    trace: ExecutionTrace, k: int | None = None, orientation: str = AS_WRITTEN
) -> Fraction:
    """Half row ratio plus half column ratio of table k versus the initial table.

    As written, an identity pipeline scores 1 and adding columns can exceed 1;
    ``orientation="inverted"`` flips to ``max(0, 1 - value)`` for callers that
    want shrinkage rewarded directly.
    """
    initial = trace.initial
    if initial.n_rows == 0 or initial.n_cols == 0:
        raise DegenerateInitialTableError(
            f"initial table is {initial.n_rows}x{initial.n_cols}"
        )
    current = _table_at(trace, k)
    value = Fraction(current.n_rows, 2 * initial.n_rows) + Fraction(
        current.n_cols, 2 * initial.n_cols
    )
    if orientation == INVERTED:
        return max(Fraction(0), 1 - value)
    if orientation != AS_WRITTEN:
        raise ValueError(f"unknown compression orientation {orientation!r}")
    return value


def length_reward(token_len: int, l_max: int = 2560, l_cache: int = 512) -> Fraction:
    """Soft output-length penalty: free below the budget, -1 above the cap.

    Piecewise linear and continuous: 0 up to ``l_max - l_cache``, then a ramp
    down to -1 at ``l_max``, then -1.
    """
    if not 0 < l_cache < l_max:
        raise BadBudgetError(f"need 0 < l_cache < l_max, got l_cache={l_cache}, l_max={l_max}")
    threshold = l_max - l_cache
    if token_len <= threshold:
        return Fraction(0)
    if token_len <= l_max:
        return Fraction(threshold - token_len, l_cache)
    return Fraction(-1)


@dataclass(frozen=True)
class RewardConfig:
    lambda_compress: Fraction = Fraction(1, 2)
    lambda_length: Fraction = Fraction(1, 2)
    l_max: int = 2560
    l_cache: int = 512
    compression_orientation: str = AS_WRITTEN
    matching: str = EXACT

    @classmethod
    def from_json(cls, doc: dict) -> "RewardConfig":
        kwargs = {}
        if "lambda_compress" in doc:
            kwargs["lambda_compress"] = as_fraction(doc["lambda_compress"])
        if "lambda_length" in doc:
            kwargs["lambda_length"] = as_fraction(doc["lambda_length"])
        for key in ("l_max", "l_cache"):
            if key in doc:
                kwargs[key] = int(doc[key])
        if "compression_orientation" in doc:
            kwargs["compression_orientation"] = doc["compression_orientation"]
        if "matching" in doc:
            kwargs["matching"] = doc["matching"]
        return cls(**kwargs)


@dataclass(frozen=True)
class RewardBreakdown:
    per_op_correct: tuple[int, ...]
    r_acc: Fraction
    r_compress: Fraction
    r_length: Fraction
    total: Fraction
    n: int
    token_len: int

    def to_json(self) -> dict:
        return {
            "per_op_correct": list(self.per_op_correct),
            "r_acc": float(self.r_acc),
            "r_compress": float(self.r_compress),
            "r_length": float(self.r_length),
            "total": float(self.total),
            "n": self.n,
            "token_len": self.token_len,
            "exact": {
                "r_acc": str(self.r_acc),
                "r_compress": str(self.r_compress),
                "r_length": str(self.r_length),
                "total": str(self.total),
            },
        }


def total_reward(
    trace: ExecutionTrace,
    answers: AnswerSet,
    token_len: int,
    config: RewardConfig | None = None,
) -> RewardBreakdown:
    """Weighted sum of accuracy, compression, and length rewards."""
    cfg = config or RewardConfig()
    bits = per_op_correctness(trace, answers)
    n = len(trace.steps)
    r_acc = Fraction(sum(bits), n) if n else accuracy_reward(trace, answers)
    r_compress = compression_reward(trace, orientation=cfg.compression_orientation)
    r_length = length_reward(token_len, cfg.l_max, cfg.l_cache)
    total = r_acc + cfg.lambda_compress * r_compress + cfg.lambda_length * r_length
    return RewardBreakdown(
        per_op_correct=tuple(bits),
        r_acc=r_acc,
        r_compress=r_compress,
        r_length=r_length,
        total=total,
        n=n,
        token_len=token_len,
    )


def approx_token_count(text: str) -> int:
    """Default tokenizer stand-in: one token per four UTF-8 bytes, rounded up."""
    return math.ceil(len(text.encode("utf-8")) / 4)


NOT_CELL_FOCUSED = "not_cell_focused"
TOO_LONG = "length"


@dataclass
class FilterStats:
    total: int = 0
    kept: int = 0
    dropped: dict = field(default_factory=lambda: {NOT_CELL_FOCUSED: 0, TOO_LONG: 0})
    reasons: list = field(default_factory=list)  # (instance id, reason)

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "kept": self.kept,
            "dropped": dict(self.dropped),
            "reasons": [{"id": i, "reason": r} for i, r in self.reasons],
        }


def filter_dataset(
    instances: Iterable,
    token_counter: Callable[[str], int] | None = None,
    max_tokens: int = 2800,
):
    """Keep instances that are cell-focused and fit the training token budget.

    Each instance must expose ``id``, ``question``, ``table``, and ``answers``.
    Returns ``(kept, stats)`` where stats tags every drop with its reason;
    cell-focus is checked before length.
    """
    count = token_counter or approx_token_count
    kept = []
    stats = FilterStats()
    for instance in instances:
        stats.total += 1
        answers = instance.answers
        if answers is None or not is_cell_focused(instance.table, answers):
            stats.dropped[NOT_CELL_FOCUSED] += 1
            stats.reasons.append((instance.id, NOT_CELL_FOCUSED))
            continue
        serialized = instance.question + "\n" + serialize_markdown(instance.table)
        if count(serialized) >= max_tokens:
            stats.dropped[TOO_LONG] += 1
            stats.reasons.append((instance.id, TOO_LONG))
            continue
        stats.kept += 1
        kept.append(instance)
    return kept, stats
