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
from itertools import chain
from typing import Iterable

from .engine import OK, ExecutionTrace
from .errors import BadBudgetError, DegenerateInitialTableError
from .table import CellWidths, Table, markdown_size, render_lookup
# Unused here: perfbench/spans.py wraps reward.serialize_markdown
# by name when it traces a run, so the name stays until that patch is dropped.
from .table import serialize_markdown  # noqa: F401

log = logging.getLogger(__name__)

_ZERO = Fraction(0)

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


# Exact containment intersects this many rows at a time, so a table whose
# answers sit in its first rows is not hashed to the end.
_CONTAINS_CHUNK_ROWS = 256


def contains_all_answers(table: Table, answers: AnswerSet) -> bool:
    """True iff every answer string matches at least one cell rendering.

    Cells are matched through :func:`~tableprep.table.render_lookup` of the
    answers, which gives a cell's rendering when it is an answer without
    rendering any cell.

    Exact matching of one answer stops at the first cell that matches it.
    Exact matching of several intersects that lookup with the cells of a fixed
    number of rows at a time and stops once every answer has matched; a table
    of at most that many rows takes one intersection. Normalized matching normalizes text
    cells, looks numbers and ``None`` up in the lookup of the normalized
    answers, and stops once every answer has matched.
    """
    if answers.matching != NORMALIZED:
        missing = set(answers.answers)
        lookup = render_lookup(missing)
        if len(missing) == 1:  # stop at the first cell that renders as the answer
            return not lookup.keys().isdisjoint(chain.from_iterable(table.rows))
        rows = table.rows
        for start in range(0, len(rows), _CONTAINS_CHUNK_ROWS):
            chunk = rows[start : start + _CONTAINS_CHUNK_ROWS]
            missing.difference_update([lookup[cell] for cell in lookup.keys() & chain.from_iterable(chunk)])
            if not missing:
                return True
        return False
    missing = {_normalize(a) for a in answers.answers}
    lookup = render_lookup(missing)
    for row in table.rows:
        for cell in row:
            text = _normalize(cell) if isinstance(cell, str) else lookup.get(cell)
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


def _carried_bit(spec, bit: int) -> int | None:
    """The bit an OK step keeps from its input table's ``bit`` with no scan,
    or None when its operator does not prove it.

    An order-only ``sort_by`` keeps the same cells. ``select``, ``filter`` and
    a top-k ``sort_by`` keep a subset of them, so a 0 stays 0; ``add_column``
    keeps a superset, so a 1 stays 1.
    """
    kind = spec.kind
    if kind == "sort_by" and spec.k is None:
        return bit
    if bit == 0 and kind in ("select", "filter", "sort_by"):
        return 0
    if bit == 1 and kind == "add_column":
        return 1
    return None


def per_op_correctness(trace: ExecutionTrace, answers: AnswerSet) -> list[int]:
    """Correctness bit per step; failed and skipped steps score 0.

    The first OK step's table is scanned. A later OK step carries its input's
    bit when its operator implies it (:func:`_carried_bit`) and is scanned
    otherwise.
    """
    bits = []
    bit = None  # the bit of the current step's input table, once computed
    for step in trace.steps:
        if step.status != OK:
            bits.append(0)
            continue
        carried = None if bit is None else _carried_bit(step.spec, bit)
        bit = op_correctness(step.table_after, answers) if carried is None else carried
        bits.append(bit)
    return bits


def accuracy_reward(trace: ExecutionTrace, answers: AnswerSet, k: int | None = None) -> Fraction:
    """Cumulative correctness of the first ``k`` steps over pipeline length.

    The denominator is always the full pipeline length, so dropping the answer
    early costs every subsequent step. An empty pipeline scores 0.
    """
    n = len(trace.steps)
    if n == 0:
        log.warning("accuracy reward of an empty pipeline is defined as 0")
        return _ZERO
    if k is None:
        k = n
    bits = per_op_correctness(trace, answers)
    return Fraction(sum(bits[:k]), n)


def compression_reward(trace: ExecutionTrace, orientation: str = AS_WRITTEN) -> Fraction:
    """Half row ratio plus half column ratio of the final versus the initial table.

    As written, an identity pipeline scores 1 and adding columns can exceed 1;
    ``orientation="inverted"`` flips to ``max(0, 1 - value)`` for callers that
    want shrinkage rewarded directly.
    """
    initial = trace.initial
    if initial.n_rows == 0 or initial.n_cols == 0:
        raise DegenerateInitialTableError(
            f"initial table is {initial.n_rows}x{initial.n_cols}"
        )
    current = trace.final
    value = Fraction(
        current.n_rows * initial.n_cols + current.n_cols * initial.n_rows,
        2 * initial.n_rows * initial.n_cols,
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
        return _ZERO
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

    def __post_init__(self):
        if self.compression_orientation not in (AS_WRITTEN, INVERTED):
            raise ValueError(f"compression_orientation must be {AS_WRITTEN!r} or {INVERTED!r}, "
                             f"got {self.compression_orientation!r}")
        if self.matching not in (EXACT, NORMALIZED):
            raise ValueError(f"matching must be {EXACT!r} or {NORMALIZED!r}, got {self.matching!r}")
        if not 0 < self.l_cache < self.l_max:
            raise ValueError(f"l_cache must satisfy 0 < l_cache < l_max, "
                             f"got l_cache={self.l_cache}, l_max={self.l_max}")


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
    """Weighted sum of accuracy, compression, and length rewards.

    The total is formed once, as one Fraction whose numerator and denominator
    are integer sums and products of the terms' own numerators and
    denominators.
    """
    cfg = config or RewardConfig()
    bits = per_op_correctness(trace, answers)
    n = len(trace.steps)
    r_acc = Fraction(sum(bits), n) if n else accuracy_reward(trace, answers)
    r_compress = compression_reward(trace, orientation=cfg.compression_orientation)
    r_length = length_reward(token_len, cfg.l_max, cfg.l_cache)
    # a/b + (c/d)(e/f) + (g/h)(i/j) over the common denominator b*d*f*h*j
    a, b = r_acc.numerator, r_acc.denominator
    c, d = cfg.lambda_compress.numerator, cfg.lambda_compress.denominator
    e, f = r_compress.numerator, r_compress.denominator
    g, h = cfg.lambda_length.numerator, cfg.lambda_length.denominator
    i, j = r_length.numerator, r_length.denominator
    df, hj = d * f, h * j
    total = Fraction(a * df * hj + c * e * b * hj + g * i * b * df, b * df * hj)
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


def filter_dataset(instances: Iterable, max_tokens: int = 2800):
    """Keep instances that are cell-focused and fit the training token budget.

    Each instance must expose ``id``, ``question``, ``table``, and ``answers``.
    Returns ``(kept, stats)`` where stats tags every drop with its reason;
    cell-focus is checked before length. The length is
    ``approx_token_count(question + "\n" + serialize_markdown(table))``,
    computed from the markdown's size (:func:`~tableprep.table.markdown_size`)
    without building it; the cell widths are measured once per call.
    """
    kept = []
    stats = FilterStats()
    widths = CellWidths()
    for instance in instances:
        stats.total += 1
        answers = instance.answers
        if answers is None or not is_cell_focused(instance.table, answers):
            stats.dropped[NOT_CELL_FOCUSED] += 1
            stats.reasons.append((instance.id, NOT_CELL_FOCUSED))
            continue
        size = len(instance.question.encode("utf-8")) + 1 + markdown_size(instance.table, widths)
        if math.ceil(size / 4) >= max_tokens:
            stats.dropped[TOO_LONG] += 1
            stats.reasons.append((instance.id, TOO_LONG))
            continue
        stats.kept += 1
        kept.append(instance)
    return kept, stats
