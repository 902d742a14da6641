"""Self-supervised pipeline rewards: correctness, compression, length, total.

All reward values are exact rationals (:class:`fractions.Fraction`), so the
weighted total reproduces hand computation without float drift. Correctness is
verifiable only on cell-focused instances, where every gold answer appears
verbatim as a table cell.

Scoring shares work between calls on one thread
(:class:`~tableprep.engine.ThreadScope`), scoped to one initial table and one
:class:`AnswerSet`. It keeps the correctness bit of each table it scanned,
keyed by the table object, and each :class:`RewardBreakdown`, keyed by the
trace object, ``token_len`` and the config object (``config=None`` is one
module-level default).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Iterable

from .engine import OK, ExecutionTrace, ThreadScope
from .errors import BadBudgetError, DegenerateInitialTableError
from .table import CellWidths, Table, markdown_size, render_lookup
# Unused here: perfbench/spans.py wraps reward.serialize_markdown
# by name when it traces a run, so the name stays until that patch is dropped.
from .table import serialize_markdown  # noqa: F401

_ZERO = Fraction(0)

EXACT = "exact"
NORMALIZED = "normalized"

AS_WRITTEN = "as_written"
INVERTED = "inverted"


def _normalize(text: str) -> str:
    return text.strip().casefold()


@dataclass(frozen=True)
class AnswerSet:
    """Gold answers plus the string-matching policy used against cells.

    ``lookup`` is :func:`~tableprep.table.render_lookup` of the answers, or of
    the normalized answers under ``normalized`` matching. It is built on first
    use, so a set that is never checked against a table (as in serving) never
    builds it, and every later containment check reads the same dict. It is
    not a field: equality, hashing, ``repr`` and :func:`dataclasses.replace`
    see only ``answers`` and ``matching``.
    """

    answers: tuple[str, ...]
    matching: str = EXACT

    def __post_init__(self):
        if not self.answers:
            raise ValueError("answer set must be non-empty")
        if self.matching not in (EXACT, NORMALIZED):
            raise ValueError(f"unknown matching policy {self.matching!r}")

    @functools.cached_property
    def lookup(self) -> dict:
        texts = map(_normalize, self.answers) if self.matching == NORMALIZED else self.answers
        return render_lookup(texts)

    @classmethod
    def of(cls, *answers: str, matching: str = EXACT) -> "AnswerSet":
        return cls(tuple(answers), matching)


def match_answer(answer: str, cell_text: str, matching: str) -> bool:
    """True iff ``answer`` equals ``cell_text`` under the matching policy."""
    if matching == NORMALIZED:
        return _normalize(answer) == _normalize(cell_text)
    return answer == cell_text


def contains_all_answers(table: Table, answers: AnswerSet) -> bool:
    """True iff every answer string matches at least one cell rendering.

    Cells are matched through ``answers.lookup``, which gives a cell's
    rendering when it is an answer without rendering any cell; under
    ``normalized`` matching a text cell is normalized instead.

    Exact matching of one answer stops at the first cell that matches it.
    Otherwise each cell is mapped to the answer text it matches, and the scan
    stops at the cell that completes the answers.
    """
    lookup = answers.lookup
    if answers.matching == EXACT and len(answers.answers) == 1:  # stop at the first cell that renders as the answer
        return not lookup.keys().isdisjoint(chain.from_iterable(table.rows))
    normalized = answers.matching == NORMALIZED
    missing = set(lookup.values())  # the answer texts: each maps to itself
    for cell in chain.from_iterable(table.rows):
        text = _normalize(cell) if normalized and isinstance(cell, str) else lookup.get(cell)
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
    exact = answers if answers.matching == EXACT else AnswerSet(answers.answers, EXACT)
    return contains_all_answers(table, exact)


# per (initial table, answer set): (scanned, breakdowns); scanned maps
# id(table) to (table, its bit) and breakdowns maps (id(trace), token_len,
# id(config)) to (trace, config, breakdown)
_SCOPE = ThreadScope(lambda: ({}, {}))


def per_op_correctness(trace: ExecutionTrace, answers: AnswerSet) -> list[int]:
    """Correctness bit per step: 1 iff an OK step's table keeps every answer.

    Failed and skipped steps score 0. Each OK step's table is scanned the
    first time this thread sees it in the current scope (one initial table and
    one ``answers``); a later step or trace with the same table object reads
    the stored bit.
    """
    scanned = _SCOPE.memo(trace.initial, answers)[0]
    bits = []
    for step in trace.steps:
        if step.status != OK:
            bits.append(0)
            continue
        table = step.table_after
        hit = scanned.get(id(table))
        if hit is None:
            hit = scanned[id(table)] = (table, op_correctness(table, answers))
        bits.append(hit[1])
    return bits


def accuracy_reward(trace: ExecutionTrace, answers: AnswerSet, k: int | None = None) -> Fraction:
    """Cumulative correctness of the first ``k`` steps over pipeline length.

    The denominator is always the full pipeline length, so dropping the answer
    early costs every subsequent step. An empty pipeline scores 0.
    """
    n = len(trace.steps)
    if n == 0:
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


_DEFAULT_CONFIG = RewardConfig()


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
    denominators. A trace this thread already scored with the same
    ``answers``, ``token_len`` and config object returns that breakdown (see
    the module docstring).
    """
    cfg = _DEFAULT_CONFIG if config is None else config
    scored = _SCOPE.memo(trace.initial, answers)[1]
    key = (id(trace), token_len, id(cfg))
    hit = scored.get(key)
    if hit is not None:
        return hit[2]
    bits = per_op_correctness(trace, answers)
    n = len(trace.steps)
    r_acc = Fraction(sum(bits), n) if n else _ZERO
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
    breakdown = RewardBreakdown(
        per_op_correct=tuple(bits),
        r_acc=r_acc,
        r_compress=r_compress,
        r_length=r_length,
        total=total,
        n=n,
        token_len=token_len,
    )
    scored[key] = (trace, cfg, breakdown)
    return breakdown


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
