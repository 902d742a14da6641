"""Consensus merge of candidate pipelines via a weighted operation trie.

The merged pipeline is assembled in three segments:

1. every ``add_column`` that a candidate runs before its first ``group_by``,
   in candidate order, keeping only the first per column name,
2. one ``select`` over the union of all candidates' selected columns, in
   first-appearance order, followed by every name that segment 1 creates
   (omitted when no candidate selects), and
3. the remaining operators of the trie path with the maximum total node
   weight, where a node's weight counts the candidates passing through it.
   An ``add_column`` after a candidate's first ``group_by`` is one of them,
   so it stays behind that ``group_by``, which would drop its column.

Weight ties prefer the longer path; remaining ties prefer the
lexicographically smaller canonical-key sequence.

The ``select`` also keeps each column a path operator reads if some candidate
through that operator's node could see it there: every column before the
candidate's own first ``select``, after it only the columns each preceding
``select`` names (so never one outside the union). A name that a path
``add_column`` has created by the time the operator reads it is never added.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EmptyCandidatesError
from .ops import AddColumnOp, GroupByOp, OperatorSpec, Pipeline, SelectOp, canonical_key


@dataclass
class TrieNode:
    key: str
    spec: OperatorSpec | None
    weight: int = 0
    children: dict = field(default_factory=dict)  # key -> TrieNode


def build_trie(sequences: list[list[OperatorSpec]]) -> TrieNode:
    """Insert each op sequence as a branch under a root (key ``""``), bumping
    weights along its path. Node identity is the canonical operator key, so
    explanation text never splits branches; empty sequences add nothing."""
    root = TrieNode("", None)
    for sequence in sequences:
        node = root
        for spec in sequence:
            key = canonical_key(spec)
            child = node.children.get(key)
            if child is None:
                child = node.children[key] = TrieNode(key, spec)
            child.weight += 1
            node = child
    return root


def best_path(root: TrieNode) -> list[OperatorSpec]:
    """Root-to-leaf path with the largest weight sum, then the most nodes, then
    the smallest key list: the leaf ranked smallest by (-sum, -length, keys)."""
    best_rank = None
    best: list[TrieNode] = []
    stack = [(root, 0, [])]
    while stack:
        node, weight_sum, path = stack.pop()
        for child in node.children.values():
            stack.append((child, weight_sum + child.weight, path + [child]))
        if path and not node.children:
            rank = (-weight_sum, -len(path), [n.key for n in path])
            if best_rank is None or rank < best_rank:
                best_rank, best = rank, path
    return [node.spec for node in best]


def merge_pipelines(candidates: list[Pipeline]) -> Pipeline:
    """Merge N candidate pipelines into one consensus pipeline."""
    if not candidates:
        raise EmptyCandidatesError("no candidate pipelines to merge")

    union: dict[str, None] = {}
    adds: dict[str, AddColumnOp] = {}
    stripped: list[list[OperatorSpec]] = []
    firsts: list[int | None] = []  # per candidate: path operators before its first select
    for pipeline in candidates:
        remaining: list[OperatorSpec] = []
        first = None
        grouped = False
        for spec in pipeline.ops:
            if isinstance(spec, SelectOp):
                if first is None:
                    first = len(remaining)
                union.update(dict.fromkeys(spec.columns))
            elif isinstance(spec, AddColumnOp) and not grouped:
                adds.setdefault(spec.new_column, spec)
            else:
                grouped = grouped or isinstance(spec, GroupByOp)
                remaining.append(spec)
        stripped.append(remaining)
        firsts.append(first)

    path = best_path(build_trie(stripped))
    if union:
        union.update(dict.fromkeys(adds))
        created = set()
        for spec in path[:_unselected_reach(path, stripped, firsts)]:
            if isinstance(spec, AddColumnOp):
                created.add(spec.new_column)
            elif spec.column not in created:
                union.setdefault(spec.column)
    select = (SelectOp(tuple(union)),) if union else ()
    return Pipeline((*adds.values(), *select, *path))


def _unselected_reach(path, stripped, firsts) -> int:
    """The longest path prefix that some candidate runs before its first select."""
    keys = [canonical_key(spec) for spec in path]
    reach = 0
    for ops, first in zip(stripped, firsts):
        n = 0
        for spec, key in zip(ops[:first], keys):
            if canonical_key(spec) != key:
                break
            n += 1
        reach = max(reach, n)
    return reach
