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

The ``select`` also keeps each column that a path operator reads while some
candidate ran that operator's node before its own first ``select`` (inserting
the candidate marks such nodes ``unselected``; after that ``select`` it sees
only columns in the union). A name that a path ``add_column`` has created by
the time the operator reads it is never added.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ops import AddColumnOp, GroupByOp, OperatorSpec, Pipeline, SelectOp, canonical_key


@dataclass
class TrieNode:
    key: str
    spec: OperatorSpec | None
    weight: int = 0
    unselected: bool = False  # some candidate runs this node before its first select
    children: dict = field(default_factory=dict)  # key -> TrieNode

    def insert(self, spec: OperatorSpec, unselected: bool) -> TrieNode:
        """The child keyed by ``spec``, made if new, with one more vote, and
        marked if ``unselected``."""
        key = canonical_key(spec)
        child = self.children.get(key)
        if child is None:
            child = self.children[key] = TrieNode(key, spec)
        child.weight += 1
        child.unselected |= unselected
        return child


def _best_nodes(root: TrieNode) -> list[TrieNode]:
    """The nodes of the root-to-leaf path with the largest weight sum, then the
    most nodes, then the smallest key list (the leaf ranked smallest by
    ``(-sum, -length, keys)``), root excluded; a root with no children gives
    no nodes."""
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
    return best


def merge_pipelines(candidates: list[Pipeline]) -> Pipeline:
    """Merge N candidate pipelines into one consensus pipeline; no candidates
    merge to the identity pipeline, ``Pipeline()``."""
    union: dict[str, None] = {}
    adds: dict[str, AddColumnOp] = {}
    root = TrieNode("", None)
    for pipeline in candidates:
        node = root
        selected = grouped = False
        for spec in pipeline:
            if isinstance(spec, SelectOp):
                selected = True
                union.update(dict.fromkeys(spec.columns))
            elif isinstance(spec, AddColumnOp) and not grouped:
                adds.setdefault(spec.new_column, spec)
            else:
                grouped = grouped or isinstance(spec, GroupByOp)
                node = node.insert(spec, not selected)

    path = _best_nodes(root)
    if union:
        union.update(dict.fromkeys(adds))
        created = set()
        # a candidate marks a node only after every node above it: marks lead a path
        for spec in (node.spec for node in path if node.unselected):
            if isinstance(spec, AddColumnOp):
                created.add(spec.new_column)
            elif spec.column not in created:
                union.setdefault(spec.column)
    select = (SelectOp(tuple(union)),) if union else ()
    return Pipeline((*adds.values(), *select, *(node.spec for node in path)))
