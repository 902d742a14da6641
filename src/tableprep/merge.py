"""Consensus merge of candidate pipelines via a weighted operation trie.

The merged pipeline is assembled in three segments:

1. one ``select`` over the union of all candidates' selected columns
   (omitted when no candidate selects),
2. every ``add_column`` from every candidate in candidate order, deduplicated
   only on byte-identical (name, description) pairs, and
3. the remaining operators of the trie path with the maximum total node
   weight, where a node's weight counts the candidates passing through it.

Weight ties prefer the longer path; remaining ties prefer the
lexicographically smaller canonical-key sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EmptyCandidatesError
from .ops import AddColumnOp, OperatorSpec, Pipeline, SelectOp, canonical_key


@dataclass
class TrieNode:
    key: str
    spec: OperatorSpec
    weight: int = 0
    children: dict = field(default_factory=dict)  # key -> TrieNode


@dataclass
class OperationTrie:
    children: dict = field(default_factory=dict)  # root level, key -> TrieNode


def build_trie(sequences: list[list[OperatorSpec]]) -> OperationTrie:
    """Insert each op sequence as a branch, bumping weights along its path.

    Node identity is the canonical operator key, so explanation text never
    splits branches. Empty sequences contribute nothing.
    """
    trie = OperationTrie()
    for sequence in sequences:
        level = trie.children
        for spec in sequence:
            key = canonical_key(spec)
            node = level.get(key)
            if node is None:
                node = TrieNode(key, spec)
                level[key] = node
            node.weight += 1
            level = node.children
    return trie


def best_path(trie: OperationTrie) -> list[OperatorSpec]:
    """Root-to-leaf path maximizing the weight sum, with documented tie rules."""
    best: tuple[int, int, tuple[str, ...]] | None = None
    best_specs: list[OperatorSpec] = []

    def visit(node: TrieNode, weight_sum: int, keys: tuple[str, ...], specs: list[OperatorSpec]):
        nonlocal best, best_specs
        weight_sum += node.weight
        keys += (node.key,)
        specs = specs + [node.spec]
        if not node.children:
            # Rank: higher sum, then longer path, then smaller key sequence.
            candidate = (weight_sum, len(keys), keys)
            if (
                best is None
                or candidate[0] > best[0]
                or (candidate[0] == best[0] and candidate[1] > best[1])
                or (candidate[0] == best[0] and candidate[1] == best[1] and candidate[2] < best[2])
            ):
                best = candidate
                best_specs = specs
            return
        for child in node.children.values():
            visit(child, weight_sum, keys, specs)

    for node in trie.children.values():
        visit(node, 0, (), [])
    return best_specs


def merge_pipelines(candidates: list[Pipeline]) -> Pipeline:
    """Merge N candidate pipelines into one consensus pipeline."""
    if not candidates:
        raise EmptyCandidatesError("no candidate pipelines to merge")

    select_columns: list[str] = []
    seen_columns: set[str] = set()
    any_select = False
    add_columns: list[AddColumnOp] = []
    seen_adds: set[tuple[str, str]] = set()
    stripped: list[list[OperatorSpec]] = []

    for pipeline in candidates:
        remaining: list[OperatorSpec] = []
        for spec in pipeline.ops:
            if isinstance(spec, SelectOp):
                any_select = True
                for column in spec.columns:
                    if column not in seen_columns:
                        seen_columns.add(column)
                        select_columns.append(column)
            elif isinstance(spec, AddColumnOp):
                dedup = (spec.new_column, spec.description)
                if dedup not in seen_adds:
                    seen_adds.add(dedup)
                    add_columns.append(spec)
            else:
                remaining.append(spec)
        stripped.append(remaining)

    merged: list[OperatorSpec] = []
    if any_select:
        merged.append(SelectOp(tuple(select_columns)))
    merged.extend(add_columns)
    merged.extend(best_path(build_trie(stripped)))
    return Pipeline(tuple(merged))
