import random

import pytest

from tableprep.errors import EmptyCandidatesError
from tableprep.merge import build_trie, best_path, merge_pipelines
from tableprep.ops import (
    AddColumnOp,
    FilterOp,
    GroupByOp,
    Pipeline,
    SelectOp,
    SortByOp,
    canonical_key,
)

from oracles import ref_best_path

F_X = FilterOp("A", "==", "x")
F_Y = FilterOp("A", "==", "y")
S_B = SortByOp("B", "desc")
G_C = GroupByOp("C")


def keys(specs):
    return [canonical_key(s) for s in specs]


class TestBuildTrie:
    def test_identical_sequences_share_branch(self):
        trie = build_trie([[F_X, S_B], [F_X, S_B]])
        assert len(trie.children) == 1
        node = next(iter(trie.children.values()))
        assert node.weight == 2
        child = next(iter(node.children.values()))
        assert child.weight == 2

    def test_shared_prefix_divergent_children(self):
        trie = build_trie([[F_X, S_B], [F_X, G_C]])
        node = next(iter(trie.children.values()))
        assert node.weight == 2
        assert sorted(c.weight for c in node.children.values()) == [1, 1]

    def test_empty_sequences_contribute_nothing(self):
        trie = build_trie([[], []])
        assert trie.children == {}
        assert best_path(trie) == []

    def test_weight_sum_equals_total_ops(self, rng):
        vocabulary = [F_X, F_Y, S_B, G_C]
        for _ in range(100):
            sequences = [
                [rng.choice(vocabulary) for _ in range(rng.randint(0, 5))]
                for _ in range(rng.randint(1, 6))
            ]
            nodes = list(build_trie(sequences).children.values())
            total = 0
            while nodes:
                node = nodes.pop()
                total += node.weight
                nodes.extend(node.children.values())
            assert total == sum(len(s) for s in sequences)


class TestBestPath:
    def test_majority_branch_wins(self):
        # two candidates share f(x)->s(B); one dissents with f(y)
        trie = build_trie([[F_X, S_B], [F_X, S_B], [F_Y]])
        assert keys(best_path(trie)) == keys([F_X, S_B])

    def test_longer_path_beats_equal_weight(self):
        # f1 alone scores 2; f1->g1 scores 2+1=3
        trie = build_trie([[F_X], [F_X, G_C]])
        assert keys(best_path(trie)) == keys([F_X, G_C])

    def test_tie_prefers_longer(self):
        # [f_x] x2 vs [f_y, g, s]: sums 2 vs 3; make a real tie:
        # [f_x] x3 (sum 3) vs [f_y, g_c, s_b] (sum 1+1+1=3) -> longer wins
        trie = build_trie([[F_X], [F_X], [F_X], [F_Y, G_C, S_B]])
        assert keys(best_path(trie)) == keys([F_Y, G_C, S_B])

    def test_remaining_tie_lexicographic(self):
        # two single-op leaves, weight 1 each, same length
        trie = build_trie([[F_Y], [F_X]])
        assert keys(best_path(trie)) == [min(canonical_key(F_X), canonical_key(F_Y))]

    def test_root_only(self):
        assert best_path(build_trie([])) == []


class TestMergePipelines:
    def test_empty_candidates_error(self):
        with pytest.raises(EmptyCandidatesError):
            merge_pipelines([])

    def test_single_candidate_passthrough(self):
        candidate = Pipeline((SelectOp(("a",)), F_X))
        merged = merge_pipelines([candidate])
        assert keys(merged.ops) == keys([SelectOp(("a",)), F_X])

    def test_select_union(self):
        merged = merge_pipelines(
            [
                Pipeline((SelectOp(("a", "b")), F_X)),
                Pipeline((SelectOp(("b", "c")),)),
            ]
        )
        assert isinstance(merged.ops[0], SelectOp)
        assert merged.ops[0].columns == ("a", "b", "c")

    def test_no_select_no_select_segment(self):
        merged = merge_pipelines([Pipeline((F_X,)), Pipeline((F_X,))])
        assert all(not isinstance(op, SelectOp) for op in merged.ops)

    def test_add_columns_retained_in_candidate_order(self):
        a1 = AddColumnOp("g", "infer one")
        a2 = AddColumnOp("h", "infer two")
        merged = merge_pipelines([Pipeline((a2, F_X)), Pipeline((a1,))])
        adds = [op for op in merged.ops if isinstance(op, AddColumnOp)]
        assert adds == [a2, a1]

    def test_add_columns_deduplicated_on_name_description(self):
        a1 = AddColumnOp("g", "infer", explanation="first")
        a2 = AddColumnOp("g", "infer", explanation="second")
        a3 = AddColumnOp("g", "infer differently")
        merged = merge_pipelines([Pipeline((a1,)), Pipeline((a2, a3))])
        adds = [op for op in merged.ops if isinstance(op, AddColumnOp)]
        assert len(adds) == 2
        assert adds[0].description == "infer"
        assert adds[1].description == "infer differently"

    def test_segment_order(self):
        merged = merge_pipelines(
            [Pipeline((F_X, SelectOp(("a",)), AddColumnOp("g", "x")))]
        )
        kinds = [op.kind for op in merged.ops]
        assert kinds == ["select", "add_column", "filter"]

    def test_explanations_do_not_split_votes(self):
        f1 = FilterOp("A", "==", "x", explanation="because")
        f2 = FilterOp("A", "==", "x", explanation="different words")
        merged = merge_pipelines([Pipeline((f1,)), Pipeline((f2,)), Pipeline((F_Y,))])
        assert keys(merged.ops) == keys([F_X])


def _vocabulary():
    return [
        FilterOp("c", "==", "0"),
        FilterOp("c", "==", "1"),
        FilterOp("c", ">", "2"),
        SortByOp("c", "asc"),
        SortByOp("c", "desc"),
        SortByOp("d", "asc", k=3),
        GroupByOp("c"),
        GroupByOp("d"),
    ]


def random_candidates(rng, vocabulary):
    return [
        [rng.choice(vocabulary) for _ in range(rng.randint(0, 5))]
        for _ in range(rng.randint(1, 6))
    ]


class TestOracleEquivalence:
    def test_best_path_matches_brute_force(self, rng):
        vocabulary = _vocabulary()
        assert len({canonical_key(s) for s in vocabulary}) == 8
        for _ in range(500):
            sequences = random_candidates(rng, vocabulary)
            got = keys(best_path(build_trie(sequences)))
            expected = ref_best_path([tuple(keys(s)) for s in sequences])
            assert got == list(expected)

    def test_merged_pipeline_contains_every_add_column(self, rng):
        vocabulary = _vocabulary()
        for trial in range(100):
            candidates = []
            expected_adds = set()
            for i in range(rng.randint(1, 5)):
                ops = [rng.choice(vocabulary) for _ in range(rng.randint(0, 3))]
                if rng.random() < 0.5:
                    add = AddColumnOp(f"col{rng.randint(0, 2)}", f"desc{rng.randint(0, 2)}")
                    ops.insert(rng.randint(0, len(ops)), add)
                    expected_adds.add((add.new_column, add.description))
                candidates.append(Pipeline(tuple(ops)))
            merged = merge_pipelines(candidates)
            got_adds = {
                (op.new_column, op.description)
                for op in merged.ops
                if isinstance(op, AddColumnOp)
            }
            assert got_adds == expected_adds

    def test_select_union_property(self, rng):
        for trial in range(100):
            candidates = []
            expected_union = set()
            for _ in range(rng.randint(1, 5)):
                ops = []
                if rng.random() < 0.7:
                    cols = tuple(
                        f"c{rng.randint(0, 5)}" for _ in range(rng.randint(1, 3))
                    )
                    ops.append(SelectOp(cols))
                    expected_union.update(cols)
                candidates.append(Pipeline(tuple(ops)))
            merged = merge_pipelines(candidates)
            selects = [op for op in merged.ops if isinstance(op, SelectOp)]
            if expected_union:
                assert len(selects) == 1
                assert set(selects[0].columns) == expected_union
            else:
                assert selects == []
