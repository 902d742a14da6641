import ast
import os
import re
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableprep.engine import OK, execute
from tableprep.errors import ColumnExistsError, ColumnNotFoundError
from tableprep.merge import TrieNode, merge_pipelines
from tableprep.ops import (
    AddColumnOp,
    CleanColumnOp,
    FilterOp,
    GroupByOp,
    Pipeline,
    SelectOp,
    SortByOp,
    canonical_key,
)

import oracles
from conftest import make_table
from oracles import ref_best_path, ref_merge_hoisting_every_add, ref_merge_pipelines, ref_merge_walking_each_prefix

F_X = FilterOp("A", "==", "x")
F_Y = FilterOp("A", "==", "y")
S_B = SortByOp("B", "desc")
G_C = GroupByOp("C")


def keys(specs):
    return [canonical_key(s) for s in specs]


def grow(sequences):
    """A trie grown by the merge's own insert, no node marked unselected."""
    root = TrieNode("", None)
    for sequence in sequences:
        node = root
        for spec in sequence:
            node = node.insert(spec, False)
    return root


def merged_keys(sequences):
    return keys(merge_pipelines([Pipeline(tuple(seq)) for seq in sequences]))


class TestBuildTrie:
    def test_identical_sequences_share_branch(self):
        trie = grow([[F_X, S_B], [F_X, S_B]])
        assert len(trie.children) == 1
        node = next(iter(trie.children.values()))
        assert node.weight == 2
        child = next(iter(node.children.values()))
        assert child.weight == 2

    def test_shared_prefix_divergent_children(self):
        trie = grow([[F_X, S_B], [F_X, G_C]])
        node = next(iter(trie.children.values()))
        assert node.weight == 2
        assert sorted(c.weight for c in node.children.values()) == [1, 1]

    def test_empty_sequences_contribute_nothing(self):
        trie = grow([[], []])
        assert trie.children == {}
        assert merged_keys([[], []]) == []

    def test_weight_sum_equals_total_ops(self, rng):
        vocabulary = [F_X, F_Y, S_B, G_C]
        for _ in range(100):
            sequences = [
                [rng.choice(vocabulary) for _ in range(rng.randint(0, 5))]
                for _ in range(rng.randint(1, 6))
            ]
            nodes = list(grow(sequences).children.values())
            total = 0
            while nodes:
                node = nodes.pop()
                total += node.weight
                nodes.extend(node.children.values())
            assert total == sum(len(s) for s in sequences)


class TestBestPath:
    # no select or add_column here: the merge is the best trie path alone
    def test_majority_branch_wins(self):
        # two candidates share f(x)->s(B); one dissents with f(y)
        assert merged_keys([[F_X, S_B], [F_X, S_B], [F_Y]]) == keys([F_X, S_B])

    def test_longer_path_beats_equal_weight(self):
        # f1 alone scores 2; f1->g1 scores 2+1=3
        assert merged_keys([[F_X], [F_X, G_C]]) == keys([F_X, G_C])

    def test_tie_prefers_longer(self):
        # [f_x] x2 vs [f_y, g, s]: sums 2 vs 3; make a real tie:
        # [f_x] x3 (sum 3) vs [f_y, g_c, s_b] (sum 1+1+1=3) -> longer wins
        assert merged_keys([[F_X], [F_X], [F_X], [F_Y, G_C, S_B]]) == keys([F_Y, G_C, S_B])

    def test_remaining_tie_lexicographic(self):
        # two single-op leaves, weight 1 each, same length
        assert merged_keys([[F_Y], [F_X]]) == [min(canonical_key(F_X), canonical_key(F_Y))]

    def test_root_only(self):
        assert merged_keys([[]]) == []


class TestMergePipelines:
    def test_no_candidates_give_the_identity_pipeline(self):
        assert merge_pipelines([]) == Pipeline()

    def test_single_candidate_passthrough(self):
        candidate = Pipeline((SelectOp(("a",)), F_X))
        merged = merge_pipelines([candidate])
        assert keys(merged) == keys([SelectOp(("a",)), F_X])

    def test_select_union(self):
        merged = merge_pipelines(
            [
                Pipeline((SelectOp(("a", "b")), F_X)),
                Pipeline((SelectOp(("b", "c")),)),
            ]
        )
        assert isinstance(merged[0], SelectOp)
        assert merged[0].columns == ("a", "b", "c")

    def test_no_select_no_select_segment(self):
        merged = merge_pipelines([Pipeline((F_X,)), Pipeline((F_X,))])
        assert all(not isinstance(op, SelectOp) for op in merged)

    def test_add_columns_retained_in_candidate_order(self):
        a1 = AddColumnOp("g", "infer one")
        a2 = AddColumnOp("h", "infer two")
        merged = merge_pipelines([Pipeline((a2, F_X)), Pipeline((a1,))])
        adds = [op for op in merged if isinstance(op, AddColumnOp)]
        assert adds == [a2, a1]

    def test_add_columns_deduplicated_on_name(self):
        a1 = AddColumnOp("g", "infer", explanation="first")
        a2 = AddColumnOp("g", "infer", explanation="second")
        a3 = AddColumnOp("g", "infer differently")
        a4 = AddColumnOp("h", "infer")
        merged = merge_pipelines([Pipeline((a1,)), Pipeline((a2, a3, a4))])
        adds = [op for op in merged if isinstance(op, AddColumnOp)]
        assert adds == [a1, a4]
        assert [op.explanation for op in adds] == ["first", None]  # a1 == a2: specs compare without it

    def test_segment_order(self):
        merged = merge_pipelines(
            [Pipeline((F_X, SelectOp(("a",)), AddColumnOp("g", "x")))]
        )
        assert merged == (AddColumnOp("g", "x"), SelectOp(("a", "g", "A")), F_X)

    def test_explanations_do_not_split_votes(self):
        f1 = FilterOp("A", "==", "x", explanation="because")
        f2 = FilterOp("A", "==", "x", explanation="different words")
        merged = merge_pipelines([Pipeline((f1,)), Pipeline((f2,)), Pipeline((F_Y,))])
        assert keys(merged) == keys([F_X])

    def test_an_int_and_a_decimal_threshold_share_a_vote(self):
        clean = Pipeline((CleanColumnOp("a", "tidy"),))
        decimals = merge_pipelines([Pipeline((FilterOp("x", "==", Decimal(5)),))] * 2 + [clean])
        mixed = merge_pipelines(
            [Pipeline((FilterOp("x", "==", 5),)), Pipeline((FilterOp("x", "==", Decimal(5)),)), clean]
        )
        assert keys(mixed) == keys(decimals) == keys([FilterOp("x", "==", "5")])

    def test_a_none_and_an_empty_text_threshold_vote_apart(self):
        none, empty = FilterOp("x", "!=", None), FilterOp("x", "!=", "")
        table = make_table(["x"], [[None], [""], ["a"]])
        # they keep different rows, so their votes must not pool
        assert execute(Pipeline((none,)), table).final.rows == (("a",),)
        assert execute(Pipeline((empty,)), table).final.rows == ((None,), ("a",))
        merged = merge_pipelines([Pipeline((none,)), Pipeline((empty,)), Pipeline((empty,))])
        assert merged == (empty,)
        assert canonical_key(none) != canonical_key(empty)


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
            got = merged_keys(sequences)
            expected = ref_best_path([tuple(keys(s)) for s in sequences])
            assert got == list(expected)

    def test_merged_pipeline_hoists_the_first_add_column_of_each_name(self, rng):
        vocabulary = _vocabulary()
        for trial in range(100):
            candidates = []
            hoisted, voted = {}, set()
            for i in range(rng.randint(1, 5)):
                ops = [rng.choice(vocabulary) for _ in range(rng.randint(0, 3))]
                if rng.random() < 0.5:
                    add = AddColumnOp(f"col{rng.randint(0, 2)}", f"desc{rng.randint(0, 2)}")
                    at = rng.randint(0, len(ops))
                    ops.insert(at, add)
                    # one after a group_by joins the vote instead
                    if any(isinstance(op, GroupByOp) for op in ops[:at]):
                        voted.add(add)
                    else:
                        hoisted.setdefault(add.new_column, add)
                candidates.append(Pipeline(tuple(ops)))
            merged = merge_pipelines(candidates)
            adds = [op for op in merged if isinstance(op, AddColumnOp)]
            assert adds[: len(hoisted)] == list(hoisted.values())
            assert set(adds[len(hoisted):]) <= voted

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
            selects = [op for op in merged if isinstance(op, SelectOp)]
            if expected_union:
                assert len(selects) == 1
                assert set(selects[0].columns) == expected_union
            else:
                assert selects == []


def _readme_operator(text):
    """One operator of the README's merge notation, such as ``filter Y==1``."""
    kind, _, rest = text.strip().partition(" ")
    if kind == "select":
        return SelectOp(tuple(column.strip() for column in rest.strip("[]").split(",")))
    if kind == "filter":
        return FilterOp(*re.fullmatch(r"(\w+)(==|!=|>|<)(\S+)", rest).groups())
    if kind == "add_column":
        name, description = re.fullmatch(r'(\w+)(?: "(.*)")?', rest).groups()
        return AddColumnOp(name, description or "infer")
    if kind == "sort_by":
        return SortByOp(rest, "asc")
    assert kind == "group_by", text
    return GroupByOp(rest)


def _readme_pipeline(text):
    return Pipeline(tuple(_readme_operator(op) for op in re.findall(r"\s*select \[[^\]]*\]|[^,]+", text.strip()[1:-1])))


def _readme_merge_examples():
    """The README's consensus-merge examples as (line, candidates, merged) triples."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Consensus merge"):text.index("## Reward semantics")]
    block = section[section.index("```text\n") + len("```text\n"):]
    examples = []
    for line in block[:block.index("```")].splitlines():
        sources, merged = line.split("  ->  ")
        candidates = []
        for source in sources.split(" + "):
            pipeline, copies = re.fullmatch(r"(\[.*\])(?: ×(\d))?", source).groups()
            candidates += [_readme_pipeline(pipeline)] * int(copies or 1)
        examples.append((line, candidates, _readme_pipeline(merged)))
    return examples


def test_readme_merge_examples_match_the_merge():
    examples = _readme_merge_examples()
    assert len(examples) >= 5
    for line, candidates, merged in examples:
        assert merge_pipelines(candidates) == merged, line


class TestReadColumnClosure:
    def test_consensus_filter_keeps_the_column_it_reads(self):
        table = make_table(["X", "Y"], [[1, 1], [2, 0]])
        f = FilterOp("Y", "==", "1")
        merged = merge_pipelines([Pipeline((SelectOp(("X",)),)), Pipeline((f,)), Pipeline((f,))])
        assert merged == (SelectOp(("X", "Y")), f)
        trace = execute(merged, table)
        assert trace.truncated_at is None
        assert trace.final.rows == ((Decimal(1), Decimal(1)),)

    def test_operator_before_its_own_select_keeps_its_column(self):
        table = make_table(["B", "C"], [[1, "p"], [2, "q"]])
        merged = merge_pipelines([Pipeline((SortByOp("B", "desc"), SelectOp(("C",))))])
        assert merged == (SelectOp(("C", "B")), SortByOp("B", "desc"))
        trace = execute(merged, table)
        assert trace.truncated_at is None
        assert trace.final.rows == ((Decimal(2), "q"), (Decimal(1), "p"))

    def test_column_kept_only_for_a_candidate_that_reads_it_before_selecting(self):
        f = FilterOp("Y", "==", "1")
        hidden = [Pipeline((SelectOp(("X",)), f))] * 3 + [Pipeline((FilterOp("Z", "==", "1"), f))]
        assert merge_pipelines(hidden) == (SelectOp(("X",)), f)
        seen = hidden + [Pipeline((f, SelectOp(("X",))))]
        assert merge_pipelines(seen) == (SelectOp(("X", "Y")), f)

    def test_long_candidate_merges(self):
        ops = tuple(FilterOp("X", "!=", f"v{i}") for i in range(1500))
        merged = merge_pipelines([Pipeline(ops), Pipeline(ops[:10]), Pipeline((SelectOp(("Y",)),))])
        assert merged == (SelectOp(("Y", "X")), *ops)
        assert merge_pipelines([Pipeline(ops)]) == ops


class TestHoistedAddColumns:
    TABLE = make_table(["a", "b"], [["x", 1], ["y", 2]])

    def test_a_select_of_only_added_names_is_kept(self):
        candidate = Pipeline((AddColumnOp("n", "infer one"), SelectOp(("n",))))
        assert execute(candidate, self.TABLE, EXECUTOR).final.columns == ("n",)
        merged = merge_pipelines([candidate, candidate])
        assert merged == candidate
        trace = execute(merged, self.TABLE, EXECUTOR)
        assert trace.truncated_at is None and trace.final.columns == ("n",)

    def test_added_names_stay_in_the_union_select(self):
        add = AddColumnOp("n", "infer one")
        merged = merge_pipelines([Pipeline((add, SelectOp(("n", "a")))), Pipeline((SelectOp(("b", "n")),))])
        assert merged == (add, SelectOp(("n", "a", "b")))

    def test_a_name_added_after_the_select_is_kept(self):
        add = AddColumnOp("n", "infer one")
        merged = merge_pipelines([Pipeline((SelectOp(("a",)), add))])
        assert merged == (add, SelectOp(("a", "n")))
        assert execute(merged, self.TABLE, EXECUTOR).final.columns == ("a", "n")

    def test_a_select_of_an_absent_name_beside_an_added_one_runs(self):
        candidate = Pipeline((AddColumnOp("n", "infer one"), SelectOp(("n", "m"))))
        assert execute(candidate, self.TABLE, EXECUTOR).truncated_at is None
        merged = merge_pipelines([candidate, candidate])
        assert merged == candidate
        trace = execute(merged, self.TABLE, EXECUTOR)
        assert trace.truncated_at is None and trace.final.columns == ("n",)

    def test_adding_a_name_the_candidate_selected_away_fails_after_the_merge(self):
        # The one table-dependent case left: the candidate's select drops b
        # before its add_column creates b, but the merge hoists that
        # add_column ahead of the select, onto a table that still has b.
        candidate = Pipeline((SelectOp(("a",)), AddColumnOp("b", "infer one")))
        assert execute(candidate, self.TABLE, EXECUTOR).truncated_at is None
        merged = merge_pipelines([candidate, candidate])
        assert merged == (AddColumnOp("b", "infer one"), SelectOp(("a", "b")))
        trace = execute(merged, self.TABLE, EXECUTOR)
        assert trace.truncated_at == 0
        assert trace.steps[0].error == str(ColumnExistsError("b"))

    def test_one_add_column_per_name_is_hoisted(self):
        first, second = AddColumnOp("n", "infer one"), AddColumnOp("n", "infer two")
        candidates = [Pipeline((first, FilterOp("n", "==", "v")))] * 2 + [Pipeline((second, FilterOp("n", "==", "w")))]
        assert all(execute(c, self.TABLE, EXECUTOR).truncated_at is None for c in candidates)
        merged = merge_pipelines(candidates)
        assert merged == (first, FilterOp("n", "==", "v"))
        assert execute(merged, self.TABLE, EXECUTOR).truncated_at is None


class TestAddColumnAfterGroupBy:
    def test_an_add_column_after_a_group_by_stays_after_it(self):
        table = make_table(["A", "B"], [["x", 1], ["y", 2], ["x", 3]])
        candidate = Pipeline((GroupByOp("A"), AddColumnOp("N", "infer"), FilterOp("N", "==", "v")))
        merged = merge_pipelines([candidate, candidate])
        assert merged == candidate
        trace = execute(merged, table, EXECUTOR)
        assert trace.truncated_at is None and trace.final.n_rows == 2

    def test_only_add_columns_before_the_first_group_by_are_hoisted(self):
        early, late = AddColumnOp("E", "infer"), AddColumnOp("L", "infer")
        merged = merge_pipelines([Pipeline((F_X, early, G_C, late, S_B))])
        assert merged == (early, F_X, G_C, late, S_B)

    def test_a_column_read_before_a_path_add_column_creates_its_name_is_kept(self):
        table = make_table(["a", "N"], [["x", 1], ["y", 0]])
        reads_n = Pipeline((FilterOp("N", "==", "1"), GroupByOp("a"), AddColumnOp("N", "infer")))
        merged = merge_pipelines([reads_n, Pipeline((SelectOp(("a",)),))])
        assert merged == (SelectOp(("a", "N")), *reads_n)
        assert execute(merged, table, EXECUTOR).truncated_at is None
        after = Pipeline((GroupByOp("a"), AddColumnOp("N", "infer"), FilterOp("N", "==", "1")))
        assert merge_pipelines([after, Pipeline((SelectOp(("a",)),))]) == (SelectOp(("a",)), *after)


class _InferV:
    """An add_column whose description says "infer" fills "v", any other has
    no value; a clean_column keeps its column."""

    def infer_column(self, table, new_column, description):
        return ["v" if "infer" in description else None] * table.n_rows

    def rewrite_column(self, table, column, description):
        return [None] * table.n_rows


# Path operators read table columns and an absent column ("z"), and the
# add_column names are table columns too. A candidate may run a group_by right
# before an add_column, which the merge must then keep after that group_by.
TABLE_COLUMNS = ["a", "b", "c", "count"]
READ_COLUMNS = [*TABLE_COLUMNS, "z"]
EXECUTOR = _InferV()

read_column = st.sampled_from(READ_COLUMNS)
why = st.sampled_from([None, "why"])
ADDED_NAMES = ["a", "b", "z", "n"]  # "n" is never a table column
add_columns = st.builds(AddColumnOp, st.sampled_from(ADDED_NAMES), st.sampled_from(["infer one", "infer two"]),
                        why)
operators = st.one_of(
    st.builds(SelectOp, st.lists(st.sampled_from([*READ_COLUMNS, "n"]), min_size=1, max_size=3).map(tuple), why),
    st.builds(FilterOp, read_column, st.sampled_from(["==", ">"]), st.sampled_from(["1", "x", "v"]), why),
    st.builds(SortByOp, read_column, st.sampled_from(["asc", "desc"]), st.none(), why),
    st.builds(GroupByOp, read_column, why),
    st.builds(CleanColumnOp, read_column, st.just("tidy"), why),
    add_columns,
)


def _group_then_add(group_by, add, read):
    """A group_by, an add_column after it, and maybe a filter on the new column."""
    return (group_by, add, FilterOp(add.new_column, "==", "v")) if read else (group_by, add)


chunks = st.one_of(
    operators.map(lambda op: (op,)),
    st.builds(_group_then_add, st.builds(GroupByOp, read_column, why), add_columns, st.booleans()),
)
pipelines = st.lists(chunks, max_size=4).map(lambda parts: Pipeline(tuple(op for part in parts for op in part)))
candidate_sets = st.lists(pipelines, min_size=1, max_size=5)


@st.composite
def tables(draw):
    columns = draw(st.lists(st.sampled_from(TABLE_COLUMNS), min_size=1, unique=True))
    cells = st.sampled_from([0, 1, 2, "x", "y", None])
    rows = draw(st.lists(st.lists(cells, min_size=len(columns), max_size=len(columns)), max_size=4))
    return make_table(columns, rows)


def _path_positions(ops):
    """Indices of the operators that vote in the trie: all but the selects and
    the add_columns run before the first group_by. On a merged pipeline these
    are its path."""
    positions, grouped = [], False
    for i, spec in enumerate(ops):
        if isinstance(spec, SelectOp) or (isinstance(spec, AddColumnOp) and not grouped):
            continue
        grouped = grouped or isinstance(spec, GroupByOp)
        positions.append(i)
    return positions


@settings(max_examples=300, deadline=None)
@given(candidates=candidate_sets)
def test_merge_matches_reference_apart_from_appended_select_columns(candidates):
    got = merge_pipelines(candidates)
    ref = ref_merge_pipelines(candidates)
    at = next((i for i, spec in enumerate(ref) if isinstance(spec, SelectOp)), None)
    if at is None:
        assert got == ref
        return
    assert got[:at] == ref[:at] and got[at + 1:] == ref[at + 1:]
    columns, ref_columns = got[at].columns, ref[at].columns
    assert columns[: len(ref_columns)] == ref_columns
    appended = columns[len(ref_columns):]
    created, read = set(), set()
    for spec in (got[i] for i in _path_positions(got)):
        if isinstance(spec, AddColumnOp):
            created.add(spec.new_column)
        elif spec.column not in created:
            read.add(spec.column)
    assert len(set(appended)) == len(appended)
    assert set(appended) <= read - set(ref_columns)


@settings(max_examples=300, deadline=None)
@given(candidates=candidate_sets)
def test_merge_equals_the_merge_that_walks_each_candidate_prefix(candidates):
    assert merge_pipelines(candidates) == ref_merge_walking_each_prefix(candidates)


@settings(max_examples=300, deadline=None)
@given(candidates=candidate_sets)
def test_merge_is_unchanged_when_no_add_column_follows_a_group_by(candidates):
    def add_after_group_by(pipeline):
        kinds = [spec.kind for spec in pipeline]
        return "group_by" in kinds and "add_column" in kinds[kinds.index("group_by"):]

    if not any(add_after_group_by(pipeline) for pipeline in candidates):
        assert merge_pipelines(candidates) == ref_merge_hoisting_every_add(candidates)


@settings(max_examples=300, deadline=None)
@given(table=tables(), candidates=candidate_sets)
def test_no_merged_step_loses_a_column_a_candidate_could_read(table, candidates):
    merged = merge_pipelines(candidates)
    trace = execute(merged, table, EXECUTOR)
    at = trace.truncated_at
    if at is None:
        return
    step = trace.steps[at]
    column = getattr(step.spec, "column", None)
    path = _path_positions(merged)
    if column is None or step.error != str(ColumnNotFoundError(column)) or at not in path:
        return
    depth = path.index(at)
    path_keys = keys(merged[i] for i in path[: depth + 1])
    for candidate in candidates:
        positions = _path_positions(candidate)
        if keys(candidate[i] for i in positions[: depth + 1]) == path_keys:
            own = execute(candidate, table, EXECUTOR)
            assert own.steps[positions[depth]].status != OK


@settings(max_examples=300, deadline=None)
@given(table=tables(), before=pipelines, after=pipelines, copies=st.integers(min_value=1, max_value=3),
       grouped=st.builds(_group_then_add, st.builds(GroupByOp, read_column, why), add_columns, st.just(True)))
def test_copies_of_a_pipeline_that_runs_merge_to_no_missing_column(table, before, grouped, after, copies):
    pipeline = Pipeline(before + grouped + after)
    if execute(pipeline, table, EXECUTOR).truncated_at is None:
        trace = execute(merge_pipelines([pipeline] * copies), table, EXECUTOR)
        assert not any(step.error and step.error.startswith("column not found") for step in trace.steps)


@st.composite
def tables_and_candidates_that_run(draw):
    """A table and candidates that each run on it with no failed step. They
    add only names the table lacks, select and read only the table's columns
    and added names, and run no group_by."""
    table = draw(tables())
    added = ["n", "m"]
    column = st.sampled_from([*table.columns, *added])
    operator = st.one_of(
        st.builds(AddColumnOp, st.sampled_from(added), st.sampled_from(["infer one", "infer two"])),
        st.builds(SelectOp, st.lists(column, min_size=1, max_size=3).map(tuple)),
        st.builds(FilterOp, column, st.sampled_from(["==", "!="]), st.sampled_from(["v", "x", "1"])),
        st.builds(SortByOp, column, st.sampled_from(["asc", "desc"])),
    )
    drawn = draw(st.lists(st.lists(operator, max_size=5).map(lambda ops: Pipeline(tuple(ops))),
                          min_size=1, max_size=4))
    return table, [c for c in drawn if execute(c, table, EXECUTOR).truncated_at is None]


@settings(max_examples=300, deadline=None)
@given(tables_and_candidates_that_run())
def test_candidates_that_select_added_names_and_run_merge_to_a_pipeline_that_runs(table_and_candidates):
    table, candidates = table_and_candidates
    if not candidates:
        return
    merged = merge_pipelines(candidates)
    trace = execute(merged, table, EXECUTOR)
    assert trace.truncated_at is None, trace.steps[trace.truncated_at]


def test_the_merge_references_import_nothing_from_the_merge():
    """oracles.py takes nothing from tableprep.merge, so no merge reference
    checks merge_pipelines with the code it checks."""
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(f"{node.module}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name == "tableprep.merge" or name.startswith("tableprep.merge.") for name in names):
            found.append(node.lineno)
    assert found == []
