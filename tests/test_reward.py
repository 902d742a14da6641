import ast
import json
import logging
import threading
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tableprep import errors, gate, reward
from tableprep.engine import FAILED, OK, SKIPPED, execute
from tableprep.errors import DegenerateInitialTableError, ExecutorFailureError, TablePrepError
from tableprep.llm import extract_pipeline_json
from tableprep.ops import (
    AddColumnOp,
    CleanColumnOp,
    FilterOp,
    GroupByOp,
    Pipeline,
    SelectOp,
    SortByOp,
    parse_pipeline,
    pipeline_to_json,
)
from tableprep.reward import (
    AnswerSet,
    FilterStats,
    RewardConfig,
    approx_token_count,
    compression_reward,
    contains_all_answers,
    filter_dataset,
    is_cell_focused,
    length_reward,
    per_op_correctness,
    total_reward,
)
from tableprep.semantic import MockSemanticExecutor
from tableprep.table import Table, render_lookup, render_value, serialize_markdown

import oracles
from conftest import make_table
from oracles import (
    ref_contains_all_answers,
    ref_execute,
    ref_extract_pipeline_json,
    ref_per_op_correctness,
    ref_total_reward,
)


def pipe(*docs):
    return parse_pipeline(list(docs))


@pytest.fixture
def answer_table():
    return make_table(
        ["name", "val"],
        [["target", 1], ["other", 2], ["third", 3]],
    )


class TestContainsAllAnswers:
    def test_text_cell_match(self, answer_table):
        assert contains_all_answers(answer_table, AnswerSet.of("target"))

    def test_number_rendering_match(self):
        table = make_table(["x"], [[7]])
        assert contains_all_answers(table, AnswerSet.of("7"))
        assert not contains_all_answers(table, AnswerSet.of("7.0"))

    def test_all_answers_required(self, answer_table):
        assert contains_all_answers(answer_table, AnswerSet.of("target", "other"))
        assert not contains_all_answers(answer_table, AnswerSet.of("target", "missing"))

    def test_exact_vs_normalized(self):
        table = make_table(["x"], [["Paris "]])
        assert not contains_all_answers(table, AnswerSet.of("paris"))
        assert contains_all_answers(table, AnswerSet.of("paris", matching="normalized"))

    def test_monotone_under_supersets(self, answer_table):
        answers = AnswerSet.of("target")
        sub = make_table(["name"], [["target"]])
        assert contains_all_answers(sub, answers)
        assert contains_all_answers(answer_table, answers)


_WORDS = st.sampled_from(["paris", "Paris", " paris ", "PARIS\t", "", " ", "7", "7.0", "a b"])
# a text cell and a number sharing a spelling, "" text and missing cells
_SHARED = st.sampled_from(["7", Decimal(7), "0", Decimal(0), "", None])
_CELLS = st.one_of(
    st.none(),
    _WORDS,
    _WORDS,
    _SHARED,
    st.sampled_from([Decimal("7.00"), Decimal("-0"), Decimal("0.0"), Decimal("1E+1"),
                     Decimal("0.50"), Decimal("-7"), Decimal("5E-1")]),
    st.builds(lambda digits, exp: Decimal(digits).scaleb(exp),
              st.integers(-120, 120), st.integers(-3, 3)),
)
_ANSWERS = st.sampled_from(["", " 7 ", "7", "7.0", "+7", "07", ".5", "0.5", "-0", "0",
                            "1E+1", "10", "-7", "paris", "Paris ", "a b", "100"])


@st.composite
def _tables_and_answers(draw):
    n_cols = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[_CELLS] * n_cols), max_size=5))
    table = Table(tuple(f"c{i}" for i in range(n_cols)), tuple(rows))
    # answers spelled like a cell of the table (or a variant of it) make
    # positive cases common; the fixed spellings probe the near misses
    spelled = [render_value(cell) for row in rows for cell in row]
    variant = st.sampled_from(spelled or [""]).flatmap(
        lambda text: st.sampled_from([text, text.upper(), text.strip().lower(), f" {text}", f"{text}.0"]))
    answers = draw(st.lists(st.one_of(_ANSWERS, variant, variant), min_size=1, max_size=3))
    return table, answers


class TestContainsAllAnswersOracle:
    @settings(max_examples=300)
    @given(_tables_and_answers(), st.sampled_from(["exact", "normalized"]))
    @example((make_table(["x"], [["PARIS "]]), ["paris"]), "normalized")
    @example((make_table(["x"], [[" "], [None]]), ["", " 7 "]), "normalized")
    @example((make_table(["x"], [[Decimal("7.00")], [Decimal("-0")]]), ["7", "0"]), "exact")
    @example((make_table(["x"], [[Decimal("-0")], [Decimal("1E+1")]]), ["-0", "1E+1"]), "exact")
    @example((make_table(["x"], [[Decimal("1E+1")], [Decimal("0.50")]]), ["10", ".5"]), "exact")
    @example((make_table(["x", "y"], [["7", 7]]), ["7"]), "exact")
    @example((make_table(["x"], [[7], ["7.0"]]), ["7", "7.0", "+7"]), "exact")
    @example((make_table(["x"], [[""]]), [""]), "exact")
    @example((make_table(["x"], [[None]]), [""]), "exact")
    @example((make_table(["x"], [[None], ["7"]]), ["", "7", "x"]), "exact")
    @example((make_table(["x"], [["x"]]), ["", "x"]), "exact")
    def test_agrees_with_rendering_every_cell(self, table_and_answers, matching):
        table, answers = table_and_answers
        answer_set = AnswerSet(tuple(answers), matching)
        assert contains_all_answers(table, answer_set) == ref_contains_all_answers(table, answer_set)

    @pytest.mark.parametrize("cell, answer, expected", [
        ("123456789012345678901234567890", "123456789012345678901234567890", True),
        ("123456789012345678901234567890", "123456789012345678901234567900", False),
        ("1.00000000000000000000000000001", "1", False),
    ])
    def test_numbers_beyond_28_digits(self, cell, answer, expected):
        table = make_table(["id"], [[Decimal(cell)]])
        answer_set = AnswerSet.of(answer)
        assert contains_all_answers(table, answer_set) is ref_contains_all_answers(table, answer_set) is expected

    @staticmethod
    def _long_table(first=None, last=None):
        """A 769-row table; ``first`` and ``last`` replace its end rows."""
        rows = [[f"r{i}", i] for i in range(769)]
        rows[0] = first or rows[0]
        rows[-1] = last or rows[-1]
        return make_table(["name", "n"], rows)

    @pytest.mark.parametrize("matching", ["exact", "normalized"])
    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("answers, expected", [
        (["Target", "-5"], True),
        (["Target"], True),
        (["-5"], True),
        (["Target", "missing"], False),
    ])
    def test_answers_in_one_end_row_of_a_long_table(self, matching, where, answers, expected):
        table = self._long_table(**{where: ["Target", -5]})
        answer_set = AnswerSet(tuple(answers), matching)
        assert contains_all_answers(table, answer_set) is ref_contains_all_answers(table, answer_set) is expected

    @pytest.mark.parametrize("answers, expected", [
        (["Target", "-5"], True), (["Target", "-5", ""], True), (["-5.0"], False),
    ])
    def test_answers_split_between_the_first_and_last_row(self, answers, expected):
        table = self._long_table(first=["Target", 0], last=["", Decimal("-5.0")])
        answer_set = AnswerSet(tuple(answers))
        assert contains_all_answers(table, answer_set) is ref_contains_all_answers(table, answer_set) is expected

    @pytest.mark.parametrize("matching", ["exact", "normalized"])
    def test_matching_stops_at_the_cell_that_completes_the_answers(self, matching):
        # the row after the completing one holds an unhashable cell: reading it would raise
        rows = self._long_table(last=["Target", -5]).rows
        table = Table._trusted(("name", "n"), rows + ((["unhashable"], Decimal(1)),))
        assert contains_all_answers(table, AnswerSet(("Target", "-5"), matching))

    def test_exact_matching_of_one_answer_stops_at_its_first_cell(self):
        # the row after the answer holds an unhashable cell: reading it would raise
        table = Table._trusted(("name", "n"), (("Target", Decimal(1)), (["unhashable"], Decimal(2))))
        assert contains_all_answers(table, AnswerSet.of("Target"))


class TestAnswerSetLookup:
    @settings(max_examples=200)
    @given(st.lists(_ANSWERS | st.text(alphabet="aA 7.é\t", max_size=3), min_size=1, max_size=4),
           st.sampled_from(["exact", "normalized"]))
    def test_lookup_is_built_once_from_the_matched_answers(self, answers, matching):
        answer_set = AnswerSet(tuple(answers), matching)
        texts = [a.strip().casefold() for a in answers] if matching == "normalized" else answers
        assert answer_set.lookup == render_lookup(texts)
        # the lookup is derived: equality, hashing and repr see only the two fields
        same = AnswerSet(tuple(answers), matching)
        assert answer_set == same and hash(answer_set) == hash(same) == hash((same.answers, matching))
        assert repr(answer_set) == f"AnswerSet(answers={tuple(answers)!r}, matching={matching!r})"
        other = "exact" if matching == "normalized" else "normalized"
        assert replace(answer_set, matching=other).lookup == AnswerSet(tuple(answers), other).lookup
        assert replace(answer_set, answers=("x",)).lookup == render_lookup(["x"])

    def test_building_the_lookup_leaves_equality_hash_repr_and_replace_alone(self):
        built, fresh = AnswerSet.of("5", "x"), AnswerSet.of("5", "x")
        assert built.lookup is built.lookup  # built on first use, then kept
        assert "lookup" in vars(built) and "lookup" not in vars(fresh)
        assert built == fresh and hash(built) == hash(fresh) and repr(built) == repr(fresh)
        copy = replace(built)
        assert copy == built and "lookup" not in vars(copy)


class TestOpCorrectness:
    def test_kept_answer_scores_one(self, answer_table):
        trace = execute(pipe({"operation": "select", "columns": ["name"]}), answer_table)
        assert per_op_correctness(trace, AnswerSet.of("target")) == [1]

    def test_dropped_answer_scores_zero(self, answer_table):
        trace = execute(pipe({"operation": "filter", "column": "name", "cmp": "==", "value": "other"}), answer_table)
        assert trace.final == make_table(["name", "val"], [["other", 2]])
        assert per_op_correctness(trace, AnswerSet.of("target")) == [0]

    def test_skipped_steps_score_zero(self, answer_table):
        pipeline = pipe(
            {"operation": "filter", "column": "ghost", "cmp": "==", "value": 1},
            {"operation": "sort_by", "column": "val", "order": "asc"},
        )
        trace = execute(pipeline, answer_table)
        # both steps failed/skipped even though the carried table has the answer
        assert per_op_correctness(trace, AnswerSet.of("target")) == [0, 0]


class TestAccuracyReward:
    def test_all_preserving(self, answer_table):
        pipeline = pipe(
            {"operation": "select", "columns": ["name", "val"]},
            {"operation": "sort_by", "column": "val", "order": "asc"},
        )
        trace = execute(pipeline, answer_table)
        assert total_reward(trace, AnswerSet.of("target"), 0, RewardConfig()).r_acc == 1

    def test_half_correct_four_ops(self, answer_table):
        # ops 1-2 preserve the answer, op 3 drops it, op 4 works on the
        # answer-free table: 2 of 4
        pipeline = pipe(
            {"operation": "select", "columns": ["name", "val"]},
            {"operation": "sort_by", "column": "val", "order": "asc"},
            {"operation": "filter", "column": "name", "cmp": "==", "value": "other"},
            {"operation": "sort_by", "column": "val", "order": "desc"},
        )
        trace = execute(pipeline, answer_table)
        answers = AnswerSet.of("target")
        assert per_op_correctness(trace, answers) == [1, 1, 0, 0]
        assert total_reward(trace, answers, 0, RewardConfig()).r_acc == Fraction(1, 2)

    def test_single_dropping_op(self, answer_table):
        pipeline = pipe({"operation": "filter", "column": "name", "cmp": "==", "value": "other"})
        trace = execute(pipeline, answer_table)
        assert total_reward(trace, AnswerSet.of("target"), 0, RewardConfig()).r_acc == 0

    def test_empty_pipeline_zero_without_a_record(self, answer_table, caplog):
        trace = execute(pipe(), answer_table)
        with caplog.at_level(logging.DEBUG):
            assert total_reward(trace, AnswerSet.of("target"), 0, RewardConfig()).r_acc == 0
        assert caplog.records == []


@pytest.fixture
def wide_table():
    # 10 rows x 5 cols with the answer in the two lowest-val rows
    rows = [[f"r{i}", i, i, i, i] for i in range(10)]
    rows[0][0] = "target"
    return make_table(["name", "v1", "v2", "v3", "v4"], rows)


class TestCompressionReward:
    def test_shrink_example(self, wide_table):
        # 10x5 -> 2x2 gives 0.5*(2/10) + 0.5*(2/5) = 0.3
        pipeline = pipe(
            {"operation": "sort_by", "column": "v1", "order": "asc", "k": 2},
            {"operation": "select", "columns": ["name", "v1"]},
        )
        trace = execute(pipeline, wide_table)
        assert trace.final.n_rows == 2 and trace.final.n_cols == 2
        assert compression_reward(trace, RewardConfig()) == Fraction(3, 10)

    def test_identity_is_one(self, wide_table):
        trace = execute(pipe(), wide_table)
        assert compression_reward(trace, RewardConfig()) == 1

    def test_add_column_exceeds_one(self):
        from tableprep.semantic import MockSemanticExecutor

        table = make_table(["a", "b", "c", "d", "e"], [[1, 2, 3, 4, 5]])
        pipeline = pipe({"operation": "add_column", "new_column": "f", "description": "x"})
        trace = execute(pipeline, table, MockSemanticExecutor({"x": {"1": "v"}}))
        # 0.5*1 + 0.5*(6/5) = 1.1
        assert compression_reward(trace, RewardConfig()) == Fraction(11, 10)

    def test_inverted_orientation(self, wide_table):
        pipeline = pipe(
            {"operation": "sort_by", "column": "v1", "order": "asc", "k": 2},
            {"operation": "select", "columns": ["name", "v1"]},
        )
        trace = execute(pipeline, wide_table)
        inverted = RewardConfig(compression_orientation="inverted")
        assert compression_reward(trace, inverted) == Fraction(7, 10)
        # values above 1 clamp to zero when inverted
        identity = execute(pipe(), wide_table)
        assert compression_reward(identity, inverted) == 0

    def test_degenerate_initial(self):
        empty = make_table(["a"], [])
        with pytest.raises(DegenerateInitialTableError):
            compression_reward(execute(pipe(), empty), RewardConfig())


_BUDGET = RewardConfig(l_max=2560, l_cache=512)


class TestLengthReward:
    @pytest.mark.parametrize(
        "token_len,expected",
        [
            (0, Fraction(0)),
            (2048, Fraction(0)),
            (2304, Fraction(-1, 2)),
            (2560, Fraction(-1)),
            (2561, Fraction(-1)),
            (10000, Fraction(-1)),
        ],
    )
    def test_golden_values(self, token_len, expected):
        assert length_reward(token_len, _BUDGET) == expected

    def test_continuity_at_breakpoints(self):
        # ramp value at the free/ramp boundary equals the flat branch
        assert Fraction(2048 - 2048, 512) == length_reward(2048, _BUDGET)
        # ramp value at the cap equals the floor branch
        assert Fraction(2048 - 2560, 512) == length_reward(2561, _BUDGET) == Fraction(-1)

    def test_weakly_decreasing(self):
        values = [length_reward(n, _BUDGET) for n in range(0, 3000, 64)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            RewardConfig(l_max=512, l_cache=512)
        with pytest.raises(ValueError):
            RewardConfig(l_max=2560, l_cache=0)


class TestTotalReward:
    def test_weighted_sum_example(self, wide_table):
        # r_acc=1, r_compress=0.3, r_length=0 -> 1.15
        pipeline = pipe(
            {"operation": "sort_by", "column": "v1", "order": "asc", "k": 2},
            {"operation": "select", "columns": ["name", "v1"]},
        )
        trace = execute(pipeline, wide_table)
        breakdown = total_reward(trace, AnswerSet.of("target"), 100, RewardConfig())
        assert breakdown.r_acc == 1
        assert breakdown.r_compress == Fraction(3, 10)
        assert breakdown.r_length == 0
        assert breakdown.total == Fraction(23, 20)

    def test_identity_like_pipeline(self, wide_table):
        # a select of all columns preserves everything: 1 + 0.5*1 + 0 = 1.5
        pipeline = pipe({"operation": "select", "columns": list(wide_table.columns)})
        trace = execute(pipeline, wide_table)
        breakdown = total_reward(trace, AnswerSet.of("target"), 10, RewardConfig())
        assert breakdown.total == Fraction(3, 2)

    def test_all_failing_overlong(self, wide_table):
        # truncation keeps the initial table, so compression stays 1:
        # 0 + 0.5*1 + 0.5*(-1) = 0
        pipeline = pipe(
            {"operation": "filter", "column": "ghost", "cmp": "==", "value": 1},
            {"operation": "sort_by", "column": "ghost", "order": "asc"},
        )
        trace = execute(pipeline, wide_table)
        breakdown = total_reward(trace, AnswerSet.of("target"), 5000, RewardConfig())
        assert breakdown.per_op_correct == (0, 0)
        assert breakdown.total == 0

    def test_breakdown_invariant(self, wide_table):
        cfg = RewardConfig(lambda_compress=Fraction(1, 4), lambda_length=Fraction(3, 4))
        pipeline = pipe({"operation": "select", "columns": ["name"]})
        trace = execute(pipeline, wide_table)
        b = total_reward(trace, AnswerSet.of("target"), 2304, cfg)
        assert b.total == b.r_acc + cfg.lambda_compress * b.r_compress + cfg.lambda_length * b.r_length

    def test_linearity_in_components(self, wide_table):
        answers = AnswerSet.of("target")
        p1 = pipe({"operation": "select", "columns": list(wide_table.columns)})
        p2 = pipe({"operation": "select", "columns": ["name"]})
        t1 = execute(p1, wide_table)
        t2 = execute(p2, wide_table)
        b1 = total_reward(t1, answers, 0, RewardConfig())
        b2 = total_reward(t2, answers, 2304, RewardConfig())
        assert b2.total - b1.total == Fraction(1, 2) * (b2.r_compress - b1.r_compress) + Fraction(
            1, 2
        ) * (b2.r_length - b1.r_length)


class TestOneScanPerTrace:
    def test_each_ok_step_scanned_once(self, wide_table, monkeypatch):
        calls = []
        inner = reward.contains_all_answers

        def counting(table, answers):
            calls.append(table)
            return inner(table, answers)

        monkeypatch.setattr(reward, "contains_all_answers", counting)
        pipeline = pipe(
            {"operation": "select", "columns": ["name", "v1"]},
            {"operation": "sort_by", "column": "v1", "order": "asc", "k": 3},
            {"operation": "filter", "column": "ghost", "cmp": "==", "value": 1},
            {"operation": "sort_by", "column": "v1", "order": "desc"},
        )
        trace = execute(pipeline, wide_table)
        assert [step.status for step in trace.steps] == [OK, OK, FAILED, SKIPPED]
        answers = AnswerSet.of("target")
        breakdown = total_reward(trace, answers, 10, RewardConfig())
        assert [id(t) for t in calls] == [id(step.table_after) for step in trace.steps[:2]]
        assert breakdown.r_acc == Fraction(2, 4)

    def test_empty_pipeline_scores_zero(self, wide_table, caplog):
        trace = execute(pipe(), wide_table)
        with caplog.at_level(logging.DEBUG):
            assert total_reward(trace, AnswerSet.of("target"), 10, RewardConfig()).r_acc == 0
        assert caplog.records == []


_PIPE_CELLS = st.sampled_from([None, "x", "y", "", "7", Decimal(7), Decimal("7.0"), Decimal(2), "Y "])
_PIPE_COLUMNS = ("a", "b", "c")
_PIPE_NAMES = st.sampled_from([*_PIPE_COLUMNS, "ghost", "new"])
# "swap" turns one answer-like cell into another, so it can add an answer
# that the table lacked; "blank" rewrites them away
_PIPE_EXECUTOR = MockSemanticExecutor({
    "swap": {"x": "y", "7": "x", "y": "2"},
    "blank": {"x": "", "7": "", "Y ": ""},
})
_PIPE_OPS = st.one_of(
    st.builds(SelectOp, st.lists(_PIPE_NAMES, min_size=1, max_size=3).map(tuple)),
    st.builds(FilterOp, _PIPE_NAMES, st.sampled_from(["==", "!=", ">", "<"]),
              st.sampled_from(["x", "y", Decimal(2), Decimal(7)])),
    st.builds(SortByOp, _PIPE_NAMES, st.sampled_from(["asc", "desc"]), st.sampled_from([None, None, 1, 2])),
    st.builds(GroupByOp, _PIPE_NAMES),
    st.builds(AddColumnOp, _PIPE_NAMES, st.sampled_from(["swap it", "blank it", "nothing"])),
    st.builds(CleanColumnOp, _PIPE_NAMES, st.sampled_from(["swap it", "blank it"])),
)


@st.composite
def _traces_and_answers(draw):
    rows = draw(st.lists(st.tuples(*[_PIPE_CELLS] * len(_PIPE_COLUMNS)), min_size=1, max_size=5))
    table = Table(_PIPE_COLUMNS, tuple(rows))
    pipeline = Pipeline(tuple(draw(st.lists(_PIPE_OPS, max_size=6))))
    answers = draw(st.lists(st.sampled_from(["x", "y", "7", "", "2", "1"]), min_size=1, max_size=2))
    return execute(pipeline, table, _PIPE_EXECUTOR), answers


_FRACTIONS = st.builds(Fraction, st.integers(-7, 7), st.sampled_from([1, 2, 3, 10, 1024]))


class TestAgainstTheOracles:
    @settings(max_examples=300, deadline=None)
    @given(_traces_and_answers(), st.sampled_from(["exact", "normalized"]))
    def test_bits_equal_scanning_every_step(self, trace_and_answers, matching):
        trace, answers = trace_and_answers
        answer_set = AnswerSet(tuple(answers), matching)
        assert per_op_correctness(trace, answer_set) == ref_per_op_correctness(trace, answer_set)

    @settings(max_examples=300, deadline=None)
    @given(_traces_and_answers(), st.sampled_from(["exact", "normalized"]), _FRACTIONS, _FRACTIONS,
           st.integers(1, 64), st.integers(1, 64), st.integers(0, 200),
           st.sampled_from(["as_written", "inverted"]))
    def test_total_reward_equals_the_fraction_by_fraction_sum(
            self, trace_and_answers, matching, lambda_compress, lambda_length, l_cache, headroom,
            token_len, orientation):
        trace, answers = trace_and_answers
        answer_set = AnswerSet(tuple(answers), matching)
        config = RewardConfig(lambda_compress, lambda_length, l_cache + headroom, l_cache, orientation, matching)
        assert total_reward(trace, answer_set, token_len, config) == ref_total_reward(
            trace, answer_set, token_len, config)


class TestCellFocused:
    def test_cell_answer(self):
        table = make_table(["city"], [["Paris"]])
        assert is_cell_focused(table, AnswerSet.of("Paris"))

    def test_derived_answer_is_not(self):
        table = make_table(["city"], [["Paris"], ["Rome"]])
        assert not is_cell_focused(table, AnswerSet.of("2"))

    def test_multi_answer(self):
        table = make_table(["city"], [["Paris"], ["Rome"]])
        assert is_cell_focused(table, AnswerSet.of("Paris", "Rome"))

    def test_exact_even_when_policy_normalized(self):
        table = make_table(["city"], [["Paris"]])
        answers = AnswerSet.of("paris", matching="normalized")
        assert contains_all_answers(table, answers)
        assert not is_cell_focused(table, answers)


class _Inst:
    def __init__(self, id, question, table, answers):
        self.id = id
        self.question = question
        self.table = table
        self.answers = answers


class TestFilterDataset:
    def make(self, id, answer_in_table=True, long=False):
        cell = "needle" if answer_in_table else "hay"
        question = "find the needle" + (" pad" * 3000 if long else "")
        table = make_table(["c"], [[cell]])
        return _Inst(id, question, table, AnswerSet.of("needle"))

    def test_kept_and_dropped(self):
        instances = [
            self.make("a"),
            self.make("b", answer_in_table=False),
            self.make("c", long=True),
        ]
        kept, stats = filter_dataset(instances, 2800)
        assert [i.id for i in kept] == ["a"]
        assert stats.total == 3
        assert stats.dropped == {"not_cell_focused": 1, "length": 1}
        assert ("b", "not_cell_focused") in stats.reasons
        assert ("c", "length") in stats.reasons

    def test_cell_focus_checked_before_length(self):
        instance = self.make("x", answer_in_table=False, long=True)
        _, stats = filter_dataset([instance], 2800)
        assert stats.reasons == [("x", "not_cell_focused")]

    def test_unlabeled_dropped_as_not_cell_focused(self):
        instance = _Inst("u", "q", make_table(["c"], [["v"]]), None)
        kept, stats = filter_dataset([instance], 2800)
        assert kept == []
        assert stats.dropped["not_cell_focused"] == 1

    def test_token_budget_boundary(self):
        instance = self.make("a")
        text = instance.question + "\n| c |\n| --- |\n| needle |"
        budget = approx_token_count(text)
        kept, _ = filter_dataset([instance], max_tokens=budget)
        assert kept == []  # strictly-below-budget rule
        kept, _ = filter_dataset([instance], max_tokens=budget + 1)
        assert [i.id for i in kept] == ["a"]

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="ab é字", max_size=12), st.integers(1, 40),
           st.lists(st.tuples(st.sampled_from(["needle", "é", None, Decimal("1.50")])), max_size=4))
    def test_length_drop_equals_counting_the_rendered_prompt(self, question, max_tokens, rows):
        instances = [
            _Inst("a", question, make_table(["c"], [["needle"], *rows]), AnswerSet.of("needle")),
            _Inst("b", question + "字", make_table(["é"], [["needle"], *rows[::-1]]), AnswerSet.of("needle")),
        ]
        kept, _ = filter_dataset(instances, max_tokens=max_tokens)
        assert [i.id for i in kept] == [
            i.id for i in instances
            if approx_token_count(i.question + "\n" + serialize_markdown(i.table)) < max_tokens
        ]

    def test_stats_json(self):
        stats = FilterStats()
        stats.total = 1
        assert "dropped" in stats.to_json()


def test_approx_token_count():
    assert approx_token_count("") == 0
    assert approx_token_count("abcd") == 1
    assert approx_token_count("abcde") == 2


# --- sharing along the per-candidate path --------------------------------------


class RefusingExecutor:
    """``_PIPE_EXECUTOR``, except that a description containing "refuse"
    raises; counts every semantic call."""

    def __init__(self):
        self.calls = 0

    def _call(self, description):
        self.calls += 1
        if "refuse" in description:
            raise ExecutorFailureError("refused")

    def infer_column(self, table, new_column, description):
        self._call(description)
        return _PIPE_EXECUTOR.infer_column(table, new_column, description)

    def rewrite_column(self, table, column, description):
        self._call(description)
        return _PIPE_EXECUTOR.rewrite_column(table, column, description)


_GROUP_OPS = _PIPE_OPS | st.builds(AddColumnOp, _PIPE_NAMES, st.just("refuse it")) | st.builds(
    CleanColumnOp, _PIPE_NAMES, st.just("refuse it"))
_CANDIDATE_TEXT = st.one_of(
    st.lists(_GROUP_OPS, max_size=4).map(lambda ops: "plan: " + json.dumps(pipeline_to_json(Pipeline(tuple(ops))))),
    st.sampled_from(["no plan", '[{"operation": "explode"}]', "[]"]),
)
_ANSWER_SETS = st.builds(AnswerSet, st.lists(st.sampled_from(["x", "y", "7", "", "2"]), min_size=1, max_size=2)
                         .map(tuple), st.sampled_from(["exact", "normalized"]))
# two equal default configs that are distinct objects, so draws mix equal configs of different identity
_CONFIGS = st.sampled_from([RewardConfig(), RewardConfig(), RewardConfig(Fraction(1, 3), Fraction(2), 64, 16, "inverted")])


@st.composite
def _scored_groups(draw):
    """One table, a few candidate texts, two answer sets and two configs, and
    a random sequence of draws over them: (text, answers, config, token_len).
    Texts, answer sets and configs repeat, adjacent or not."""
    rows = draw(st.lists(st.tuples(*[_PIPE_CELLS] * len(_PIPE_COLUMNS)), min_size=1, max_size=4))
    table = Table(_PIPE_COLUMNS, tuple(rows))
    texts = draw(st.lists(_CANDIDATE_TEXT, min_size=1, max_size=4))
    answers = draw(st.lists(_ANSWER_SETS, min_size=2, max_size=2))
    configs = draw(st.lists(_CONFIGS, min_size=2, max_size=2))
    draws = draw(st.lists(st.tuples(st.sampled_from(texts), st.sampled_from(answers), st.sampled_from(configs),
                                    st.sampled_from([3, 60])), min_size=1, max_size=16))
    runs = draw(st.lists(st.integers(1, 3), min_size=len(draws), max_size=len(draws)))
    return table, [d for d, n in zip(draws, runs) for _ in range(n)]  # runs of adjacent copies


class TestSharingAlongThePerCandidatePath:
    @settings(max_examples=300, deadline=None)
    @given(_scored_groups())
    def test_every_trace_and_breakdown_equals_computing_it_afresh(self, group):
        table, draws = group
        executor = RefusingExecutor()
        for text, answers, config, token_len in draws:
            try:
                want_pipeline = ref_extract_pipeline_json(text)
            except TablePrepError:
                with pytest.raises(TablePrepError):
                    extract_pipeline_json(text)
                pipeline = want_pipeline = Pipeline()
            else:
                pipeline = extract_pipeline_json(text)
                assert pipeline == want_pipeline
            trace = execute(pipeline, table, executor)
            assert trace == ref_execute(want_pipeline, table, RefusingExecutor())
            want = ref_total_reward(trace, answers, token_len, config)
            assert total_reward(trace, answers, token_len, config) == want

    def test_equal_texts_in_a_row_parse_once(self):
        text = '[{"operation": "select", "columns": ["a"]}]'
        first = extract_pipeline_json(text)
        assert extract_pipeline_json("".join(list(text))) is first  # an equal text, not the same object
        assert extract_pipeline_json("[]") == Pipeline()
        again = extract_pipeline_json(text)
        assert again == first and again is not first

    @pytest.mark.parametrize("bad", ["no plan", '[{"operation": "explode"}]'])
    def test_a_text_that_raised_raises_on_every_call(self, bad):
        good = extract_pipeline_json("[]")
        for _ in range(3):
            with pytest.raises(TablePrepError):
                extract_pipeline_json(bad)
        assert extract_pipeline_json("[]") is good  # a failure leaves the last parse in place

    def test_a_pipeline_that_ran_gets_its_trace_back_and_a_truncated_one_runs_again(self):
        table = make_table(["a", "b"], [["x", 7], ["y", 2]])
        executor = RefusingExecutor()
        ran = Pipeline((AddColumnOp("n", "swap it"), FilterOp("n", "==", "y")))
        first = execute(ran, table, executor)
        assert first.truncated_at is None and executor.calls == 1
        assert execute(Pipeline(list(ran)), table, executor) is first
        truncated = Pipeline((AddColumnOp("n", "swap it"), CleanColumnOp("a", "refuse it"), SortByOp("a", "asc")))
        traces = [execute(truncated, table, executor) for _ in range(3)]
        assert [t.truncated_at for t in traces] == [1, 1, 1]
        assert executor.calls == 1 + 3  # the stored add_column, then the failing step on every call
        assert traces[0] == traces[1] and traces[0] is not traces[1]

    def test_each_distinct_table_is_scanned_once_per_answer_set(self, monkeypatch):
        scanned = []
        inner = reward.contains_all_answers

        def counting(table, answers):
            scanned.append((id(table), answers))
            return inner(table, answers)

        monkeypatch.setattr(reward, "contains_all_answers", counting)
        table = make_table(["a", "b"], [["x", 7], ["y", 2], ["x", 3]])
        pipelines = [
            pipe({"operation": "filter", "column": "a", "cmp": "==", "value": "x"}),
            pipe({"operation": "filter", "column": "a", "cmp": "==", "value": "x"},
                 {"operation": "group_by", "column": "a"}),
            pipe({"operation": "group_by", "column": "b"}),
            pipe({"operation": "filter", "column": "a", "cmp": "==", "value": "x"}),
            pipe({"operation": "filter", "column": "ghost", "cmp": "==", "value": "x"}),
        ]
        x, y = AnswerSet.of("x"), AnswerSet.of("y")
        config = RewardConfig()
        for answers in (x, y):
            for pipeline in pipelines * 2:
                trace = execute(pipeline, table)
                for token_len in (5, 5, 3000):
                    total_reward(trace, answers, token_len, config)
        # filter a==x, then its group_by, and group_by b: three tables per answer set
        assert len(scanned) == len(set(scanned)) == 6
        total_reward(execute(pipelines[0], table), x, 5, config)  # x's memo was replaced by y's
        assert len(scanned) == 7

    def test_threads_scoring_different_instances_keep_their_own_memo(self, monkeypatch):
        both_inside = threading.Barrier(2, timeout=10)
        scans = {"left": 0, "right": 0}
        inner = reward.contains_all_answers

        def meeting(table, answers):
            name = threading.current_thread().name
            if not scans[name]:  # hold each thread's first scan until the other thread is scanning too
                both_inside.wait()
            scans[name] += 1
            return inner(table, answers)

        monkeypatch.setattr(reward, "contains_all_answers", meeting)
        instances = {
            "left": (make_table(["a", "b"], [["x", 1], ["y", 2]]), AnswerSet.of("x")),
            "right": (make_table(["b", "a"], [[3, "q"], [0, "x"], [2, "x"]]), AnswerSet.of("q", "x")),
        }
        texts = ['[{"operation": "sort_by", "column": "a", "order": "desc", "k": 1}]'] * 3 + [
            '[{"operation": "filter", "column": "a", "cmp": "!=", "value": "z"}]', "oops"]
        results = {}

        def work(name):
            table, answers = instances[name]
            try:
                out = []
                for text in texts * 2:
                    try:
                        pipeline = extract_pipeline_json(text)
                    except TablePrepError:
                        pipeline = Pipeline()
                    out.append((pipeline, total_reward(execute(pipeline, table), answers, 10, RewardConfig())))
                results[name] = out
            except BaseException as err:  # reported by the assertion below
                results[name] = err

        threads = [threading.Thread(target=work, args=(name,), name=name) for name in instances]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        for name, (table, answers) in instances.items():
            assert not isinstance(results[name], BaseException), results[name]
            for pipeline, got in results[name]:
                assert got == ref_total_reward(ref_execute(pipeline, table, None), answers, 10, RewardConfig())
            assert scans[name] == 2  # the sorted table and the filtered one


def test_scoring_reads_no_operator_semantics():
    """reward.py imports nothing from the operator module and reads no
    ``spec`` attribute, so a correctness bit always comes from scanning the
    step's table, never from what its operator implies."""
    tree = ast.parse(Path(reward.__file__).read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["tableprep" if node.level else "", node.module]))
            names = [module, *(f"{module}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = []
        if any(name == "tableprep.ops" or name.startswith("tableprep.ops.") for name in names):
            found.append((node.lineno, "import"))
        if isinstance(node, ast.Attribute) and node.attr == "spec":
            found.append((node.lineno, ast.unparse(node)))
        if isinstance(node, ast.Constant) and node.value == "spec":
            found.append((node.lineno, "'spec'"))
    assert found == []


def test_the_reward_references_take_only_the_reward_types():
    """oracles.py takes only the data types from tableprep.reward, so no
    reference scores a pipeline with the code it checks."""
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    imported = sorted(
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "tableprep.reward" for alias in node.names
    )
    assert imported == ["AnswerSet", "RewardBreakdown", "RewardConfig"]


def _config_defaults(tree) -> list:
    """(line, function) of each parameter named ``config`` that has a default."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [(node.lineno, node.name) for a in defaulted if a.arg == "config"]
    return found


def test_each_reward_and_gate_setting_has_one_home():
    """A reward or gate setting is read from the config that the caller
    passes and is checked where that config is built: no ``config``
    parameter of reward.py or gate.py has a default, neither module builds a
    config, and no error class repeats the budget check."""
    for module in (reward, gate):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        built = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("RewardConfig", "GateConfig")
        ]
        assert (_config_defaults(tree), built) == ([], []), module.__name__
    assert not hasattr(errors, "BadBudgetError")
