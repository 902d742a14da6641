import logging
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tableprep import reward
from tableprep.engine import FAILED, OK, SKIPPED, execute
from tableprep.errors import BadBudgetError, DegenerateInitialTableError
from tableprep.ops import (
    AddColumnOp,
    CleanColumnOp,
    FilterOp,
    GroupByOp,
    Pipeline,
    SelectOp,
    SortByOp,
    parse_pipeline,
)
from tableprep.reward import (
    AnswerSet,
    FilterStats,
    RewardConfig,
    accuracy_reward,
    approx_token_count,
    compression_reward,
    contains_all_answers,
    filter_dataset,
    is_cell_focused,
    length_reward,
    op_correctness,
    per_op_correctness,
    total_reward,
)
from tableprep.semantic import MockSemanticExecutor
from tableprep.table import Table, render_value, serialize_markdown

from conftest import make_table
from oracles import ref_contains_all_answers, ref_per_op_correctness, ref_total_reward


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
    def _chunked_table(first=None, last=None):
        """A table of several containment chunks; ``first`` and ``last`` replace its end rows."""
        rows = [[f"r{i}", i] for i in range(3 * reward._CONTAINS_CHUNK_ROWS + 1)]
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
    def test_answers_in_one_end_row_of_a_chunked_table(self, matching, where, answers, expected):
        table = self._chunked_table(**{where: ["Target", -5]})
        answer_set = AnswerSet(tuple(answers), matching)
        assert contains_all_answers(table, answer_set) is ref_contains_all_answers(table, answer_set) is expected

    @pytest.mark.parametrize("answers, expected", [
        (["Target", "-5"], True), (["Target", "-5", ""], True), (["-5.0"], False),
    ])
    def test_answers_split_between_the_first_and_last_row(self, answers, expected):
        table = self._chunked_table(first=["Target", 0], last=["", Decimal("-5.0")])
        answer_set = AnswerSet(tuple(answers))
        assert contains_all_answers(table, answer_set) is ref_contains_all_answers(table, answer_set) is expected

    def test_exact_matching_stops_at_the_chunk_that_completes_the_answers(self):
        # rows past the first chunk hold an unhashable cell: reading them would raise
        first = self._chunked_table(first=["Target", -5]).rows[: reward._CONTAINS_CHUNK_ROWS]
        table = Table._trusted(("name", "n"), first + ((["unhashable"], Decimal(1)),))
        assert contains_all_answers(table, AnswerSet.of("Target", "-5"))

    def test_exact_matching_of_one_answer_stops_at_its_first_cell(self):
        # the row after the answer holds an unhashable cell: reading it would raise
        table = Table._trusted(("name", "n"), (("Target", Decimal(1)), (["unhashable"], Decimal(2))))
        assert contains_all_answers(table, AnswerSet.of("Target"))


class TestOpCorrectness:
    def test_kept_answer_scores_one(self, answer_table):
        assert op_correctness(answer_table, AnswerSet.of("target")) == 1

    def test_dropped_answer_scores_zero(self, answer_table):
        assert op_correctness(make_table(["name"], [["other"]]), AnswerSet.of("target")) == 0

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
        assert accuracy_reward(trace, AnswerSet.of("target")) == 1

    def test_half_correct_four_ops(self, answer_table):
        # ops 1-2 preserve the answer, op 3 drops it, op 4 works on the
        # answer-free table: cumulative 2 of 4
        pipeline = pipe(
            {"operation": "select", "columns": ["name", "val"]},
            {"operation": "sort_by", "column": "val", "order": "asc"},
            {"operation": "filter", "column": "name", "cmp": "==", "value": "other"},
            {"operation": "sort_by", "column": "val", "order": "desc"},
        )
        trace = execute(pipeline, answer_table)
        answers = AnswerSet.of("target")
        assert per_op_correctness(trace, answers) == [1, 1, 0, 0]
        assert accuracy_reward(trace, answers) == Fraction(1, 2)

    def test_single_dropping_op(self, answer_table):
        pipeline = pipe({"operation": "filter", "column": "name", "cmp": "==", "value": "other"})
        trace = execute(pipeline, answer_table)
        assert accuracy_reward(trace, AnswerSet.of("target")) == 0

    def test_empty_pipeline_zero_with_warning(self, answer_table, caplog):
        trace = execute(pipe(), answer_table)
        with caplog.at_level(logging.WARNING):
            assert accuracy_reward(trace, AnswerSet.of("target")) == 0
        assert any("empty pipeline" in r.message for r in caplog.records)

    def test_partial_sums_non_decreasing(self, answer_table):
        pipeline = pipe(
            {"operation": "select", "columns": ["name"]},
            {"operation": "filter", "column": "name", "cmp": "==", "value": "other"},
            {"operation": "sort_by", "column": "name", "order": "asc"},
        )
        trace = execute(pipeline, answer_table)
        answers = AnswerSet.of("target")
        values = [accuracy_reward(trace, answers, k) for k in range(1, 4)]
        assert values == sorted(values)


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
        assert compression_reward(trace) == Fraction(3, 10)

    def test_identity_is_one(self, wide_table):
        trace = execute(pipe(), wide_table)
        assert compression_reward(trace) == 1

    def test_add_column_exceeds_one(self):
        from tableprep.semantic import MockSemanticExecutor

        table = make_table(["a", "b", "c", "d", "e"], [[1, 2, 3, 4, 5]])
        pipeline = pipe({"operation": "add_column", "new_column": "f", "description": "x"})
        trace = execute(pipeline, table, MockSemanticExecutor({"x": {"1": "v"}}))
        # 0.5*1 + 0.5*(6/5) = 1.1
        assert compression_reward(trace) == Fraction(11, 10)

    def test_inverted_orientation(self, wide_table):
        pipeline = pipe(
            {"operation": "sort_by", "column": "v1", "order": "asc", "k": 2},
            {"operation": "select", "columns": ["name", "v1"]},
        )
        trace = execute(pipeline, wide_table)
        assert compression_reward(trace, orientation="inverted") == Fraction(7, 10)
        # values above 1 clamp to zero when inverted
        identity = execute(pipe(), wide_table)
        assert compression_reward(identity, orientation="inverted") == 0

    def test_degenerate_initial(self):
        empty = make_table(["a"], [])
        with pytest.raises(DegenerateInitialTableError):
            compression_reward(execute(pipe(), empty))


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
        assert length_reward(token_len, 2560, 512) == expected

    def test_continuity_at_breakpoints(self):
        # ramp value at the free/ramp boundary equals the flat branch
        assert Fraction(2048 - 2048, 512) == length_reward(2048, 2560, 512)
        # ramp value at the cap equals the floor branch
        assert Fraction(2048 - 2560, 512) == length_reward(2561, 2560, 512) == Fraction(-1)

    def test_weakly_decreasing(self):
        values = [length_reward(n, 2560, 512) for n in range(0, 3000, 64)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_bad_budget(self):
        with pytest.raises(BadBudgetError):
            length_reward(0, 512, 512)
        with pytest.raises(BadBudgetError):
            length_reward(0, 2560, 0)


class TestTotalReward:
    def test_weighted_sum_example(self, wide_table):
        # r_acc=1, r_compress=0.3, r_length=0 -> 1.15
        pipeline = pipe(
            {"operation": "sort_by", "column": "v1", "order": "asc", "k": 2},
            {"operation": "select", "columns": ["name", "v1"]},
        )
        trace = execute(pipeline, wide_table)
        breakdown = total_reward(trace, AnswerSet.of("target"), token_len=100)
        assert breakdown.r_acc == 1
        assert breakdown.r_compress == Fraction(3, 10)
        assert breakdown.r_length == 0
        assert breakdown.total == Fraction(23, 20)

    def test_identity_like_pipeline(self, wide_table):
        # a select of all columns preserves everything: 1 + 0.5*1 + 0 = 1.5
        pipeline = pipe({"operation": "select", "columns": list(wide_table.columns)})
        trace = execute(pipeline, wide_table)
        breakdown = total_reward(trace, AnswerSet.of("target"), token_len=10)
        assert breakdown.total == Fraction(3, 2)

    def test_all_failing_overlong(self, wide_table):
        # truncation keeps the initial table, so compression stays 1:
        # 0 + 0.5*1 + 0.5*(-1) = 0
        pipeline = pipe(
            {"operation": "filter", "column": "ghost", "cmp": "==", "value": 1},
            {"operation": "sort_by", "column": "ghost", "order": "asc"},
        )
        trace = execute(pipeline, wide_table)
        breakdown = total_reward(trace, AnswerSet.of("target"), token_len=5000)
        assert breakdown.per_op_correct == (0, 0)
        assert breakdown.total == 0

    def test_breakdown_invariant(self, wide_table):
        cfg = RewardConfig(lambda_compress=Fraction(1, 4), lambda_length=Fraction(3, 4))
        pipeline = pipe({"operation": "select", "columns": ["name"]})
        trace = execute(pipeline, wide_table)
        b = total_reward(trace, AnswerSet.of("target"), token_len=2304, config=cfg)
        assert b.total == b.r_acc + cfg.lambda_compress * b.r_compress + cfg.lambda_length * b.r_length

    def test_linearity_in_components(self, wide_table):
        answers = AnswerSet.of("target")
        p1 = pipe({"operation": "select", "columns": list(wide_table.columns)})
        p2 = pipe({"operation": "select", "columns": ["name"]})
        t1 = execute(p1, wide_table)
        t2 = execute(p2, wide_table)
        b1 = total_reward(t1, answers, token_len=0)
        b2 = total_reward(t2, answers, token_len=2304)
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
        breakdown = total_reward(trace, answers, token_len=10)
        assert [id(t) for t in calls] == [id(step.table_after) for step in trace.steps[:2]]
        assert breakdown.r_acc == accuracy_reward(trace, answers) == Fraction(2, 4)

    def test_subset_operators_after_a_dropped_answer_are_not_scanned(self, wide_table, monkeypatch):
        calls = []
        inner = reward.contains_all_answers

        def counting(table, answers):
            calls.append(table)
            return inner(table, answers)

        monkeypatch.setattr(reward, "contains_all_answers", counting)
        pipeline = pipe(
            {"operation": "select", "columns": ["v1", "v2"]},
            {"operation": "filter", "column": "v1", "cmp": ">", "value": 1},
            {"operation": "sort_by", "column": "v2", "order": "asc", "k": 1},
        )
        trace = execute(pipeline, wide_table)
        assert [step.status for step in trace.steps] == [OK, OK, OK]
        breakdown = total_reward(trace, AnswerSet.of("target"), token_len=10)
        assert breakdown.per_op_correct == (0, 0, 0)
        assert [id(t) for t in calls] == [id(trace.steps[0].table_after)]

    def test_empty_pipeline_scores_zero(self, wide_table, caplog):
        trace = execute(pipe(), wide_table)
        with caplog.at_level(logging.WARNING):
            assert total_reward(trace, AnswerSet.of("target"), token_len=10).r_acc == 0
        assert any("empty pipeline" in r.message for r in caplog.records)


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
    def test_carried_bits_equal_scanning_every_step(self, trace_and_answers, matching):
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
        kept, stats = filter_dataset(instances)
        assert [i.id for i in kept] == ["a"]
        assert stats.total == 3
        assert stats.dropped == {"not_cell_focused": 1, "length": 1}
        assert ("b", "not_cell_focused") in stats.reasons
        assert ("c", "length") in stats.reasons

    def test_cell_focus_checked_before_length(self):
        instance = self.make("x", answer_in_table=False, long=True)
        _, stats = filter_dataset([instance])
        assert stats.reasons == [("x", "not_cell_focused")]

    def test_unlabeled_dropped_as_not_cell_focused(self):
        instance = _Inst("u", "q", make_table(["c"], [["v"]]), None)
        kept, stats = filter_dataset([instance])
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
