"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own output.
"""

import json
import os
import random
import socket
import time
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

import pytest
from click.testing import CliRunner

from tableprep.cli import main as cli_main
from tableprep.engine import execute
from tableprep.gate import LOW_VARIANCE, GateConfig, advantages, vgr_accept
from tableprep.merge import merge_pipelines
from tableprep.ops import (
    FilterOp,
    GroupByOp,
    Pipeline,
    SortByOp,
    canonical_key,
    exec_filter,
    exec_group_by,
    exec_select,
    exec_sort_by,
    parse_pipeline,
)
from tableprep.reward import AnswerSet, RewardConfig, compression_reward, length_reward, total_reward

from conftest import CELL_TEXTS, CountingExecutor, SequenceQaClient, make_table, random_table
from oracles import ref_best_path, ref_filter, ref_group_by, ref_select, ref_sort_by

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_advantage_distortion():
    with criterion(1, "advantage distortion reproduction"):
        expected = [1.41, -0.70, -0.70]
        config = GateConfig()
        for group in ([0.9, 0.5, 0.5], [0.3, 0.1, 0.1]):
            got = [float(a) for a in advantages(group, config)]
            assert all(abs(g - e) <= 0.01 for g, e in zip(got, expected)), (group, got)

        advantages([0.9, 0.5, 0.5], config)  # warm caches before timing
        best = min(
            _timed(lambda: (advantages([0.9, 0.5, 0.5], config), advantages([0.3, 0.1, 0.1], config)))
            for _ in range(10)
        )
        assert best < 0.001, f"advantage computation took {best * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_vgr_gate():
    with criterion(2, "variance-aware group gate"):
        config = GateConfig()
        low = vgr_accept([0.3, 0.1, 0.1], config)
        assert not low.accepted

        constant = vgr_accept([0.5, 0.5, 0.5], config)
        assert not constant.accepted and constant.reason == LOW_VARIANCE

        assert vgr_accept([0.9, 0.1, 0.2], config).accepted

        rng = random.Random(4242)
        rejections = 0
        for _ in range(100):
            value = Fraction(rng.randint(0, 400), 100)
            group = [value] * rng.randint(2, 10)
            decision = vgr_accept(group, config)
            if not decision.accepted and decision.reason == LOW_VARIANCE:
                rejections += 1
        assert rejections == 100


def test_criterion_3_length_reward_goldens():
    with criterion(3, "length reward golden values"):
        golden = {0: 0, 2048: 0, 2304: Fraction(-1, 2), 2560: -1, 2561: -1, 10000: -1}
        budget = RewardConfig(l_max=2560, l_cache=512)
        for token_len, expected in golden.items():
            assert length_reward(token_len, budget) == expected, token_len
        # continuity at both breakpoints: the ramp meets the flat branches
        assert Fraction((2560 - 512) - 2048, 512) == length_reward(2048, budget) == 0
        assert Fraction((2560 - 512) - 2560, 512) == length_reward(2560, budget) == -1


def test_criterion_4_reward_stack():
    with criterion(4, "reward stack exactness"):
        answers = AnswerSet.of("target")
        config = RewardConfig(l_max=2560, l_cache=512)

        # 4-op trace: ops 1-2 preserve the answer, ops 3-4 do not
        table = make_table(["name", "val"], [["target", 1], ["other", 2], ["third", 3]])
        four_op = parse_pipeline([
            {"operation": "select", "columns": ["name", "val"]},
            {"operation": "sort_by", "column": "val", "order": "asc"},
            {"operation": "filter", "column": "name", "cmp": "==", "value": "other"},
            {"operation": "sort_by", "column": "val", "order": "desc"},
        ])
        trace4 = execute(four_op, table)
        assert total_reward(trace4, answers, 0, config).r_acc == Fraction(1, 2)

        # compression: 10x5 -> 2x2 is exactly 0.3
        rows = [["target" if i == 0 else f"r{i}", i, i, i, i] for i in range(10)]
        wide = make_table(["name", "v1", "v2", "v3", "v4"], rows)
        shrink = parse_pipeline([
            {"operation": "sort_by", "column": "v1", "order": "asc", "k": 2},
            {"operation": "select", "columns": ["name", "v1"]},
        ])
        trace_shrink = execute(shrink, wide)
        assert (trace_shrink.final.n_rows, trace_shrink.final.n_cols) == (2, 2)
        assert compression_reward(trace_shrink, config) == Fraction(3, 10)

        # totals match hand computation as exact rationals
        b = total_reward(trace_shrink, answers, 2304, config)
        assert b.total == 1 + Fraction(1, 2) * Fraction(3, 10) + Fraction(1, 2) * Fraction(-1, 2)
        assert b.total == Fraction(9, 10)
        b4 = total_reward(trace4, answers, 2304, config)
        assert b4.total == Fraction(1, 2) + Fraction(1, 2) * Fraction(2, 3) + Fraction(1, 2) * Fraction(-1, 2)
        assert b4.total == Fraction(7, 12)


def test_criterion_5_merge_oracle_equivalence():
    with criterion(5, "merge vs brute-force best path, 1000 trials"):
        vocabulary = [
            FilterOp("c", "==", "0"),
            FilterOp("c", "==", "1"),
            FilterOp("c", ">", "2"),
            SortByOp("c", "asc"),
            SortByOp("c", "desc"),
            SortByOp("d", "asc", k=3),
            GroupByOp("c"),
            GroupByOp("d"),
        ]
        assert len({canonical_key(s) for s in vocabulary}) == 8
        rng = random.Random(31337)
        start = time.perf_counter()
        for trial in range(1000):
            candidates = [
                [rng.choice(vocabulary) for _ in range(rng.randint(0, 5))]
                for _ in range(rng.randint(1, 6))
            ]
            # no select/add_column in this vocabulary: the merged pipeline is
            # the trie path alone
            merged = merge_pipelines([Pipeline(tuple(seq)) for seq in candidates])
            expected = ref_best_path(
                [tuple(canonical_key(s) for s in seq) for seq in candidates]
            )
            assert [canonical_key(s) for s in merged] == list(expected), f"trial {trial}"
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_6_operator_oracle_equivalence():
    with criterion(6, "structured operators vs naive reference, 500 tables each"):
        rng = random.Random(97)
        comparators = ["==", "!=", ">", "<", ">=", "<="]
        for _ in range(500):
            table = random_table(rng, max_rows=8, max_cols=6)
            column = rng.choice(table.columns)

            request = [c for c in table.columns if rng.random() < 0.5] or [column]
            assert exec_select(table, request) == ref_select(table, request)

            cmp = rng.choice(comparators)
            value = rng.choice([Decimal(rng.randint(0, 9)), *CELL_TEXTS])
            assert exec_filter(table, column, cmp, value) == ref_filter(table, column, cmp, value)

            order = rng.choice(["asc", "desc"])
            k = rng.choice([None, 1, 3])
            assert exec_sort_by(table, column, order, k) == ref_sort_by(table, column, order, k)

            grouped = exec_group_by(table, column)
            assert grouped == ref_group_by(table, column)
            assert sum(int(row[1]) for row in grouped.rows) == table.n_rows


def test_criterion_7_rollback_case_table():
    with criterion(7, "rollback state/call table and executor economy"):
        table = make_table(["name", "score"], [["target", 9], ["other", 3]])
        pipeline = parse_pipeline([
            {"operation": "add_column", "new_column": "tag", "description": "classify"},
            {"operation": "filter", "column": "name", "cmp": "==", "value": "other"},
        ])
        no_data = "No data available"
        cases = {
            "answer@1": (["42"], (1, 1)),
            "answer@2": ([no_data, "42"], (2, 2)),
            "answer@3": ([no_data, no_data, "42"], (3, 3)),
            "never": ([no_data, no_data, no_data], (3, 3)),
        }
        from tableprep.rollback import answer_with_rollback

        for name, (responses, expected) in cases.items():
            executor = CountingExecutor()
            qa = SequenceQaClient(responses)
            result = answer_with_rollback("q", table, pipeline, qa, executor)
            assert (result.state_used, result.qa_calls) == expected, name
            # the state-1 trace needs exactly one semantic invocation; rollback
            # must not add more
            assert executor.infer_calls == 1, name
            assert executor.rewrite_calls == 0, name


@pytest.fixture
def no_network(monkeypatch):
    attempts = []

    def guard(*args, **kwargs):
        attempts.append(args)
        raise AssertionError("network access attempted during mock-backed run")

    monkeypatch.setattr(socket, "socket", guard)
    monkeypatch.setattr(socket, "create_connection", guard)
    return attempts


def test_criterion_8_end_to_end_determinism(tmp_path, no_network):
    with criterion(8, "mock-backed run determinism and no-prep comparison"):
        runner = CliRunner()
        texts = []
        for i in range(3):
            out = tmp_path / f"report{i}.json"
            result = runner.invoke(
                cli_main,
                ["run", "--dataset", fx("run_instances.jsonl"),
                 "--config", fx("run_config.json"), "--out", str(out)],
                catch_exceptions=False,
            )
            assert result.exit_code == 0, result.output
            texts.append(out.read_bytes())
        assert texts[0] == texts[1] == texts[2]
        assert no_network == []

        prep = json.loads(texts[0])
        noprep_out = tmp_path / "noprep.json"
        result = runner.invoke(
            cli_main,
            ["run", "--dataset", fx("run_instances.jsonl"),
             "--config", fx("noprep_config.json"), "--out", str(noprep_out)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output
        noprep = json.loads(noprep_out.read_text())

        # fixture instances keep answers reachable, so preparation must not
        # lose accuracy against the identity-pipeline run
        assert prep["aggregates"]["accuracy"] >= noprep["aggregates"]["accuracy"]
        assert prep["aggregates"]["mean_compression"] > 0
        assert noprep["aggregates"]["mean_compression"] == 0.0


def test_criterion_9_cell_focused_filter(tmp_path):
    with criterion(9, "cell-focused dataset filter"):
        runner = CliRunner()
        out = tmp_path / "kept.jsonl"
        stats_out = tmp_path / "stats.json"
        result = runner.invoke(
            cli_main,
            ["filter-dataset", "--input", fx("filter_50.jsonl"),
             "--output", str(out), "--stats-out", str(stats_out)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output
        kept_ids = [json.loads(line)["id"] for line in out.read_text().splitlines()]
        assert kept_ids == [f"f{i:02d}" for i in range(1, 26)]
        stats = json.loads(stats_out.read_text())
        assert stats["kept"] == 25 and stats["total"] == 50
        dropped_ids = {r["id"] for r in stats["reasons"]}
        assert dropped_ids == {f"f{i:02d}" for i in range(26, 51)}
        assert all(r["reason"] in ("not_cell_focused", "length") for r in stats["reasons"])
