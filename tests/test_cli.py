import ast
import functools
import json
import os
from pathlib import Path

import pytest
from click.testing import CliRunner

from tableprep import cli
from tableprep import config as config_mod
from tableprep.cli import main
from tableprep.engine import execute
from tableprep.errors import ConfigError
from tableprep.llm import HttpChatTransport, extract_pipeline_json
from tableprep.runner import load_run_report
from tableprep.table import CELL_DECODER, load_json_table

from conftest import FLOAT_BOUND

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


@pytest.fixture
def runner():
    return CliRunner()


# a dataset line with more integer digits than Python's JSON parser converts
HUGE_INTEGER_LINE = '{"id": "huge", "question": "q", "table": {"header": ["x"], "rows": [[%s]]}}' % ("9" * 5000)
# nested deeper than Python's JSON decoder recurses, so decoding raises RecursionError
DEEP_JSON = "[" * 100_000 + "]" * 100_000


class TestRun:
    def test_full_mock_run(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["run", "--dataset", fx("run_instances.jsonl"), "--config", fx("run_config.json"),
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        doc = load_run_report(str(out), verify=True)
        assert doc["aggregates"]["instances"] == 20
        assert doc["aggregates"]["accuracy"] == 1.0
        assert doc["aggregates"]["mean_compression"] > 0.5
        assert doc["errors"] == []

    def test_missing_dataset_exit_3(self, runner):
        result = runner.invoke(
            main, ["run", "--dataset", "nope.jsonl", "--config", fx("run_config.json")]
        )
        assert result.exit_code == 3

    def test_bad_config_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(
            main, ["run", "--dataset", fx("run_instances.jsonl"), "--config", str(bad)]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("run_doc", [{"parallelism": 0}, {"parallelism": -1}, {"n": 0}])
    def test_bad_run_size_exit_2_before_running(self, runner, tmp_path, run_doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"run": run_doc}))
        result = runner.invoke(
            main, ["run", "--dataset", fx("run_instances.jsonl"), "--config", str(bad)]
        )
        assert result.exit_code == 2
        assert "must be an integer >= 1" in result.output

    @pytest.mark.parametrize("doc", [
        {"qa": {"mode": "http", "timeout": 0}},
        {"semantic_executor": {"mode": "http", "retries": "x"}},
    ], ids=["qa_timeout", "semantic_retries"])
    def test_bad_client_keys_exit_2_before_running(self, runner, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["run", "--dataset", fx("run_instances.jsonl"), "--config", str(bad)]
        )
        assert result.exit_code == 2
        assert "bad config value" in result.output

    def test_non_finite_client_number_exit_2_before_running(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"qa": {"mode": "http", "timeout": NaN}}')
        result = runner.invoke(
            main, ["run", "--dataset", fx("run_instances.jsonl"), "--config", str(bad)]
        )
        assert result.exit_code == 2
        assert "bad config value: qa.timeout must be a number, got nan" in result.output

    @pytest.mark.parametrize("doc, message", [
        ({"reward": {"l_max": 2560.9}}, "reward.l_max must be an integer"),
        ({"reward": {"l_cache": True}}, "reward.l_cache must be an integer"),
        ({"reward": {"lambda_compress": True}}, "reward.lambda_compress must be a number"),
        ({"reward": {"lambda_compress": "0.5"}}, "reward.lambda_compress must be a number"),
        ({"gate": {"variance_threshold": True}}, "gate.variance_threshold must be a number"),
    ], ids=["l_max", "l_cache", "lambda_compress", "lambda_compress_text", "variance_threshold"])
    def test_bad_reward_or_gate_keys_exit_2_before_running(self, runner, tmp_path, doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["run", "--dataset", fx("run_instances.jsonl"), "--config", str(bad)]
        )
        assert result.exit_code == 2
        assert message in result.output

    @pytest.mark.parametrize("doc, message", [
        ({"semantic_executor": {"mode": "mock", "rules": {"p": "x"}}}, "semantic_executor rules"),
        ({"qa": {"mode": "scripted", "responses": {}}}, "qa.mode must be 'cell_lookup' or 'http', got 'scripted'"),
        ({"qa": {"mode": "cell_lookup", "script": {"q": "x"}}},
         "QA script must be a JSON object mapping each key to a list of answer strings"),
        ({"generator": {"mode": "mock", "default_texts": "[]"}}, "generator.default_texts"),
        ({"generator": {"mode": "mock", "script": 5}},
         "generator script must be a JSON object mapping each key to a non-empty list of strings"),
        ({"qa": {"mode": "cell_lookup", "script": ["a"]}},
         "QA script must be a JSON object mapping each key to a list of answer strings"),
    ], ids=["semantic_rules", "qa_scripted", "qa_script_answers", "default_texts",
            "generator_script", "qa_script"])
    def test_malformed_mock_section_exit_2(self, runner, tmp_path, doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["run", "--dataset", fx("run_instances.jsonl"), "--config", str(bad)]
        )
        assert result.exit_code == 2
        assert message in result.output

    @pytest.mark.parametrize("argv", [
        ["run", "--dataset", fx("run_instances.jsonl")],
        ["exec", "--table", fx("table.csv"), "--pipeline", fx("pipeline.json")],
        ["reward", fx("reward_bundle.json")],
        ["gate", fx("gate_groups.jsonl")],
    ], ids=["run", "exec", "reward", "gate"])
    @pytest.mark.parametrize("doc, message", [
        ({"qa": {"mode": "htp"}}, "qa.mode must be 'cell_lookup' or 'http', got 'htp'"),
        ({"generator": {"mode": "mok"}}, "generator.mode must be 'mock' or 'http', got 'mok'"),
        ({"semantic_executor": {"mode": "mocks"}},
         "semantic_executor.mode must be 'none', 'mock' or 'http', got 'mocks'"),
        ({"generator": {"mode": "http", "default_texts": []}},
         "generator.default_texts must be a non-empty list of strings, got []"),
    ], ids=["qa_mode", "generator_mode", "semantic_mode", "default_texts"])
    def test_a_bad_mode_or_default_texts_exits_2_whichever_subcommand_runs(self, runner, tmp_path, argv, doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(main, [*argv, "--config", str(bad)])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: bad config value: {message}\n"

    def test_non_finite_threshold_is_a_candidate_error(self, runner, tmp_path):
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(Path(fx("run_instances.jsonl")).read_text().splitlines()[0])
        nan_filter = '[{"operation": "filter", "column": "Score", "cmp": ">", "value": NaN}]'
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"i01": [nan_filter, '[{"operation": "select", "columns": ["Country"]}]']}))
        config = json.loads(Path(fx("run_config.json")).read_text())
        config["generator"]["script"] = str(script)
        config["qa"]["script"] = fx("qa_expected.json")
        config["semantic_executor"]["rules"] = fx("semantic_rules.json")
        config["run"]["n"] = 2
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["run", "--dataset", str(dataset), "--config", str(config_path),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        (record,) = load_run_report(str(out), verify=True)["records"]
        assert record["candidate_errors"] == [
            "candidate 0: invalid operator at index 0: operator 'filter' has invalid parameter "
            "'value': expected a string or a finite number"
        ]

    def test_long_candidate_runs(self, runner, tmp_path):
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(Path(fx("run_instances.jsonl")).read_text().splitlines()[0])
        ops = [{"operation": "filter", "column": "Score", "cmp": "!=", "value": f"v{i}"}
               for i in range(1500)]
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"i01": [json.dumps(ops)]}))
        config = json.loads(Path(fx("run_config.json")).read_text())
        config["generator"]["script"] = str(script)
        config["qa"]["script"] = fx("qa_expected.json")
        config["semantic_executor"]["rules"] = fx("semantic_rules.json")
        config["run"]["n"] = 1
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["run", "--dataset", str(dataset), "--config", str(config_path),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        (record,) = load_run_report(str(out), verify=True)["records"]
        assert record["merged_ops"] == ["filter"] * 1500
        assert record["ops_executed"] == 1500

    @pytest.mark.parametrize("bad_line, message", [
        ("{broken json", "Expecting property name"),
        (HUGE_INTEGER_LINE, "4300 digits"),
        (DEEP_JSON, "maximum recursion depth"),
    ], ids=["broken_json", "huge_integer", "too_deep"])
    def test_malformed_line_recorded_run_continues(self, runner, tmp_path, bad_line, message):
        dataset = tmp_path / "data.jsonl"
        lines = Path(fx("run_instances.jsonl")).read_text().splitlines()[:3]
        lines.insert(1, bad_line)
        dataset.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["run", "--dataset", str(dataset), "--config", fx("run_config.json"),
                   "--out", str(out)],
        )
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert len(doc["records"]) == 3
        (error,) = doc["errors"]
        assert error["line"] == 2 and message in error["error"]

    def test_unlabeled_dataset_omits_accuracy(self, runner, tmp_path):
        dataset = tmp_path / "data.jsonl"
        docs = [json.loads(l) for l in Path(fx("run_instances.jsonl")).read_text().splitlines()[:2]]
        for d in docs:
            del d["answers"]
        dataset.write_text("\n".join(json.dumps(d) for d in docs) + "\n")
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["run", "--dataset", str(dataset), "--config", fx("run_config.json"),
                   "--out", str(out)],
        )
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["aggregates"]["accuracy"] is None
        assert all("correct" not in r for r in doc["records"])


class TestExec:
    def test_identity_echoes_table(self, runner, tmp_path):
        pipeline = tmp_path / "p.json"
        pipeline.write_text("[]")
        result = runner.invoke(main, ["exec", "--table", fx("table.csv"), "--pipeline", str(pipeline)])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["header"] == ["Country", "Score", "Zone"]
        assert len(doc["rows"]) == 3

    def test_pipeline_over_csv(self, runner):
        result = runner.invoke(
            main, ["exec", "--table", fx("table.csv"), "--pipeline", fx("pipeline.json")]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc == {"header": ["Country", "Score"], "rows": [["Norway", "71"]]}

    def test_failing_op_truncated_trace(self, runner, tmp_path):
        pipeline = tmp_path / "p.json"
        pipeline.write_text(json.dumps([
            {"operation": "filter", "column": "Ghost", "cmp": "==", "value": 1},
            {"operation": "group_by", "column": "Country"},
        ]))
        trace_path = tmp_path / "trace.json"
        result = runner.invoke(
            main, ["exec", "--table", fx("table.csv"), "--pipeline", str(pipeline),
                   "--trace", str(trace_path)],
        )
        assert result.exit_code == 0
        trace = json.loads(trace_path.read_text())
        assert [s["status"] for s in trace["steps"]] == ["failed", "skipped"]
        assert trace["truncated_at"] == 0
        doc = json.loads(result.output)
        assert len(doc["rows"]) == 3  # untouched input echoed back

    def test_semantic_without_executor_recorded_failed(self, runner, tmp_path):
        pipeline = tmp_path / "p.json"
        pipeline.write_text(json.dumps([
            {"operation": "add_column", "new_column": "g", "description": "infer"},
        ]))
        trace_path = tmp_path / "trace.json"
        result = runner.invoke(
            main, ["exec", "--table", fx("table.csv"), "--pipeline", str(pipeline),
                   "--trace", str(trace_path)],
        )
        assert result.exit_code == 0
        trace = json.loads(trace_path.read_text())
        assert trace["steps"][0]["status"] == "failed"

    def test_a_csv_suffix_in_any_case_reads_the_table_as_csv(self, runner, tmp_path):
        table = tmp_path / "T.CSV"
        table.write_bytes(Path(fx("table.csv")).read_bytes())
        result = runner.invoke(main, ["exec", "--table", str(table), "--pipeline", fx("pipeline.json")])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == {"header": ["Country", "Score"], "rows": [["Norway", "71"]]}

    def test_the_trace_writes_non_ascii_text_as_utf8(self, runner, tmp_path):
        pipeline = tmp_path / "p.json"
        pipeline.write_text(json.dumps([{"operation": "select", "columns": ["Zürich"]}]), encoding="utf-8")
        trace_path = tmp_path / "trace.json"
        result = runner.invoke(
            main, ["exec", "--table", fx("table.csv"), "--pipeline", str(pipeline), "--trace", str(trace_path)],
        )
        assert result.exit_code == 0, result.output
        text = trace_path.read_text(encoding="utf-8")
        assert "Zürich" in json.loads(text)["steps"][0]["error"]
        assert text.count("Zürich") == 2 and "\\u" not in text  # the op key and the error, unescaped

    def test_json_table_input(self, runner, tmp_path):
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"header": ["a"], "rows": [["1"]]}))
        pipeline = tmp_path / "p.json"
        pipeline.write_text("[]")
        result = runner.invoke(main, ["exec", "--table", str(table), "--pipeline", str(pipeline)])
        assert result.exit_code == 0
        assert json.loads(result.output)["rows"] == [["1"]]

    def test_json_table_numbers_are_exact(self, runner, tmp_path):
        table = tmp_path / "t.json"
        table.write_text('{"header": ["a", "b", "c"], "rows": [[1e16, 0.00001, 12345678901234567890.5]]}')
        pipeline = tmp_path / "p.json"
        pipeline.write_text("[]")
        result = runner.invoke(main, ["exec", "--table", str(table), "--pipeline", str(pipeline)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["rows"] == [["10000000000000000", "0.00001", "12345678901234567890.5"]]


class TestMerge:
    def test_fixture_consensus(self, runner):
        result = runner.invoke(main, ["merge", fx("merge_candidates.json")])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc == [
            {"operation": "filter", "column": "A", "cmp": "==", "value": "x"},
            {"operation": "sort_by", "column": "B", "order": "desc"},
        ]

    def test_a_byte_order_mark_is_read_past(self, runner, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes("\ufeff".encode("utf-8") + Path(fx("merge_candidates.json")).read_bytes())
        result = runner.invoke(main, ["merge", str(path)])
        assert result.exit_code == 0, result.output
        assert result.output == runner.invoke(main, ["merge", fx("merge_candidates.json")]).output

    def test_infinite_threshold_is_dataset_error(self, runner, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('[[{"operation": "filter", "column": "amount", "cmp": "<", "value": Infinity}]]')
        result = runner.invoke(main, ["merge", str(path)])
        assert result.exit_code == 3
        assert "expected a string or a finite number" in result.output

    def test_empty_candidates(self, runner, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[]")
        result = runner.invoke(main, ["merge", str(path)])
        assert result.exit_code == 0, result.output
        assert result.output == "[]\n"


class TestReward:
    def test_bundle_breakdown(self, runner):
        result = runner.invoke(main, ["reward", fx("reward_bundle.json")])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["r_acc"] == 1.0
        assert doc["r_compress"] == 0.3
        assert doc["r_length"] == 0.0
        assert doc["total"] == 1.15
        assert doc["exact"]["total"] == "23/20"
        assert doc["per_op_correct"] == [1, 1]

    def test_bundle_numbers_are_exact(self, runner, tmp_path):
        path = tmp_path / "b.json"
        path.write_text('{"table": {"header": ["a", "b"], "rows": [[1e16, 0.10000000000000000002], [7, 0.1]]}, '
                        '"answers": [1e16], "output_text": "", '
                        '"pipeline": [{"operation": "filter", "column": "b", "cmp": ">", '
                        '"value": 0.10000000000000000001}]}')
        result = runner.invoke(main, ["reward", str(path)])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["per_op_correct"] == [1]
        assert doc["exact"]["r_compress"] == "3/4"  # the filter kept the first row only

    def test_missing_field(self, runner, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"table": {"header": ["a"], "rows": []}}))
        result = runner.invoke(main, ["reward", str(path)])
        assert result.exit_code == 3

    def test_a_weight_no_float_holds_exits_2(self, runner, tmp_path):
        config = tmp_path / "c.json"
        config.write_text('{"reward": {"lambda_compress": %d}}' % 10**400)
        result = runner.invoke(main, ["reward", fx("reward_bundle.json"), "--config", str(config)])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: bad config value: reward.lambda_compress must be a number, got 1000")

    def test_a_total_no_float_holds_exits_3(self, runner, tmp_path):
        # group_by turns the 2x1 table into a 2x2 one, so r_compress is 3/2 and the total 1 + 1.5 * 1.5e308
        bundle, config = tmp_path / "b.json", tmp_path / "c.json"
        bundle.write_text('{"table": {"header": ["a"], "rows": [["x"], ["y"]]}, "answers": ["x"], '
                          '"pipeline": [{"operation": "group_by", "column": "a"}]}')
        config.write_text('{"reward": {"lambda_compress": 1.5e308}}')
        result = runner.invoke(main, ["reward", str(bundle), "--config", str(config)])
        assert result.exit_code == 3, result.output
        assert result.stderr == "error: reward total is too large for a float\n"

    @pytest.mark.parametrize("past", [False, True], ids=["under", "past"])
    def test_a_total_at_the_float_bound(self, runner, tmp_path, past):
        # as above the total is 1 + 3/2 * lambda_compress: FLOAT_BOUND - 1/2 under the bound, which
        # rounds to the largest float, and FLOAT_BOUND + 1 past it
        bundle, config = tmp_path / "b.json", tmp_path / "c.json"
        bundle.write_text('{"table": {"header": ["a"], "rows": [["x"], ["y"]]}, "answers": ["x"], '
                          '"pipeline": [{"operation": "group_by", "column": "a"}]}')
        config.write_text('{"reward": {"lambda_compress": %d}}' % (2 * (FLOAT_BOUND - 1) // 3 + past))
        result = runner.invoke(main, ["reward", str(bundle), "--config", str(config)])
        if past:
            assert result.exit_code == 3, result.output
            assert result.stderr == "error: reward total is too large for a float\n"
        else:
            assert result.exit_code == 0, result.output
            assert json.loads(result.output)["total"] == 1.7976931348623157e308

    @pytest.mark.parametrize("answers", ["Paris", 5, [], None])
    def test_answers_must_be_a_non_empty_list(self, runner, tmp_path, answers):
        bundle = json.loads(Path(fx("reward_bundle.json")).read_text())
        bundle["answers"] = answers
        path = tmp_path / "b.json"
        path.write_text(json.dumps(bundle))
        result = runner.invoke(main, ["reward", str(path)])
        assert result.exit_code == 3, result.output
        assert "'answers' must be a non-empty list" in result.output

    @pytest.mark.parametrize("answers", [[["1"]], [None], [True], [{"v": "1"}]])
    def test_each_answer_must_be_a_string_or_a_number(self, runner, tmp_path, answers):
        bundle = json.loads(Path(fx("reward_bundle.json")).read_text())
        bundle["answers"] = answers
        path = tmp_path / "b.json"
        path.write_text(json.dumps(bundle))
        result = runner.invoke(main, ["reward", str(path)])
        assert result.exit_code == 3, result.output
        assert "each answer must be a string or a number" in result.output


@pytest.mark.parametrize("reward_doc", [
    {"matching": "fuzzy"}, {"compression_orientation": "bogus"}, {"l_cache": 0},
], ids=["matching", "orientation", "l_cache"])
@pytest.mark.parametrize("args", [
    ["run", "--dataset", fx("run_instances.jsonl")], ["reward", fx("reward_bundle.json")],
], ids=["run", "reward"])
def test_bad_reward_section_exit_2(runner, tmp_path, reward_doc, args):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"reward": reward_doc}))
    result = runner.invoke(main, [*args, "--config", str(bad)])
    assert result.exit_code == 2, result.output
    assert "bad config value" in result.output


class TestGate:
    def test_fixture_groups(self, runner):
        result = runner.invoke(main, ["gate", fx("gate_groups.jsonl")])
        assert result.exit_code == 0, result.output
        records = [json.loads(line) for line in result.output.splitlines()]
        by_id = {r["instance_id"]: r for r in records}
        g1 = by_id["g1"]
        assert g1["accepted"] and g1["attempts"] == 2
        assert g1["rejected_reasons"] == ["low_variance"]
        assert g1["rewards"] == [0.9, 0.1, 0.2]
        # (0.9 - 0.4) / (sqrt(19/150) + 1e-6)
        assert max(g1["advantages"]) == pytest.approx(1.40488, abs=0.001)
        g2 = by_id["g2"]
        assert not g2["accepted"]
        assert g2["rejected_reasons"] == ["low_variance"]
        assert g2["advantages"] is None

    def test_json_array_input(self, runner, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps([{"instance_id": "a", "rewards": [0.9, 0.1, 0.2]}]))
        result = runner.invoke(main, ["gate", str(path)])
        assert result.exit_code == 0
        assert json.loads(result.output.splitlines()[0])["accepted"]

    @pytest.mark.parametrize("gate_doc", [{}, {"variance_threshold": 0}])
    def test_group_of_one_reward_is_dataset_error(self, runner, tmp_path, gate_doc):
        groups = tmp_path / "g.jsonl"
        groups.write_text(json.dumps({"instance_id": "a", "rewards": [0.9]}) + "\n")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"gate": gate_doc}))
        result = runner.invoke(main, ["gate", str(groups), "--config", str(config)])
        assert result.exit_code == 3
        assert "instance a: group_size must be at least 2" in result.output

    def test_interleaved_groups_of_an_instance_are_its_attempts(self, runner, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text("".join(json.dumps(g) + "\n" for g in [
            {"instance_id": "a", "rewards": [0.5, 0.5, 0.5]},
            {"instance_id": "b", "rewards": [0.9, 0.1, 0.2]},
            {"instance_id": "a", "rewards": [0.9, 0.1, 0.2]},
        ]))
        result = runner.invoke(main, ["gate", str(path)])
        assert result.exit_code == 0, result.output
        records = [json.loads(line) for line in result.output.splitlines()]
        assert [(r["instance_id"], r["accepted"], r["attempts"], r["rejected_reasons"]) for r in records] == [
            ("a", True, 2, ["low_variance"]), ("b", True, 1, []),
        ]

    def test_rewards_and_thresholds_are_read_exactly(self, runner, tmp_path):
        groups = tmp_path / "g.jsonl"
        groups.write_text('{"instance_id": "spread", "rewards": [0.1, 0.10000000000000000001]}\n'
                          '{"instance_id": "short", "rewards": [0, 0.1]}\n')
        config = tmp_path / "c.json"
        config.write_text('{"gate": {"variance_threshold": 1e-42, "quality_threshold": 0.10000000000000000001}}')
        result = runner.invoke(main, ["gate", str(groups), "--config", str(config)])
        assert result.exit_code == 0, result.output
        records = [json.loads(line) for line in result.output.splitlines()]
        # a variance of 2.5e-41 clears 1e-42, and 0.1 is short of the threshold
        assert [(r["instance_id"], r["accepted"], r["rejected_reasons"]) for r in records] == [
            ("spread", True, []), ("short", False, ["low_quality"]),
        ]

    @pytest.mark.parametrize("groups, message", [
        ([1, 2], "group 0: each group needs 'instance_id' and 'rewards'"),
        ([{"instance_id": "a", "rewards": 5}], "instance a: 'rewards' must be a list"),
        ([{"instance_id": "a", "rewards": [0.9, "x"]}], "instance a: bad reward"),
        ([{"instance_id": "a", "rewards": [True, False, 0.5]}],
         "instance a: bad reward: expected a number, got True"),
        # refused before any conversion: Fraction("1e4000000") would build a 4,000,001-digit integer
        ([{"instance_id": "a", "rewards": ["1e4000000", "0"]}],
         "instance a: bad reward: expected a number, got '1e4000000'"),
    ])
    def test_malformed_group_is_dataset_error(self, runner, tmp_path, groups, message):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(groups))
        result = runner.invoke(main, ["gate", str(path)])
        assert result.exit_code == 3, result.output
        assert message in result.output

    def test_a_variance_too_large_for_a_float_gates(self, runner, tmp_path):
        # 1e200 fits a float but its group's variance does not; the std is exact, so the group gates
        path = tmp_path / "g.jsonl"
        path.write_text('{"instance_id": "a", "rewards": [1e200, 0, 3]}\n')
        result = runner.invoke(main, ["gate", str(path)])
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert record["accepted"] and record["rewards"] == [1e200, 0.0, 3.0]
        assert sum(record["advantages"]) == pytest.approx(0, abs=1e-12)

    @pytest.mark.parametrize("literal, fits", [
        (str(FLOAT_BOUND - 1), True), ("1.7976931348623158e308", True),
        (str(FLOAT_BOUND), False), ("1.797693134862315808e308", False),
    ], ids=["int_under", "decimal_under", "int_at", "decimal_past"])
    def test_a_reward_at_the_float_bound(self, runner, tmp_path, literal, fits):
        """A reward fits exactly when float() of it is finite: under the bound
        it rounds to the largest float, from the bound on it is refused."""
        path = tmp_path / "g.jsonl"
        path.write_text('{"instance_id": "a", "rewards": [0, %s]}\n' % literal)
        result = runner.invoke(main, ["gate", str(path)])
        if fits:
            assert result.exit_code == 0, result.output
            assert json.loads(result.output)["rewards"] == [0.0, 1.7976931348623157e308]
        else:
            assert result.exit_code == 3, result.output
            assert result.output == "error: instance a: reward 1 is too large for a float\n"

    @pytest.mark.parametrize("rewards", [
        "[1e400, 0]",
        # 10^400 and 10^400 + 1: the variance (1/4) passes the gate
        "[%d, %d]" % (10**400, 10**400 + 1),
        # a constant group, rejected for low variance, is refused all the same
        "[%d, %d]" % (10**400, 10**400),
    ])
    def test_a_reward_too_large_for_a_float_is_refused_naming_the_reward(self, runner, tmp_path, rewards):
        path = tmp_path / "g.jsonl"
        path.write_text('{"instance_id": "a", "rewards": %s}\n' % rewards)
        result = runner.invoke(main, ["gate", str(path)])
        assert result.exit_code == 3, result.output
        assert result.output == "error: instance a: reward 0 is too large for a float\n"


class TestFilterDataset:
    def test_fixture_keeps_25(self, runner, tmp_path):
        out = tmp_path / "kept.jsonl"
        stats_out = tmp_path / "stats.json"
        result = runner.invoke(
            main, ["filter-dataset", "--input", fx("filter_50.jsonl"), "--output", str(out),
                   "--stats-out", str(stats_out)],
        )
        assert result.exit_code == 0, result.output
        kept_ids = [json.loads(line)["id"] for line in out.read_text().splitlines()]
        assert kept_ids == [f"f{i:02d}" for i in range(1, 26)]
        stats = json.loads(stats_out.read_text())
        assert stats["kept"] == 25
        assert stats["total"] == 50
        assert len(stats["reasons"]) == 25
        assert all(r["reason"] for r in stats["reasons"])

    def test_line_with_a_huge_integer_is_recorded(self, runner, tmp_path):
        dataset, out, stats_out = tmp_path / "data.jsonl", tmp_path / "kept.jsonl", tmp_path / "stats.json"
        lines = Path(fx("filter_50.jsonl")).read_text().splitlines()
        lines.insert(1, HUGE_INTEGER_LINE)
        dataset.write_text("\n".join(lines) + "\n")
        result = runner.invoke(
            main, ["filter-dataset", "--input", str(dataset), "--output", str(out),
                   "--stats-out", str(stats_out)],
        )
        assert result.exit_code == 0, result.output
        stats = json.loads(stats_out.read_text())
        assert stats["total"] == 50 and stats["kept"] == 25
        (error,) = stats["line_errors"]
        assert error["line"] == 2 and "4300 digits" in error["error"]

    def test_max_tokens_option(self, runner, tmp_path):
        out = tmp_path / "kept.jsonl"
        result = runner.invoke(
            main, ["filter-dataset", "--input", fx("filter_50.jsonl"), "--output", str(out),
                   "--max-tokens", "5"],
        )
        assert result.exit_code == 0
        assert out.read_text() == ""  # everything over a 5-token budget

    @pytest.mark.parametrize("max_tokens", ["0", "-3"])
    def test_max_tokens_below_one_exits_2(self, runner, tmp_path, max_tokens):
        out = tmp_path / "kept.jsonl"
        result = runner.invoke(
            main, ["filter-dataset", "--input", fx("filter_50.jsonl"), "--output", str(out),
                   "--max-tokens", max_tokens],
        )
        assert result.exit_code == 2
        assert "--max-tokens" in result.output and not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--dataset", "DATA", "--config", fx("run_config.json"), "--out", "OUT"],
    ["filter-dataset", "--input", "DATA", "--output", "OUT"],
], ids=lambda argv: argv[0])
def test_a_dataset_with_no_readable_line_exits_3(runner, tmp_path, argv):
    """``run`` and ``filter-dataset`` refuse a dataset file whose every line is bad."""
    (tmp_path / "DATA").write_text("{not json\n5\n")
    result = runner.invoke(main, [str(tmp_path / a) if a in ("DATA", "OUT") else a for a in argv])
    assert result.exit_code == 3, result.output
    assert result.stderr == "error: dataset has no readable instances (2 bad lines)\n"
    assert not (tmp_path / "OUT").exists()


class _CountingSession:
    """Fake ``requests`` session counting posts; it has no server to reach."""

    def __init__(self):
        self.posts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts += 1
        raise ConnectionError("no server")


_CLOSE_PAIR = '{"header": ["name", "x"], "rows": [["a", 0.1], ["b", 0.10000000000000000001]]}'
_EXACT_FILTER = '[{"operation": "filter", "column": "x", "cmp": "==", "value": 0.10000000000000000001}]'


def test_a_filter_value_is_the_same_number_on_every_path(runner, tmp_path):
    """A model output, an ``exec --pipeline`` file and a reward bundle read the
    threshold as the same exact number, so each keeps the one row "b"."""
    table = load_json_table(CELL_DECODER.decode(_CLOSE_PAIR))
    assert [row[0] for row in execute(extract_pipeline_json(_EXACT_FILTER), table).final.rows] == ["b"]

    table_path, pipeline_path = tmp_path / "t.json", tmp_path / "p.json"
    table_path.write_text(_CLOSE_PAIR)
    pipeline_path.write_text(_EXACT_FILTER)
    result = runner.invoke(main, ["exec", "--table", str(table_path), "--pipeline", str(pipeline_path)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["rows"] == [["b", "0.10000000000000000001"]]

    for answer, r_acc in [("b", "1"), ("a", "0")]:
        bundle = tmp_path / "bundle.json"
        bundle.write_text('{"table": %s, "answers": ["%s"], "pipeline": %s}' % (_CLOSE_PAIR, answer, _EXACT_FILTER))
        result = runner.invoke(main, ["reward", str(bundle)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["exact"]["r_acc"] == r_acc


class TestMissingApiKey:
    """A client set to ``http`` whose ``api_key_env`` is unset stops the
    command with exit 2, naming the variable, before any request is sent."""

    @pytest.fixture
    def session(self, monkeypatch):
        monkeypatch.delenv("TP_UNSET_KEY", raising=False)
        session = _CountingSession()
        monkeypatch.setattr(config_mod, "HttpChatTransport", functools.partial(HttpChatTransport, session=session))
        return session

    @pytest.mark.parametrize("argv, section", [
        (["run", "--dataset", fx("run_instances.jsonl")], "generator"),
        (["run", "--dataset", fx("run_instances.jsonl")], "qa"),
        (["run", "--dataset", fx("run_instances.jsonl")], "semantic_executor"),
        (["exec", "--table", fx("table.csv"), "--pipeline", fx("pipeline.json")], "semantic_executor"),
    ], ids=["run-generator", "run-qa", "run-semantic_executor", "exec-semantic_executor"])
    def test_exits_2_naming_the_variable(self, runner, tmp_path, session, argv, section):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({section: {"mode": "http", "api_key_env": "TP_UNSET_KEY", "retries": 0}}))
        result = runner.invoke(main, [*argv, "--config", str(config)])
        assert result.exit_code == 2, result.output
        assert result.stderr == "error: API key environment variable 'TP_UNSET_KEY' is not set\n"
        assert session.posts == 0


class _BuggySession:
    """Fake ``requests`` session with a bug: every post raises TypeError."""

    def __init__(self):
        self.posts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts += 1
        raise TypeError("bug in the session")


def test_a_bug_in_the_generator_transport_ends_the_run(runner, tmp_path, monkeypatch):
    """A transport bug is not a failed request: ``run`` ends in the exception,
    with no report and no retry, so no slot posts twice."""
    session = _BuggySession()
    monkeypatch.setattr(config_mod, "HttpChatTransport", functools.partial(HttpChatTransport, session=session))
    config, out = tmp_path / "config.json", tmp_path / "report.json"
    config.write_text(json.dumps({"generator": {"mode": "http", "retries": 2}, "run": {"n": 3}}))
    result = runner.invoke(main, ["run", "--dataset", fx("run_instances.jsonl"), "--config", str(config), "--out", str(out)])
    assert isinstance(result.exception, TypeError) and str(result.exception) == "bug in the session"
    assert result.exit_code == 1 and not out.exists()
    instances = len(Path(fx("run_instances.jsonl")).read_text().splitlines())
    assert 1 <= session.posts <= 3 * instances


# Malformed input, one case per file a subcommand reads or writes. In each
# argv "BAD.json" or "BAD.csv" names the malformed file, written from the
# case's bytes (None: the file is missing, or for an output its directory
# is), and "OUT" a writable output path.
_MALFORMED_FILES = {
    "missing": None, "not_utf8": b"\xff{}", "not_json": b"{not json", "too_deep": DEEP_JSON.encode(),
}
_HUGE_PAIR = b'{"instance_id": "a", "rewards": [%d, %d]}' % (10**400, 10**400 + 1)


def _reads(argv, wrong_shape=None, code=3, kinds=tuple(_MALFORMED_FILES)):
    cases = [(argv, _MALFORMED_FILES[kind], code, kind) for kind in kinds]
    return cases if wrong_shape is None else [*cases, (argv, wrong_shape, code, "wrong_shape")]


def _config_cases(argv):
    return _reads([*argv, "--config", "BAD.json"], b"[]", code=2)


_MALFORMED = [
    *_reads(["run", "--dataset", "BAD.json", "--config", fx("run_config.json")], b"5\n"),
    *_config_cases(["run", "--dataset", fx("run_instances.jsonl")]),
    (["run", "--dataset", fx("run_instances.jsonl"), "--config", fx("run_config.json"),
      "--out", "BAD.json"], None, 3, "unwritable"),
    *_reads(["exec", "--table", "BAD.json", "--pipeline", fx("pipeline.json")], b"5"),
    (["exec", "--table", "BAD.json", "--pipeline", fx("pipeline.json")],
     b'{"header": ["a"], "rows": [[1e999999999]]}', 3, "number_over_4300_digits"),
    *_reads(["exec", "--table", "BAD.csv", "--pipeline", fx("pipeline.json")], b" \n",
            kinds=("missing", "not_utf8")),
    *_reads(["exec", "--table", fx("table.csv"), "--pipeline", "BAD.json"], b"5"),
    *_config_cases(["exec", "--table", fx("table.csv"), "--pipeline", fx("pipeline.json")]),
    (["exec", "--table", fx("table.csv"), "--pipeline", fx("pipeline.json"), "--trace", "BAD.json"],
     None, 3, "unwritable"),
    (["exec", "--table", fx("table.csv"), "--pipeline", fx("pipeline.json"), "--out", "BAD.json"],
     None, 3, "unwritable"),
    *_reads(["merge", "BAD.json"], b"{}"),
    (["merge", fx("merge_candidates.json"), "--out", "BAD.json"], None, 3, "unwritable"),
    *_reads(["reward", "BAD.json"], b"5"),
    (["reward", "BAD.json"], json.dumps({**json.loads(Path(fx("reward_bundle.json")).read_text()),
                                         "answers": ["x"]}).replace('["x"]', "[1e-99999]").encode(),
     3, "number_over_4300_digits"),
    (["reward", "BAD.json"], b'["table", "answers", "pipeline"]', 3, "list_bundle"),
    (["reward", "BAD.json"], json.dumps({**json.loads(Path(fx("reward_bundle.json")).read_text()),
                                         "output_text": 5}).encode(), 3, "output_text"),
    *_config_cases(["reward", fx("reward_bundle.json")]),
    (["reward", fx("reward_bundle.json"), "--out", "BAD.json"], None, 3, "unwritable"),
    *_reads(["gate", "BAD.json"], b"5"),
    (["gate", "BAD.json"], _HUGE_PAIR, 3, "reward_over_float"),
    *_config_cases(["gate", fx("gate_groups.jsonl")]),
    (["gate", fx("gate_groups.jsonl"), "--out", "BAD.json"], None, 3, "unwritable"),
    # a line that is not an instance is recorded in the stats, not fatal while another line is readable
    *_reads(["filter-dataset", "--input", "BAD.json", "--output", "OUT"], kinds=("missing", "not_utf8")),
    (["filter-dataset", "--input", fx("filter_50.jsonl"), "--output", "BAD.json"], None, 3, "unwritable"),
    (["filter-dataset", "--input", fx("filter_50.jsonl"), "--output", "OUT",
      "--stats-out", "BAD.json"], None, 3, "unwritable"),
]


def _case_id(case):
    argv, _, _, kind = case
    (slot,) = [(argv[i - 1][2:] if argv[i - 1].startswith("--") else "input") + arg[3:].replace(".json", "")
               for i, arg in enumerate(argv) if arg.startswith("BAD")]
    return f"{argv[0]}-{slot}-{kind}"


@pytest.mark.parametrize("argv, content, code, kind", _MALFORMED, ids=map(_case_id, _MALFORMED))
def test_malformed_input_exits_without_traceback(runner, tmp_path, argv, content, code, kind):
    folder = tmp_path if content is not None else tmp_path / "absent"
    args = [str(folder / a) if a.startswith("BAD") else str(tmp_path / a) if a == "OUT" else a
            for a in argv]
    if content is not None:
        (name,) = [a for a in argv if a.startswith("BAD")]
        (folder / name).write_bytes(content)
    result = runner.invoke(main, args)
    assert isinstance(result.exception, SystemExit), result.exc_info
    assert result.exit_code == code, result.output
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: "), result.stderr


def test_deeply_nested_qa_script_exits_2(runner, tmp_path):
    (tmp_path / "deep.json").write_text(DEEP_JSON)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"qa": {"mode": "cell_lookup", "script": "deep.json"}}))
    result = runner.invoke(main, ["run", "--dataset", fx("run_instances.jsonl"), "--config", str(config)])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: cannot load QA script from 'deep.json': maximum recursion depth")


def test_cli_has_one_error_boundary():
    """``_Main.invoke`` is the only code in cli.py that exits or prints to
    stderr, and no other handler there can catch a ConfigError, so every
    config error reaches the boundary and exits 2."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (boundary,) = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == "_Main"]
    (invoke,) = [item for item in boundary.body if isinstance(item, ast.FunctionDef) and item.name == "invoke"]
    inside = {id(node) for node in ast.walk(invoke)}
    exits, to_stderr, caught = [], [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name in ("exit", "SystemExit") or name.endswith(".exit"):
                exits.append(id(node) in inside)
            if any(kw.arg == "err" for kw in node.keywords):
                to_stderr.append(id(node) in inside)
        if isinstance(node, ast.Raise) and node.exc is not None and "SystemExit" in ast.unparse(node.exc):
            exits.append(id(node) in inside)
        if isinstance(node, ast.ExceptHandler) and id(node) not in inside:
            assert node.type is not None, f"bare except at line {node.lineno}"
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught += [eval(ast.unparse(t), vars(cli)) for t in types]
    assert exits == [True] and to_stderr == [True]
    assert caught and not [t for t in caught if issubclass(ConfigError, t)]
