import json
import os

import pytest
from click.testing import CliRunner

from tableprep.cli import main
from tableprep.runner import load_run_report

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


@pytest.fixture
def runner():
    return CliRunner()


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
        ({"qa": {"mode": "scripted", "responses": {"q": "x"}}}, "qa responses"),
        ({"qa": {"mode": "scripted", "default": 5}}, "qa.default"),
        ({"qa": {"mode": "cell_lookup", "expected": {"q": "x"}}}, "qa expected answers"),
        ({"generator": {"mode": "mock", "default_texts": "[]"}}, "generator.default_texts"),
        ({"generator": {"mode": "mock", "script": 5}}, "generator.script must be a string path, got 5"),
        ({"qa": {"mode": "cell_lookup", "script": ["a"]}}, "qa.script must be a string path, got ['a']"),
    ], ids=["semantic_rules", "qa_responses", "qa_default", "qa_expected", "default_texts",
            "generator_script", "qa_script"])
    def test_malformed_mock_section_exit_2(self, runner, tmp_path, doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["run", "--dataset", fx("run_instances.jsonl"), "--config", str(bad)]
        )
        assert result.exit_code == 2
        assert message in result.output

    def test_non_finite_threshold_is_a_candidate_error(self, runner, tmp_path):
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(open(fx("run_instances.jsonl")).readline())
        nan_filter = '[{"operation": "filter", "column": "Score", "cmp": ">", "value": NaN}]'
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"i01": [nan_filter, '[{"operation": "select", "columns": ["Country"]}]']}))
        config = json.load(open(fx("run_config.json")))
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

    def test_malformed_line_recorded_run_continues(self, runner, tmp_path):
        dataset = tmp_path / "data.jsonl"
        lines = open(fx("run_instances.jsonl")).read().splitlines()[:3]
        lines.insert(1, "{broken json")
        dataset.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["run", "--dataset", str(dataset), "--config", fx("run_config.json"),
                   "--out", str(out)],
        )
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert len(doc["records"]) == 3
        assert any("line" in e for e in doc["errors"])

    def test_unlabeled_dataset_omits_accuracy(self, runner, tmp_path):
        dataset = tmp_path / "data.jsonl"
        docs = [json.loads(l) for l in open(fx("run_instances.jsonl")).read().splitlines()[:2]]
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

    def test_json_table_input(self, runner, tmp_path):
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"header": ["a"], "rows": [["1"]]}))
        pipeline = tmp_path / "p.json"
        pipeline.write_text("[]")
        result = runner.invoke(main, ["exec", "--table", str(table), "--pipeline", str(pipeline)])
        assert result.exit_code == 0
        assert json.loads(result.output)["rows"] == [["1"]]


class TestMerge:
    def test_fixture_consensus(self, runner):
        result = runner.invoke(main, ["merge", fx("merge_candidates.json")])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc == [
            {"operation": "filter", "column": "A", "cmp": "==", "value": "x"},
            {"operation": "sort_by", "column": "B", "order": "desc"},
        ]

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
        assert result.exit_code == 3


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

    def test_missing_field(self, runner, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"table": {"header": ["a"], "rows": []}}))
        result = runner.invoke(main, ["reward", str(path)])
        assert result.exit_code == 3


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

    @pytest.mark.parametrize("groups, message", [
        ([1, 2], "group 0: each group needs 'instance_id' and 'rewards'"),
        ([{"instance_id": "a", "rewards": 5}], "instance a: 'rewards' must be a list"),
        ([{"instance_id": "a", "rewards": [0.9, "x"]}], "instance a: bad reward"),
    ])
    def test_malformed_group_is_dataset_error(self, runner, tmp_path, groups, message):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(groups))
        result = runner.invoke(main, ["gate", str(path)])
        assert result.exit_code == 3, result.output
        assert message in result.output


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

    def test_max_tokens_option(self, runner, tmp_path):
        out = tmp_path / "kept.jsonl"
        result = runner.invoke(
            main, ["filter-dataset", "--input", fx("filter_50.jsonl"), "--output", str(out),
                   "--max-tokens", "5"],
        )
        assert result.exit_code == 0
        assert out.read_text() == ""  # everything over a 5-token budget
