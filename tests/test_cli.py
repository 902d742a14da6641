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
        assert "must be at least 1" in result.output

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
