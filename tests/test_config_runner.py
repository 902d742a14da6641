import json
import os
import threading
from dataclasses import replace

import pytest

from tableprep import config as config_mod
from tableprep import runner
from tableprep.config import (
    AppConfig,
    GeneratorFactory,
    build_qa_client,
    build_semantic_executor,
    client_config,
    generation_config,
    load_config,
)
from tableprep.data import instance_from_json, load_instances_jsonl
from tableprep.errors import ConfigError, DatasetError, TablePrepError
from tableprep.llm import GenerationConfig
from tableprep.rollback import CellLookupQaClient, ScriptedQaClient
from tableprep.runner import compute_aggregates, dump_report, load_run_report, run_dataset
from tableprep.semantic import MockSemanticExecutor

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


class TestLoadConfig:
    def test_fixture_config(self):
        config = load_config(fx("run_config.json"))
        assert config.run.n == 3
        assert config.gate.max_resample_attempts == 4
        assert config.reward.l_max == 2560
        assert config.base_dir == FIXTURES

    def test_empty_object_uses_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        config = load_config(str(path))
        assert config.run.n == 5
        assert float(config.gate.variance_threshold) == 0.1
        assert float(config.gate.quality_threshold) == 0.5
        assert config.reward.l_max == 2560 and config.reward.l_cache == 512

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("nope")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bad_eval_matching(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"run": {"eval_matching": "fuzzy"}}))
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("cap", [0, -1, True, "2", 1.5])
    def test_bad_request_cap(self, tmp_path, cap):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"run": {"request_cap": cap}}))
        with pytest.raises(ConfigError, match="request_cap"):
            load_config(str(path))

    @pytest.mark.parametrize("doc, message", [
        ({"run": {"n": 0}}, "run.n must be at least 1"),
        ({"run": {"n": -1}}, "run.n must be at least 1"),
        ({"run": {"parallelism": 0}}, "run.parallelism must be at least 1"),
        ({"run": {"parallelism": -1}}, "run.parallelism must be at least 1"),
        ({"generator": {"timeout": 0}}, "timeout must be positive"),
        ({"generator": {"retries": "x"}}, "'x'"),
        ({"generator": ["mock"]}, "bad config value"),
        ({"run": [3]}, "bad config value"),
    ])
    def test_bad_run_or_generator_values(self, tmp_path, doc, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=message):
            load_config(str(path))

    @pytest.mark.parametrize("cap", [None, 1, 8])
    def test_good_request_cap(self, tmp_path, cap):
        path = tmp_path / "c.json"
        # unknown keys such as the retired run.seed are ignored
        path.write_text(json.dumps({"run": {"request_cap": cap, "seed": 7}}))
        assert load_config(str(path)).run.request_cap == cap


class TestFactories:
    def test_mock_generator_keyed_by_id(self):
        config = load_config(fx("run_config.json"))
        factory = GeneratorFactory(config)
        transport = factory.transport_for("i20", "whatever")
        assert transport.texts == ["[]", "[]", "[]"]

    def test_mock_generator_default_texts(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"generator": {"mode": "mock", "default_texts": ["[]"]}}))
        factory = GeneratorFactory(load_config(str(path)))
        assert factory.transport_for("anything", "q").texts == ["[]"]

    def test_unknown_generator_mode(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"generator": {"mode": "telepathy"}}))
        with pytest.raises(ConfigError):
            GeneratorFactory(load_config(str(path)))

    def test_qa_cell_lookup_from_script(self):
        config = load_config(fx("run_config.json"))
        qa = build_qa_client(config)
        assert isinstance(qa, CellLookupQaClient)
        assert "Which researcher is based in Europe?" in qa.expected

    def test_qa_scripted_mode(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "qa": {"mode": "scripted", "responses": {"q": {"digest1": "a1"}}, "default": "nope"}
        }))
        qa = build_qa_client(load_config(str(path)))
        assert isinstance(qa, ScriptedQaClient)
        assert qa.responses == {("q", "digest1"): "a1"}
        assert qa.default == "nope"

    def test_semantic_modes(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"semantic_executor": {"mode": "none"}}))
        assert build_semantic_executor(load_config(str(path))) is None

        config = load_config(fx("run_config.json"))
        executor = build_semantic_executor(config)
        assert isinstance(executor, MockSemanticExecutor)

    def test_http_generator_shares_one_plain_transport(self, tmp_path, monkeypatch):
        made = []
        monkeypatch.setattr(config_mod, "HttpChatTransport", lambda **kw: made.append(kw) or object())
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"generator": {"mode": "http"}, "run": {"request_cap": 3}}))
        factory = GeneratorFactory(load_config(str(path)))
        assert made == [{}]
        assert factory.transport_for("a", "q") is factory.transport_for("b", "q")

    def test_client_sections_share_one_builder(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "qa": {"mode": "http", "retries": 5, "timeout": 9, "prompt_max_rows": 4},
            "semantic_executor": {"mode": "http", "retries": 0, "model": "m"},
        }))
        config = load_config(str(path))
        qa_cfg = build_qa_client(config)._config
        sem_cfg = build_semantic_executor(config)._config
        assert (qa_cfg.retries, qa_cfg.timeout, qa_cfg.prompt_max_rows) == (5, 9.0, 4)
        assert (qa_cfg.temperature, qa_cfg.max_tokens, qa_cfg.n) == (0.0, 256, 1)
        assert (sem_cfg.retries, sem_cfg.model, sem_cfg.max_tokens, sem_cfg.n) == (0, "m", 1024, 1)
        assert client_config({}, 0.8, 1024, n=3) == GenerationConfig(n=3)

    def test_generation_config_inherits_run_n(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"run": {"n": 7}}))
        assert generation_config(load_config(str(path))).n == 7

    def test_generator_n_is_not_read(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"generator": {"mode": "mock", "n": 2}, "run": {"n": 7}}))
        assert generation_config(load_config(str(path))).n == 7


class TestDataModule:
    def test_load_fixture(self):
        instances, errors = load_instances_jsonl(fx("run_instances.jsonl"))
        assert len(instances) == 20 and errors == []
        assert instances[0].id == "i01"
        assert instances[0].answers is not None

    def test_duplicate_ids_flagged(self, tmp_path):
        line = json.dumps(
            {"id": "x", "question": "q", "table": {"header": ["a"], "rows": []}}
        )
        path = tmp_path / "d.jsonl"
        path.write_text(line + "\n" + line + "\n")
        instances, errors = load_instances_jsonl(str(path))
        assert len(instances) == 1
        assert "duplicate" in errors[0]["error"]

    def test_instance_round_trip(self):
        doc = {
            "id": "a",
            "question": "q",
            "table": {"header": ["c"], "rows": [["v"]]},
            "answers": ["v"],
        }
        assert instance_from_json(doc).to_json() == doc

    def test_bad_instances(self):
        with pytest.raises(DatasetError):
            instance_from_json({"id": "a", "question": "q"})
        with pytest.raises(DatasetError):
            instance_from_json({"id": "a", "question": "q", "table": {"header": ["a"]}})
        with pytest.raises(DatasetError):
            instance_from_json(
                {"id": "a", "question": "q", "table": {"header": ["c"], "rows": []}, "answers": []}
            )


class TestRunner:
    def test_parallelism_order_independent(self):
        config = load_config(fx("run_config.json"))
        instances, _ = load_instances_jsonl(fx("run_instances.jsonl"))
        serial = dump_report(run_dataset(instances, config))

        config.run = replace(config.run, parallelism=4)
        parallel = dump_report(run_dataset(instances, config))
        assert serial == parallel

    def test_one_instance_pool_and_one_request_pool(self, monkeypatch):
        config = load_config(fx("run_config.json"))
        config.run = replace(config.run, parallelism=2)
        instances, _ = load_instances_jsonl(fx("run_instances.jsonl"))
        assert (len(instances), config.run.n) == (20, 3)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
        run_dataset(instances, config)
        assert len(started) <= 2 + 2 * 3

    def test_request_cap_bounds_mock_requests_in_flight(self, monkeypatch):
        probe = _InFlightProbe(together=3)
        inner_factory = runner.GeneratorFactory

        class Factory:
            def __init__(self, config):
                self._inner = inner_factory(config)

            def transport_for(self, instance_id, question):
                return probe.wrap(self._inner.transport_for(instance_id, question))

        monkeypatch.setattr(runner, "GeneratorFactory", Factory)
        config = load_config(fx("run_config.json"))
        instances, _ = load_instances_jsonl(fx("run_instances.jsonl"))
        uncapped = dump_report(run_dataset(instances[:6], config))
        assert probe.peak == 3
        probe.peak = 0
        config.run = replace(config.run, parallelism=4, request_cap=2)
        assert dump_report(run_dataset(instances[:6], config)) == uncapped
        assert probe.peak == 2

    def test_aggregates_self_consistency(self, tmp_path):
        config = load_config(fx("run_config.json"))
        instances, _ = load_instances_jsonl(fx("run_instances.jsonl"))
        report = run_dataset(instances, config)
        path = tmp_path / "r.json"
        path.write_text(dump_report(report))
        doc = load_run_report(str(path), verify=True)
        assert doc["aggregates"]["instances"] == 20

    def test_tampered_aggregates_detected(self, tmp_path):
        config = load_config(fx("run_config.json"))
        instances, _ = load_instances_jsonl(fx("run_instances.jsonl"))
        doc = run_dataset(instances, config).to_json()
        doc["aggregates"]["accuracy"] = 0.123
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TablePrepError):
            load_run_report(str(path), verify=True)

    def test_compute_aggregates_empty(self):
        agg = compute_aggregates([])
        assert agg["instances"] == 0
        assert agg["accuracy"] is None

    def test_log_llm_writes_jsonl(self, tmp_path):
        config = load_config(fx("run_config.json"))
        instances, _ = load_instances_jsonl(fx("run_instances.jsonl"))
        log_path = tmp_path / "llm.jsonl"
        run_dataset(instances[:2], config, log_llm_path=str(log_path))
        lines = [json.loads(l) for l in log_path.read_text().splitlines()]
        assert len(lines) == 6  # 2 instances x 3 candidates
        assert all("messages" in l and "response" in l for l in lines)


class _InFlightProbe:
    """Records the peak number of generator calls in flight at once.

    Each call holds until ``together`` calls have been in flight at once, or
    ``hold_s`` has passed, so an unthrottled run reliably reaches that peak.
    """

    def __init__(self, together: int, hold_s: float = 0.05):
        self.together = together
        self.hold_s = hold_s
        self.in_flight = 0
        self.peak = 0
        self._cond = threading.Condition()

    def wrap(self, inner):
        probe = self

        class Transport:
            def complete(self, messages, config, index=0):
                with probe._cond:
                    probe.in_flight += 1
                    probe.peak = max(probe.peak, probe.in_flight)
                    probe._cond.notify_all()
                    probe._cond.wait_for(lambda: probe.peak >= probe.together, timeout=probe.hold_s)
                    probe.in_flight -= 1
                return inner.complete(messages, config, index)

        return Transport()


def test_default_appconfig_is_usable():
    config = AppConfig()
    factory = GeneratorFactory(config)
    assert factory.transport_for("any", "q").texts == ["[]"]
    assert build_qa_client(config).expected == {}
    assert build_semantic_executor(config) is None
