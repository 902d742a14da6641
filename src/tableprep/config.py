"""Run configuration: one JSON file wiring clients, mocks, and hyperparameters.

Example::

    {
      "generator": {"mode": "mock", "script": "generator_script.json",
                    "default_texts": ["[]"]},
      "qa": {"mode": "cell_lookup", "script": "qa_script.json"},
      "semantic_executor": {"mode": "mock", "rules": "semantic_rules.json"},
      "reward": {"lambda_compress": 0.5, "lambda_length": 0.5,
                 "l_max": 2560, "l_cache": 512,
                 "compression_orientation": "as_written", "matching": "exact"},
      "gate": {"variance_threshold": 0.1, "quality_threshold": 0.5,
               "advantage_epsilon": 1e-6, "max_resample_attempts": 4},
      "run": {"n": 3, "parallelism": 1, "eval_matching": "normalized",
              "request_cap": null}
    }

Relative paths resolve against the config file's directory. Every training
hyperparameter has a default, so an empty JSON object is a valid config for
mock-free computations.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .gate import GateConfig
from .llm import GenerationConfig, HttpChatTransport, ScriptedTransport
from .reward import RewardConfig
from .rollback import CellLookupQaClient, HttpQaClient, ScriptedQaClient
from .semantic import LlmSemanticExecutor, MockSemanticExecutor


@dataclass(frozen=True)
class RunSection:
    n: int = 5
    parallelism: int = 1
    eval_matching: str = "normalized"
    request_cap: int | None = None


@dataclass
class AppConfig:
    generator: dict = field(default_factory=lambda: {"mode": "mock", "default_texts": ["[]"]})
    qa: dict = field(default_factory=lambda: {"mode": "cell_lookup", "expected": {}})
    semantic_executor: dict = field(default_factory=lambda: {"mode": "none"})
    reward: RewardConfig = field(default_factory=RewardConfig)
    gate: GateConfig = field(default_factory=GateConfig)
    run: RunSection = field(default_factory=RunSection)
    base_dir: str = "."

    def resolve(self, path: str) -> str:
        return path if os.path.isabs(path) else os.path.join(self.base_dir, path)


def load_config(path: str) -> AppConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    try:
        run_doc = doc.get("run", {})
        run = RunSection(
            n=int(run_doc.get("n", 5)),
            parallelism=int(run_doc.get("parallelism", 1)),
            eval_matching=str(run_doc.get("eval_matching", "normalized")),
            request_cap=run_doc.get("request_cap"),
        )
        for key in ("n", "parallelism"):
            if getattr(run, key) < 1:
                raise ConfigError(f"run.{key} must be at least 1, got {getattr(run, key)}")
        config = AppConfig(
            generator=doc.get("generator", {"mode": "mock", "default_texts": ["[]"]}),
            qa=doc.get("qa", {"mode": "cell_lookup", "expected": {}}),
            semantic_executor=doc.get("semantic_executor", {"mode": "none"}),
            reward=RewardConfig.from_json(doc.get("reward", {})),
            gate=GateConfig.from_json(doc.get("gate", {})),
            run=run,
            base_dir=os.path.dirname(os.path.abspath(path)),
        )
        generation_config(config)  # checks the generator's client keys
    except (TypeError, ValueError, KeyError, AttributeError) as err:
        raise ConfigError(f"bad config value: {err}") from err
    if run.eval_matching not in ("exact", "normalized"):
        raise ConfigError(f"run.eval_matching must be 'exact' or 'normalized', got {run.eval_matching!r}")
    cap = run.request_cap
    if cap is not None and (type(cap) is not int or cap < 1):
        raise ConfigError(f"run.request_cap must be a positive integer or null, got {cap!r}")
    return config


def _load_json_file(config: AppConfig, path: str, what: str):
    try:
        with open(config.resolve(path), encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot load {what} from {path!r}: {err}") from err


def client_config(section: dict, temperature: float, max_tokens: int, n: int = 1) -> GenerationConfig:
    """Chat-client settings from one config section (generator, qa or
    semantic_executor); ``temperature`` and ``max_tokens`` are that client's
    defaults, the other keys share theirs."""
    return GenerationConfig(
        endpoint=section.get("endpoint", "http://localhost:8000/v1/chat/completions"),
        model=section.get("model", ""),
        temperature=float(section.get("temperature", temperature)),
        max_tokens=int(section.get("max_tokens", max_tokens)),
        n=n,
        timeout=float(section.get("timeout", 60.0)),
        retries=int(section.get("retries", 2)),
        api_key_env=section.get("api_key_env"),
        prompt_max_rows=section.get("prompt_max_rows"),
    )


def generation_config(config: AppConfig) -> GenerationConfig:
    return client_config(config.generator, 0.8, 1024, config.run.n)


class GeneratorFactory:
    """Yields the chat transport to use for each instance.

    HTTP mode shares one transport; mock mode builds a per-instance scripted
    transport from a script file keyed by instance id (or question).
    """

    def __init__(self, config: AppConfig):
        gen = config.generator
        self.mode = gen.get("mode", "mock")
        if self.mode == "http":
            self._shared = HttpChatTransport()
        elif self.mode == "mock":
            self._scripts = {}
            if "script" in gen:
                self._scripts = _load_json_file(config, gen["script"], "generator script")
                if not isinstance(self._scripts, dict):
                    raise ConfigError("generator script must be a JSON object")
            self._default_texts = gen.get("default_texts", ["[]"])
            self._key_field = gen.get("key", "id")
        else:
            raise ConfigError(f"unknown generator mode {self.mode!r}")

    def transport_for(self, instance_id: str, question: str):
        if self.mode == "http":
            return self._shared
        key = instance_id if self._key_field == "id" else question
        texts = self._scripts.get(key, self._default_texts)
        if not isinstance(texts, list) or not texts:
            raise ConfigError(f"generator script entry for {key!r} must be a non-empty list")
        return ScriptedTransport(texts)


def build_qa_client(config: AppConfig):
    qa = config.qa
    mode = qa.get("mode", "cell_lookup")
    if mode == "http":
        return HttpQaClient(HttpChatTransport(), client_config(qa, 0.0, 256))
    if mode == "cell_lookup":
        expected = qa.get("expected", {})
        if "script" in qa:
            expected = _load_json_file(config, qa["script"], "QA script")
        return CellLookupQaClient(expected)
    if mode == "scripted":
        raw = qa.get("responses", {})
        if "script" in qa:
            raw = _load_json_file(config, qa["script"], "QA script")
        responses = {}
        for question, by_digest in raw.items():
            for digest, response in by_digest.items():
                responses[(question, digest)] = response
        return ScriptedQaClient(responses, qa.get("default", "No data available"))
    raise ConfigError(f"unknown qa mode {mode!r}")


def build_semantic_executor(config: AppConfig):
    sem = config.semantic_executor
    mode = sem.get("mode", "none")
    if mode == "none":
        return None
    if mode == "mock":
        rules = sem.get("rules", {})
        if isinstance(rules, str):
            rules = _load_json_file(config, rules, "semantic rules")
        return MockSemanticExecutor.from_json(rules)
    if mode == "http":
        return LlmSemanticExecutor(HttpChatTransport(), client_config(sem, 0.0, 1024))
    raise ConfigError(f"unknown semantic executor mode {mode!r}")
