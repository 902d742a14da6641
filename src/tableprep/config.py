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
        for name in ("generator", "qa", "semantic_executor", "reward", "gate", "run"):
            if not isinstance(doc.get(name, {}), dict):
                raise ValueError(f"{name} must be a JSON object, got {doc[name]!r}")
        run_doc = doc.get("run", {})
        run = RunSection(
            n=run_doc.get("n", 5),
            parallelism=run_doc.get("parallelism", 1),
            eval_matching=str(run_doc.get("eval_matching", "normalized")),
            request_cap=run_doc.get("request_cap"),
        )
        for key in ("n", "parallelism"):
            value = getattr(run, key)
            if type(value) is not int:
                raise ConfigError(f"run.{key} must be an integer, got {value!r}")
            if value < 1:
                raise ConfigError(f"run.{key} must be at least 1, got {value}")
        config = AppConfig(
            generator=doc.get("generator", {"mode": "mock", "default_texts": ["[]"]}),
            qa=doc.get("qa", {"mode": "cell_lookup", "expected": {}}),
            semantic_executor=doc.get("semantic_executor", {"mode": "none"}),
            reward=RewardConfig.from_json(doc.get("reward", {})),
            gate=GateConfig.from_json(doc.get("gate", {})),
            run=run,
            base_dir=os.path.dirname(os.path.abspath(path)),
        )
        # check every section's client keys now, not when its client is built
        generation_config(config)
        qa_client_config(config)
        semantic_client_config(config)
    except (TypeError, ValueError, KeyError, AttributeError, OverflowError) as err:
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


def _all_str(items) -> bool:
    return all(isinstance(item, str) for item in items)


def _is_texts(value) -> bool:
    return isinstance(value, list) and bool(value) and _all_str(value)


def _check_map(doc, what: str, value_ok, shape: str) -> dict:
    """``doc`` itself if it is a JSON object whose every value passes ``value_ok``."""
    if not isinstance(doc, dict) or not all(map(value_ok, doc.values())):
        raise ConfigError(f"{what} must be a JSON object mapping each key to {shape}")
    return doc


def _setting(section: dict, key: str, default, ok, expected: str):
    """``section[key]``, or ``default`` when the key is absent, if ``ok``
    accepts it."""
    value = section.get(key, default)
    if not ok(value):
        raise ValueError(f"{key} must be {expected}, got {value!r}")
    return value


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_number(value) -> bool:
    return type(value) in (int, float)  # a JSON number; bool is not one


def _at_least(low: int):
    return lambda value: type(value) is int and value >= low


def _or_null(ok):
    return lambda value: value is None or ok(value)


def client_config(section: dict, temperature: float, max_tokens: int) -> GenerationConfig:
    """Chat-client settings from one config section (generator, qa or
    semantic_executor); ``temperature`` and ``max_tokens`` are that client's
    defaults, the other keys share theirs."""
    return GenerationConfig(
        endpoint=_setting(section, "endpoint", GenerationConfig.endpoint, _is_str, "a string"),
        model=_setting(section, "model", GenerationConfig.model, _is_str, "a string"),
        temperature=float(_setting(section, "temperature", temperature, _is_number, "a number")),
        max_tokens=_setting(section, "max_tokens", max_tokens, _at_least(1), "an integer >= 1"),
        timeout=float(_setting(section, "timeout", GenerationConfig.timeout, _is_number, "a number")),
        retries=_setting(section, "retries", GenerationConfig.retries, _at_least(0), "an integer >= 0"),
        api_key_env=_setting(section, "api_key_env", None, _or_null(_is_str), "a string or null"),
        prompt_max_rows=_setting(section, "prompt_max_rows", None, _or_null(_at_least(0)),
                                 "an integer >= 0 or null"),
    )


def generation_config(config: AppConfig) -> GenerationConfig:
    return client_config(config.generator, 0.8, 1024)


def qa_client_config(config: AppConfig) -> GenerationConfig:
    return client_config(config.qa, 0.0, 256)


def semantic_client_config(config: AppConfig) -> GenerationConfig:
    return client_config(config.semantic_executor, 0.0, 1024)


class GeneratorFactory:
    """Yields the chat transport to use for each instance.

    HTTP mode shares one transport; mock mode builds a per-instance scripted
    transport from a script file keyed by instance id.
    """

    def __init__(self, config: AppConfig):
        gen = config.generator
        self.mode = gen.get("mode", "mock")
        if self.mode == "http":
            self._shared = HttpChatTransport()
        elif self.mode == "mock":
            self._scripts = {}
            if "script" in gen:
                scripts = _load_json_file(config, gen["script"], "generator script")
                self._scripts = _check_map(scripts, "generator script", _is_texts,
                                           "a non-empty list of strings")
            self._default_texts = gen.get("default_texts", ["[]"])
            if not _is_texts(self._default_texts):
                raise ConfigError("generator.default_texts must be a non-empty list of strings")
        else:
            raise ConfigError(f"unknown generator mode {self.mode!r}")

    def transport_for(self, instance_id: str, question: str):
        if self.mode == "http":
            return self._shared
        return ScriptedTransport(self._scripts.get(instance_id, self._default_texts))


def build_qa_client(config: AppConfig):
    qa = config.qa
    mode = qa.get("mode", "cell_lookup")
    if mode == "http":
        return HttpQaClient(HttpChatTransport(), qa_client_config(config))
    if mode == "cell_lookup":
        expected = qa.get("expected", {})
        if "script" in qa:
            expected = _load_json_file(config, qa["script"], "QA script")
        _check_map(expected, "qa expected answers", lambda v: isinstance(v, list) and _all_str(v),
                   "a list of answer strings")
        return CellLookupQaClient(expected)
    if mode == "scripted":
        raw = qa.get("responses", {})
        if "script" in qa:
            raw = _load_json_file(config, qa["script"], "QA script")
        _check_map(raw, "qa responses", lambda v: isinstance(v, dict) and _all_str(v.values()),
                   "an object of {table digest: response string}")
        default = qa.get("default", "No data available")
        if not isinstance(default, str):
            raise ConfigError(f"qa.default must be a string, got {default!r}")
        responses = {}
        for question, by_digest in raw.items():
            for digest, response in by_digest.items():
                responses[(question, digest)] = response
        return ScriptedQaClient(responses, default)
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
        _check_map(rules, "semantic_executor rules", lambda v: isinstance(v, dict),
                   "an object of {input: output}")
        return MockSemanticExecutor.from_json(rules)
    if mode == "http":
        return LlmSemanticExecutor(HttpChatTransport(), semantic_client_config(config))
    raise ConfigError(f"unknown semantic executor mode {mode!r}")
