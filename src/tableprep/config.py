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

Each mock's data key (``generator.script``, ``qa.script``,
``semantic_executor.rules``) takes either a path to a JSON file or the JSON
object itself, read by ``_mock_data``; relative paths resolve against the
config file's directory. Every training hyperparameter has a default, so an
empty JSON object is a valid config for mock-free computations. This module
alone knows the format: the run, reward and gate sections and the client keys
are read field by field through ``_READERS``, and a bad value raises
``ConfigError`` as ``bad config value: <section>.<key> must be <expected>,
got <value>``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from decimal import Decimal

from .errors import ConfigError
from .gate import GateConfig, as_fraction
from .llm import GenerationConfig, HttpChatTransport, ScriptedTransport
from .reward import EXACT, NORMALIZED, RewardConfig
from .rollback import CellLookupQaClient, HttpQaClient
from .semantic import LlmSemanticExecutor, MockSemanticExecutor
from .table import CELL_DECODER


@dataclass(frozen=True)
class RunSection:
    n: int = 5
    parallelism: int = 1
    eval_matching: str = "normalized"
    request_cap: int | None = None


@dataclass
class AppConfig:
    generator: dict = field(default_factory=dict)
    qa: dict = field(default_factory=dict)
    semantic_executor: dict = field(default_factory=dict)
    reward: RewardConfig = field(default_factory=RewardConfig)
    gate: GateConfig = field(default_factory=GateConfig)
    run: RunSection = field(default_factory=RunSection)
    base_dir: str = "."

    def resolve(self, path: str) -> str:
        return path if os.path.isabs(path) else os.path.join(self.base_dir, path)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_number(value) -> bool:
    """A JSON number that a float holds: an int or a Decimal, not ``1e400`` or
    ``10**400``; bool, str and the decoder's NaN and Infinity floats are not."""
    return type(value) in (int, Decimal) and math.isfinite(Decimal(value))


def _at_least(low: int):
    return lambda value: type(value) is int and value >= low


def _or_null(ok):
    return lambda value: value is None or ok(value)


_STRING = (_is_str, "a string", None)
_INTEGER = (lambda value: type(value) is int, "an integer", None)
_COUNT = (_at_least(1), "an integer >= 1", None)
_RATIONAL = (_is_number, "a number", as_fraction)
_FLOAT = (_is_number, "a number", float)

# One entry per key of the run, reward and gate sections and per client key,
# each named after the dataclass field it fills: (JSON type check, what the
# value must be, conversion or None). Bounds that the dataclasses enforce in
# __post_init__ are not repeated here.
_READERS = {
    "n": _COUNT,
    "parallelism": _COUNT,
    "eval_matching": (lambda value: value in (EXACT, NORMALIZED), f"{EXACT!r} or {NORMALIZED!r}", None),
    "request_cap": (_or_null(_at_least(1)), "an integer >= 1 or null", None),
    "lambda_compress": _RATIONAL,
    "lambda_length": _RATIONAL,
    "l_max": _INTEGER,
    "l_cache": _INTEGER,
    "compression_orientation": _STRING,
    "matching": _STRING,
    "variance_threshold": _RATIONAL,
    "quality_threshold": _RATIONAL,
    "advantage_epsilon": _RATIONAL,
    "max_resample_attempts": _INTEGER,
    "endpoint": _STRING,
    "model": _STRING,
    "temperature": _FLOAT,
    "max_tokens": _COUNT,
    "timeout": _FLOAT,
    "retries": (_at_least(0), "an integer >= 0", None),
    "api_key_env": (_or_null(lambda value: _is_str(value) and value != ""),
                    "a non-empty string or null", None),
    "prompt_max_rows": (_or_null(_at_least(0)), "an integer >= 0 or null", None),
}


def _read(section: str, key: str, value):
    ok, expected, convert = _READERS[key]
    if ok(value):
        return convert(value) if convert else value
    raise ValueError(f"{section}.{key} must be {expected}, got {value!r}")


def _read_section(cls, section: str, doc: dict, **defaults):
    """A ``cls`` built from the config section ``doc``: each field from the key
    of its name, else from ``defaults``, else the field's own default.
    ``__post_init__`` messages start with the field name; this adds the
    section's."""
    values = dict(defaults)
    for f in fields(cls):
        if f.name in doc:
            values[f.name] = _read(section, f.name, doc[f.name])
    try:
        return cls(**values)
    except ValueError as err:
        raise ValueError(f"{section}.{err}") from err


# each client's own temperature and max_tokens defaults; the other keys share GenerationConfig's
_CLIENT_DEFAULTS = {
    "generator": {"temperature": 0.8, "max_tokens": 1024},
    "qa": {"temperature": 0.0, "max_tokens": 256},
    "semantic_executor": {"temperature": 0.0, "max_tokens": 1024},
}

# each client's modes, its default first
_CLIENT_MODES = {"generator": ("mock", "http"), "qa": ("cell_lookup", "http"),
                 "semantic_executor": ("none", "mock", "http")}

_SECTIONS = {"run": RunSection, "reward": RewardConfig, "gate": GateConfig}


def client_config(config: AppConfig, section: str) -> GenerationConfig:
    """Chat-client settings from one client section of ``config``:
    ``"generator"``, ``"qa"`` or ``"semantic_executor"``."""
    return _read_section(GenerationConfig, section, getattr(config, section), **_CLIENT_DEFAULTS[section])


def client_mode(config: AppConfig, section: str) -> str:
    """The ``mode`` of one client section of ``config``, its default when absent."""
    modes = _CLIENT_MODES[section]
    mode = getattr(config, section).get("mode", modes[0])
    if mode not in modes:
        expected = ", ".join(map(repr, modes[:-1])) + f" or {modes[-1]!r}"
        raise ValueError(f"{section}.mode must be {expected}, got {mode!r}")
    return mode


def load_config(path: str) -> AppConfig:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = CELL_DECODER.decode(fh.read())
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except (ValueError, RecursionError) as err:  # not JSON or UTF-8, an int over 4,300 digits, too deep
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    try:
        for name in (*_CLIENT_DEFAULTS, *_SECTIONS):
            if not isinstance(doc.get(name, {}), dict):
                raise ValueError(f"{name} must be a JSON object, got {doc[name]!r}")
        config = AppConfig(
            **{name: doc[name] for name in _CLIENT_DEFAULTS if name in doc},
            **{name: _read_section(cls, name, doc.get(name, {})) for name, cls in _SECTIONS.items()},
            base_dir=os.path.dirname(os.path.abspath(path)),
        )
        # check every client's keys now, whatever its mode, not when it is built
        for name in _CLIENT_DEFAULTS:
            client_mode(config, name)
            client_config(config, name)
        if "default_texts" in config.generator and not _is_texts(texts := config.generator["default_texts"]):
            raise ValueError(f"generator.default_texts must be a non-empty list of strings, got {texts!r}")
    except ValueError as err:
        raise ConfigError(f"bad config value: {err}") from err
    return config


def _mock_data(config: AppConfig, section: str, key: str, what: str):
    """The mock data under ``<section>.<key>``: ``{}`` when the key is absent,
    the JSON document at a string path, else the value itself."""
    value = getattr(config, section).get(key, {})
    if not isinstance(value, str):
        return value
    try:
        with open(config.resolve(value), encoding="utf-8-sig") as fh:
            return CELL_DECODER.decode(fh.read())
    except (OSError, ValueError, RecursionError) as err:  # as in load_config, or a NUL in the path
        raise ConfigError(f"cannot load {what} from {value!r}: {err}") from err


def _all_str(items) -> bool:
    return all(isinstance(item, str) for item in items)


def _is_texts(value) -> bool:
    return isinstance(value, list) and bool(value) and _all_str(value)


def _check_map(doc, what: str, value_ok, shape: str) -> dict:
    """``doc`` itself if it is a JSON object whose every value passes ``value_ok``."""
    if not isinstance(doc, dict) or not all(map(value_ok, doc.values())):
        raise ConfigError(f"{what} must be a JSON object mapping each key to {shape}")
    return doc


class GeneratorFactory:
    """Yields the chat transport to use for each instance.

    HTTP mode shares one transport, built here, so a missing API key stops
    the run before its first instance; mock mode builds a per-instance
    scripted transport from a script keyed by instance id.
    """

    def __init__(self, config: AppConfig):
        self.mode = client_mode(config, "generator")
        if self.mode == "http":
            self._shared = HttpChatTransport(api_key_env=client_config(config, "generator").api_key_env)
        else:
            self._scripts = _check_map(_mock_data(config, "generator", "script", "generator script"),
                                       "generator script", _is_texts, "a non-empty list of strings")
            self._default_texts = config.generator.get("default_texts", ["[]"])

    def transport_for(self, instance_id: str, question: str):
        if self.mode == "http":
            return self._shared
        return ScriptedTransport(self._scripts.get(instance_id, self._default_texts))


def build_qa_client(config: AppConfig):
    if client_mode(config, "qa") == "http":
        qa_config = client_config(config, "qa")
        return HttpQaClient(HttpChatTransport(api_key_env=qa_config.api_key_env), qa_config)
    expected = _check_map(_mock_data(config, "qa", "script", "QA script"), "QA script",
                          lambda v: isinstance(v, list) and _all_str(v), "a list of answer strings")
    return CellLookupQaClient(expected)


def build_semantic_executor(config: AppConfig):
    mode = client_mode(config, "semantic_executor")
    if mode == "none":
        return None
    if mode == "mock":
        rules = _check_map(_mock_data(config, "semantic_executor", "rules", "semantic rules"),
                           "semantic_executor rules", lambda v: isinstance(v, dict),
                           "an object of {input: output}")
        return MockSemanticExecutor.from_json(rules)
    sem_config = client_config(config, "semantic_executor")
    return LlmSemanticExecutor(HttpChatTransport(api_key_env=sem_config.api_key_env), sem_config)
