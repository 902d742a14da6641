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
object itself; relative paths resolve against the config file's directory.
Every training hyperparameter has a default, so an empty JSON object is a
valid config for mock-free computations. This module alone knows the format:
``load_config`` reads each section once, field by field through ``_READERS``,
a client's into a :class:`ClientConfig`, and a bad value raises ``ConfigError``
as ``bad config value: <section>.<key> must be <expected>, got <value>``. A
client's mock data file is read when the client is built.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from decimal import Decimal

from .errors import ConfigError
from .gate import GateConfig, as_fraction, fits_float
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


@dataclass(frozen=True)
class ClientConfig:
    """One client section as read: ``data`` is its mock data as written, a
    path or the value itself, and ``path`` where a path resolves;
    ``default_texts`` is the generator's, None for the other clients."""

    mode: str
    settings: GenerationConfig
    data: object
    path: str | None
    default_texts: list[str] | None


@dataclass
class AppConfig:
    generator: ClientConfig = field(default_factory=lambda: _read_clients({}, "")["generator"])
    qa: ClientConfig = field(default_factory=lambda: _read_clients({}, "")["qa"])
    semantic_executor: ClientConfig = field(default_factory=lambda: _read_clients({}, "")["semantic_executor"])
    reward: RewardConfig = field(default_factory=RewardConfig)
    gate: GateConfig = field(default_factory=GateConfig)
    run: RunSection = field(default_factory=RunSection)


def _is_number(value) -> bool:
    """A JSON number that a float holds: an int or a Decimal, not ``1e400`` or
    ``10**400``; bool, str and the decoder's NaN and Infinity floats are not."""
    return type(value) in (int, Decimal) and fits_float(value)


def _at_least(low: int):
    return lambda value: type(value) is int and value >= low


def _or_null(ok):
    return lambda value: value is None or ok(value)


def _one_of(*choices):
    return (lambda value: value in choices, ", ".join(map(repr, choices[:-1])) + f" or {choices[-1]!r}", None)


_STRING = (lambda value: isinstance(value, str), "a string", None)
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
    "eval_matching": _one_of(EXACT, NORMALIZED),
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
    "api_key_env": (_or_null(lambda value: isinstance(value, str) and value != ""),
                    "a non-empty string or null", None),
    "prompt_max_rows": (_or_null(_at_least(0)), "an integer >= 0 or null", None),
}


def _read(section: str, key: str, value, reader=None):
    ok, expected, convert = reader or _READERS[key]
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


# Each client's modes (its default first), its mock data key, and its own
# temperature and max_tokens defaults; its other keys share GenerationConfig's.
_CLIENTS = {
    "generator": (("mock", "http"), "script", 0.8, 1024),
    "qa": (("cell_lookup", "http"), "script", 0.0, 256),
    "semantic_executor": (("none", "mock", "http"), "rules", 0.0, 1024),
}

_SECTIONS = {"run": RunSection, "reward": RewardConfig, "gate": GateConfig}


def _read_clients(doc: dict, base_dir: str) -> dict[str, ClientConfig]:
    """Every client section of ``doc``; a relative mock data path resolves against ``base_dir``."""
    texts = doc.get("generator", {}).get("default_texts", ["[]"])
    clients = {}
    for name, (modes, data_key, temperature, max_tokens) in _CLIENTS.items():
        section = doc.get(name, {})
        mode = _read(name, "mode", section.get("mode", modes[0]), _one_of(*modes))
        settings = _read_section(GenerationConfig, name, section, temperature=temperature, max_tokens=max_tokens)
        data = section.get(data_key, {})
        path = os.path.join(base_dir, data) if isinstance(data, str) else None
        clients[name] = ClientConfig(mode, settings, data, path, texts if name == "generator" else None)
    # after every client's mode and keys, in the order that load_config names
    _read("generator", "default_texts", texts, (_is_texts, "a non-empty list of strings", None))
    return clients


def load_config(path: str) -> AppConfig:
    """The config in the JSON file ``path``. ``ConfigError`` names the first fault of: a section that
    is not an object; run, reward, gate; each client's mode and keys in turn; generator.default_texts."""
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
        for name in (*_CLIENTS, *_SECTIONS):
            if not isinstance(doc.get(name, {}), dict):
                raise ValueError(f"{name} must be a JSON object, got {doc[name]!r}")
        sections = {name: _read_section(cls, name, doc.get(name, {})) for name, cls in _SECTIONS.items()}
        return AppConfig(**sections, **_read_clients(doc, os.path.dirname(os.path.abspath(path))))
    except ValueError as err:
        raise ConfigError(f"bad config value: {err}") from err


def _mock_data(client: ClientConfig, what: str):
    """The client's mock data: the JSON document at its path, else as written."""
    if client.path is None:
        return client.data
    try:
        with open(client.path, encoding="utf-8-sig") as fh:
            return CELL_DECODER.decode(fh.read())
    except (OSError, ValueError, RecursionError) as err:  # as in load_config, or a NUL in the path
        raise ConfigError(f"cannot load {what} from {client.data!r}: {err}") from err


def _is_strs(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def _is_texts(value) -> bool:
    return _is_strs(value) and bool(value)


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
        self._client = client = config.generator
        if client.mode == "http":
            self._shared = HttpChatTransport(api_key_env=client.settings.api_key_env)
        else:
            self._scripts = _check_map(_mock_data(client, "generator script"),
                                       "generator script", _is_texts, "a non-empty list of strings")

    def transport_for(self, instance_id: str, question: str):
        if self._client.mode == "http":
            return self._shared
        return ScriptedTransport(self._scripts.get(instance_id, self._client.default_texts))


def build_qa_client(config: AppConfig):
    client = config.qa
    if client.mode == "http":
        return HttpQaClient(HttpChatTransport(api_key_env=client.settings.api_key_env), client.settings)
    return CellLookupQaClient(_check_map(_mock_data(client, "QA script"), "QA script",
                                         _is_strs, "a list of answer strings"))


def build_semantic_executor(config: AppConfig):
    client = config.semantic_executor
    if client.mode == "none":
        return None
    if client.mode == "mock":
        rules = _check_map(_mock_data(client, "semantic rules"), "semantic_executor rules",
                           lambda v: isinstance(v, dict), "an object of {input: output}")
        return MockSemanticExecutor(rules)
    return LlmSemanticExecutor(HttpChatTransport(api_key_env=client.settings.api_key_env), client.settings)
