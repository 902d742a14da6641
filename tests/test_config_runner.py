import ast
import json
import os
import re
import tempfile
import threading
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tableprep
from tableprep import config as config_mod
from tableprep import runner
from tableprep.config import (
    AppConfig,
    GeneratorFactory,
    RunSection,
    build_qa_client,
    build_semantic_executor,
    load_config,
)
from tableprep.data import instance_from_json, load_instances_jsonl
from tableprep.errors import ConfigError, DatasetError, TablePrepError
from tableprep.gate import GateConfig
from tableprep.llm import GenerationConfig
from tableprep.reward import RewardConfig
from tableprep.rollback import CellLookupQaClient
from tableprep.runner import compute_aggregates, dump_report, load_run_report, run_dataset
from tableprep.semantic import MockSemanticExecutor

from conftest import FLOAT_BOUND
from oracles import ref_client_config, ref_gate_config, ref_reward_config

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
BOM = "\ufeff".encode("utf-8")


def fx(name):
    return os.path.join(FIXTURES, name)


class TestLoadConfig:
    def test_fixture_config(self):
        config = load_config(fx("run_config.json"))
        assert config.run.n == 3
        assert config.gate.max_resample_attempts == 4
        assert config.reward.l_max == 2560
        assert (config.qa.data, config.qa.path) == ("qa_expected.json", fx("qa_expected.json"))

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

    def test_a_byte_order_mark_is_read_past(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(BOM + b'{"run": {"n": 7}}')
        assert load_config(str(path)).run.n == 7

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
        ({"run": {"n": 0}}, "run.n must be an integer >= 1"),
        ({"run": {"n": -1}}, "run.n must be an integer >= 1"),
        ({"run": {"parallelism": 0}}, "run.parallelism must be an integer >= 1"),
        ({"run": {"parallelism": -1}}, "run.parallelism must be an integer >= 1"),
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

    @pytest.mark.parametrize("doc, message", [
        ({"qa": {"mode": "http", "timeout": 0}}, "timeout must be positive"),
        ({"semantic_executor": {"mode": "http", "retries": "x"}}, "'x'"),
    ])
    def test_bad_qa_or_semantic_client_keys(self, tmp_path, doc, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=message):
            load_config(str(path))

    @pytest.mark.parametrize("section, key", [
        ("run", "n"), ("run", "parallelism"), ("gate", "max_resample_attempts"),
        ("reward", "l_max"), ("reward", "l_cache"),
    ])
    @pytest.mark.parametrize("value", [2.9, True, "3", "x"])
    def test_counts_must_be_integers(self, tmp_path, section, key, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({section: {key: value}}))
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            load_config(str(path))

    _RATIONALS = [
        ("reward", "lambda_compress"), ("reward", "lambda_length"),
        ("gate", "variance_threshold"), ("gate", "quality_threshold"), ("gate", "advantage_epsilon"),
    ]

    @pytest.mark.parametrize("section, key", _RATIONALS)
    @pytest.mark.parametrize("value, message", [
        (True, "must be a number, got True"),
        ("x", "bad config value"),
        ("0.5", "must be a number, got '0.5'"),
        ("1/3", "must be a number, got '1/3'"),
    ])
    def test_rationals_reject_bools_and_text(self, tmp_path, section, key, value, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({section: {key: value}}))
        with pytest.raises(ConfigError, match=message):
            load_config(str(path))

    @pytest.mark.parametrize("section, key", _RATIONALS)
    def test_rationals_keep_decimal_spelling(self, tmp_path, section, key):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({section: {key: 2.9}}))
        assert getattr(getattr(load_config(str(path)), section), key) == Fraction(29, 10)

    @pytest.mark.parametrize("cap", [None, 1, 8])
    def test_good_request_cap(self, tmp_path, cap):
        path = tmp_path / "c.json"
        # unknown keys such as the retired run.seed are ignored
        path.write_text(json.dumps({"run": {"request_cap": cap, "seed": 7}}))
        assert load_config(str(path)).run.request_cap == cap


class TestSectionValues:
    """Values that load silently or crash mid-run unless checked at load."""

    @pytest.mark.parametrize("doc, message", [
        ({"reward": {"matching": "fuzzy"}}, "reward.matching must be 'exact' or 'normalized'"),
        ({"reward": {"compression_orientation": "bogus"}},
         "reward.compression_orientation must be 'as_written' or 'inverted'"),
        ({"reward": {"l_cache": 0}}, "0 < l_cache < l_max"),
        ({"reward": {"l_cache": 600, "l_max": 600}}, "0 < l_cache < l_max"),
        ({"reward": "x"}, "reward must be a JSON object"),
        ({"reward": [1, 2]}, "reward must be a JSON object"),
        ({"gate": []}, "gate must be a JSON object"),
        ({"qa": None}, "qa must be a JSON object"),
        ({"generator": {"temperature": 10**400}}, "bad config value"),
        ({"reward": {"lambda_compress": 10**400}}, "reward.lambda_compress must be a number"),
        ({"gate": {"quality_threshold": -10**400}}, "gate.quality_threshold must be a number"),
    ])
    def test_section_values(self, tmp_path, doc, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=message):
            load_config(str(path))

    @pytest.mark.parametrize("section", ["generator", "qa", "semantic_executor"])
    @pytest.mark.parametrize("key, value, expected", [
        ("retries", 2.9, "an integer >= 0"),
        ("retries", True, "an integer >= 0"),
        ("retries", -1, "an integer >= 0"),
        ("max_tokens", 1.5, "an integer >= 1"),
        ("max_tokens", 0, "an integer >= 1"),
        ("prompt_max_rows", "x", "an integer >= 0 or null"),
        ("prompt_max_rows", -1, "an integer >= 0 or null"),
        ("timeout", True, "a number"),
        ("timeout", "5", "a number"),
        ("temperature", False, "a number"),
        ("endpoint", 5, "a string"),
        ("model", None, "a string"),
        ("api_key_env", 5, "a non-empty string or null"),
        ("api_key_env", "", "a non-empty string or null"),
    ])
    def test_client_keys_are_typed(self, tmp_path, section, key, value, expected):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({section: {key: value}}))
        with pytest.raises(ConfigError, match=f"bad config value: {section}.{key} must be {expected}, got"):
            load_config(str(path))


    @pytest.mark.parametrize("section", ["generator", "qa", "semantic_executor"])
    @pytest.mark.parametrize("key", ["temperature", "timeout"])
    @pytest.mark.parametrize("raw, shown", [
        ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "Decimal('1E+400')"),
        ("1" + "0" * 400, "1" + "0" * 400),
    ], ids=["nan", "infinity", "minus_infinity", "float_overflow", "int_overflow"])
    def test_client_numbers_must_be_finite(self, tmp_path, section, key, raw, shown):
        # the decoder reads NaN and Infinity as floats, 1e400 as a Decimal and 10**400 as an int
        path = tmp_path / "c.json"
        path.write_text(f'{{"{section}": {{"mode": "http", "{key}": {raw}}}}}')
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert str(err.value) == f"bad config value: {section}.{key} must be a number, got {shown}"


@pytest.mark.parametrize("literal, fits", [
    (str(FLOAT_BOUND - 1), True), ("1.7976931348623158e308", True),
    (str(FLOAT_BOUND), False), ("1.797693134862315808e308", False),
], ids=["int_under", "decimal_under", "int_at", "decimal_past"])
@pytest.mark.parametrize("section, key", [("reward", "lambda_length"), ("qa", "temperature")])
def test_a_config_number_at_the_float_bound(tmp_path, section, key, literal, fits):
    """A number fits exactly when float() of it is finite, as a reward does
    in ``gate``: under the bound it reads, from the bound on it is refused."""
    path = tmp_path / "c.json"
    path.write_text('{"%s": {"%s": %s}}' % (section, key, literal))
    if fits:
        load_config(str(path))
    else:
        with pytest.raises(ConfigError, match=f"^bad config value: {section}.{key} must be a number, got"):
            load_config(str(path))


def _section(**keys):
    """A section object in which every key may be absent."""
    return st.fixed_dictionaries({}, optional=keys)


_ANY_NUMBER = st.integers(-10**6, 10**6) | st.floats(allow_nan=False, allow_infinity=False)
_NON_NEGATIVE = st.integers(0, 10**6) | st.floats(min_value=0, allow_infinity=False)
_POSITIVE = st.integers(1, 10**6) | st.floats(min_value=0, exclude_min=True, allow_infinity=False)
_REWARD_DOCS = _section(
    lambda_compress=_ANY_NUMBER, lambda_length=_ANY_NUMBER,
    l_max=st.integers(2, 6000), l_cache=st.integers(1, 3000),
    compression_orientation=st.sampled_from(["as_written", "inverted"]),
    matching=st.sampled_from(["exact", "normalized"]),
).filter(lambda doc: doc.get("l_cache", 512) < doc.get("l_max", 2560))
_GATE_DOCS = _section(
    variance_threshold=_NON_NEGATIVE, quality_threshold=_ANY_NUMBER,
    advantage_epsilon=_POSITIVE, max_resample_attempts=st.integers(1, 100),
)
_CLIENT_DOCS = _section(
    endpoint=st.text(max_size=8), model=st.text(max_size=8), temperature=_ANY_NUMBER,
    max_tokens=st.integers(1, 10**6), timeout=_POSITIVE, retries=st.integers(0, 10),
    api_key_env=st.none() | st.text(min_size=1, max_size=8), prompt_max_rows=st.none() | st.integers(0, 10**6),
)
# each client's (temperature, max_tokens) defaults, as the references take them
_REF_CLIENT_DEFAULTS = {"generator": (0.8, 1024), "qa": (0.0, 256), "semantic_executor": (0.0, 1024)}


@settings(max_examples=150, deadline=None)
@given(reward=_REWARD_DOCS, gate=_GATE_DOCS, clients=st.tuples(_CLIENT_DOCS, _CLIENT_DOCS, _CLIENT_DOCS))
def test_loader_matches_the_key_by_key_readers(reward, gate, clients):
    doc = {"reward": reward, "gate": gate, **dict(zip(_REF_CLIENT_DEFAULTS, clients))}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        config = load_config(path)
    assert config.reward == ref_reward_config(reward)
    assert config.gate == ref_gate_config(gate)
    for (name, defaults), section in zip(_REF_CLIENT_DEFAULTS.items(), clients):
        assert getattr(config, name).settings == ref_client_config(section, *defaults)


@pytest.mark.parametrize("doc, message", [
    ({"gate": [], "run": {"n": 0}}, "gate must be a JSON object, got []"),
    ({"reward": {"l_max": "x"}, "run": {"n": 0}}, "run.n must be an integer >= 1, got 0"),
    ({"gate": {"max_resample_attempts": 0}, "reward": {"l_max": "x"}}, "reward.l_max must be an integer, got 'x'"),
    ({"generator": {"mode": "x"}, "gate": {"variance_threshold": True}},
     "gate.variance_threshold must be a number, got True"),
    ({"semantic_executor": {"mode": "x"}, "qa": {"retries": -1}}, "qa.retries must be an integer >= 0, got -1"),
    ({"qa": {"retries": -1, "mode": "x"}}, "qa.mode must be 'cell_lookup' or 'http', got 'x'"),
    ({"qa": {"timeout": "x", "endpoint": 5}}, "qa.endpoint must be a string, got 5"),
    ({"generator": {"default_texts": []}, "semantic_executor": {"timeout": 0}},
     "semantic_executor.timeout must be positive, got 0.0"),
], ids=["shape_then_run", "run_then_reward", "reward_then_gate", "gate_then_client", "client_order",
        "mode_then_keys", "key_order", "clients_then_default_texts"])
def test_the_first_of_two_faults_is_reported(tmp_path, doc, message):
    """With faults in two places the loader names the first of: a section that
    is not an object, run, reward, gate, then each client's mode and keys in
    client order, then generator.default_texts."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value) == f"bad config value: {message}"


# any JSON value, with the ones json.load also reads: NaN, +-Infinity, 30-digit ints
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(10**29, 10**30) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# a value for any key: "side.json", the file the test writes, a client mode, or any JSON
_ANY_VALUE = st.just("side.json") | st.sampled_from(["mock", "http", "cell_lookup", "scripted", "none"]) | _JSON
_CLIENT_KEYS = [f.name for f in fields(GenerationConfig)]
_SECTION_KEYS = {
    "run": [f.name for f in fields(RunSection)],
    "reward": [f.name for f in fields(RewardConfig)],
    "gate": [f.name for f in fields(GateConfig)],
    "generator": [*_CLIENT_KEYS, "mode", "script", "default_texts"],
    "qa": [*_CLIENT_KEYS, "mode", "script"],
    "semantic_executor": [*_CLIENT_KEYS, "mode", "rules"],
}
_ANY_CONFIG = _section(**{
    name: st.dictionaries(st.sampled_from(keys), _ANY_VALUE, max_size=len(keys)) | _JSON
    for name, keys in _SECTION_KEYS.items()
}) | _JSON
# the bytes of side.json: not UTF-8, any bytes, or any JSON
_SIDE = st.just(b"\xff{}") | st.binary(max_size=6) | _JSON.map(lambda v: json.dumps(v).encode())


@settings(max_examples=300, deadline=None)
@given(doc=_ANY_CONFIG, side=_SIDE)
def test_any_json_config_builds_or_raises_config_error(doc, side):
    """Whatever JSON a config file and a mock file it names hold, loading the
    config and building its clients returns or raises ConfigError (exit 2)."""
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "side.json"), "wb") as fh:
            fh.write(side)
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        try:
            config = load_config(path)
            GeneratorFactory(config)
            build_qa_client(config)
            build_semantic_executor(config)
        except ConfigError:
            pass


def test_config_format_stays_inside_the_config_module():
    """Only config.py reads the config file: no other module raises
    ConfigError (errors.py defines it, cli.py reports it), and the section
    dataclasses do not read themselves from JSON."""
    package = Path(tableprep.__file__).parent
    users, from_json, sections = set(), set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
            if "ConfigError" in names:
                users.add(path.name)
            if isinstance(node, ast.ClassDef) and node.name in ("RewardConfig", "GateConfig"):
                sections.add(node.name)
                from_json.update(node.name for item in node.body
                                 if isinstance(item, ast.FunctionDef) and item.name == "from_json")
    assert users <= {"errors.py", "config.py", "cli.py"}
    assert "config.py" in users  # the scan sees the loader's own references
    assert sections == {"RewardConfig", "GateConfig"} and not from_json


def _readme_config_block() -> dict:
    """The JSON block under the README's Configuration heading."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("### Configuration"):]
    start = section.index("```json\n") + len("```json\n")
    return json.loads(section[start:section.index("```", start)])


def test_readme_config_loads_as_shown(tmp_path):
    block = _readme_config_block()
    path = tmp_path / "c.json"
    path.write_text(json.dumps(block))
    config = load_config(str(path))
    for section, key in _MOCK_DATA_KEYS:
        client = getattr(config, section)
        assert (client.mode, client.data) == (block[section]["mode"], block[section][key])
    for section in ("reward", "gate", "run"):
        for key, shown in block[section].items():
            expected = Fraction(str(shown)) if isinstance(shown, float) else shown
            assert getattr(getattr(config, section), key) == expected, f"{section}.{key}"


def _readme_key_table() -> set[str]:
    """The keys in the first column of the README's configuration key table."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("### Configuration"):text.index("### Run reports")]
    keys = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            keys.update(re.findall(r"`([^`]+)`", line.split(" | ")[0]))
    return keys


def test_readme_key_table_matches_the_readers():
    table = _readme_key_table()
    sectioned = {key.split(".", 1)[1] for key in table if key.split(".")[0] in ("reward", "gate", "run")}
    client_keys = {key for key in table if "." not in key}
    assert sectioned <= set(config_mod._READERS)
    assert set(config_mod._READERS) == sectioned | client_keys


_MOCK_DATA_KEYS = [("generator", "script"), ("qa", "script"), ("semantic_executor", "rules")]


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

    def test_qa_scripted_mode_is_unknown(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"qa": {"mode": "scripted", "responses": {}}}))
        with pytest.raises(ConfigError, match="qa.mode must be 'cell_lookup' or 'http', got 'scripted'"):
            build_qa_client(load_config(str(path)))

    def test_a_script_with_a_byte_order_mark_loads(self, tmp_path):
        (tmp_path / "qa.json").write_bytes(BOM + Path(fx("qa_expected.json")).read_bytes())
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"qa": {"mode": "cell_lookup", "script": "qa.json"}}))
        fixture = build_qa_client(load_config(fx("run_config.json")))
        assert build_qa_client(load_config(str(path))).expected == fixture.expected

    @pytest.mark.parametrize("section, key", _MOCK_DATA_KEYS, ids=[f"{s}.{k}" for s, k in _MOCK_DATA_KEYS])
    def test_mock_data_reads_alike_from_a_path_and_inline(self, tmp_path, section, key):
        """A mock data key gives the fixture run the same report whether it
        names the fixture file or holds its JSON object, and a different one
        without the data."""
        doc = json.loads(Path(fx("run_config.json")).read_text())
        for s, k in _MOCK_DATA_KEYS:
            doc[s][k] = fx(doc[s][k])
        data = Path(doc[section][key]).read_text(encoding="utf-8")
        instances, _ = load_instances_jsonl(fx("run_instances.jsonl"))

        def report(doc):
            path = tmp_path / "c.json"
            path.write_text(json.dumps(doc).replace('"INLINE"', data))
            return dump_report(run_dataset(instances, load_config(str(path))))

        from_path = report(doc)
        assert report({**doc, section: {**doc[section], key: "INLINE"}}) == from_path
        assert report({**doc, section: {k: v for k, v in doc[section].items() if k != key}}) != from_path

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
        assert made == [{"api_key_env": None}]
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
        assert (qa_cfg.temperature, qa_cfg.max_tokens) == (0.0, 256)
        assert (sem_cfg.retries, sem_cfg.model, sem_cfg.max_tokens) == (0, "m", 1024)
        assert AppConfig().generator.settings == GenerationConfig()

    def test_a_run_builds_no_client_settings(self, monkeypatch):
        """Each client section is read once, when the config loads, so running
        the fixture dataset constructs no GenerationConfig."""
        config = load_config(fx("run_config.json"))
        instances, _ = load_instances_jsonl(fx("run_instances.jsonl"))
        built = []
        post_init = GenerationConfig.__post_init__
        monkeypatch.setattr(GenerationConfig, "__post_init__", lambda self: built.append(self) or post_init(self))
        report = run_dataset(instances, config)
        assert len(report.records) == len(instances) and built == []

    @staticmethod
    def _generator_calls(tmp_path, monkeypatch, doc):
        """Runs three fixture instances under config `doc`; returns generator calls per id."""
        calls = []  # list.append is atomic, and requests run on the request pool
        inner_factory = runner.GeneratorFactory

        class Factory:
            def __init__(self, config):
                self._inner = inner_factory(config)

            def transport_for(self, instance_id, question):
                inner = self._inner.transport_for(instance_id, question)

                class Transport:
                    def complete(self, messages, config, index=0):
                        calls.append(instance_id)
                        return inner.complete(messages, config, index)

                return Transport()

        monkeypatch.setattr(runner, "GeneratorFactory", Factory)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        instances, _ = load_instances_jsonl(fx("run_instances.jsonl"))
        report = run_dataset(instances[:3], load_config(str(path)))
        assert len(report.records) == 3
        return Counter(calls), [instance.id for instance in instances[:3]]

    def test_generation_config_inherits_run_n(self, tmp_path, monkeypatch):
        calls, ids = self._generator_calls(
            tmp_path, monkeypatch, {"generator": {"mode": "mock"}, "run": {"n": 7}}
        )
        assert calls == {instance_id: 7 for instance_id in ids}

    def test_generator_n_is_not_read(self, tmp_path, monkeypatch):
        calls, ids = self._generator_calls(
            tmp_path, monkeypatch, {"generator": {"mode": "mock", "n": 2}, "run": {"n": 7}}
        )
        assert calls == {instance_id: 7 for instance_id in ids}


class TestDataModule:
    def test_load_fixture(self):
        instances, errors = load_instances_jsonl(fx("run_instances.jsonl"))
        assert len(instances) == 20 and errors == []
        assert instances[0].id == "i01"
        assert instances[0].answers is not None

    def test_a_byte_order_mark_keeps_the_first_instance(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(BOM + Path(fx("run_instances.jsonl")).read_bytes())
        assert load_instances_jsonl(str(path)) == load_instances_jsonl(fx("run_instances.jsonl"))

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

    @pytest.mark.parametrize("field, value, message", [
        ("question", None, "'question' must be a string"),
        ("question", 7, "'question' must be a string"),
        ("question", ["q"], "'question' must be a string"),
        ("id", None, "'id' must be a string or an integer"),
        ("id", True, "'id' must be a string or an integer"),
        ("id", 1.5, "'id' must be a string or an integer"),
        ("id", ["a"], "'id' must be a string or an integer"),
        ("answers", [["1"]], "each answer must be a string or a number"),
        ("answers", ["a", None], "each answer must be a string or a number"),
        ("answers", [True], "each answer must be a string or a number"),
        ("answers", [{"v": 1}], "each answer must be a string or a number"),
        ("answers", [float("nan")], "each answer must be a string or a number"),
    ])
    def test_a_field_of_the_wrong_json_type_is_a_line_error(self, tmp_path, field, value, message):
        doc = {"id": "a", "question": "q", "table": {"header": ["c"], "rows": [["1"]]}, "answers": ["1"], field: value}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        assert load_instances_jsonl(str(path)) == ([], [{"line": 1, "error": message}])

    def test_integer_ids_and_number_answers_read_as_text(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": 7, "question": "q", "table": {"header": ["c"], "rows": []}, "answers": [3, 2.50, "x"]}\n')
        (instance,), errors = load_instances_jsonl(str(path))
        assert errors == [] and instance.id == "7"
        assert instance.answers.answers == ("3", "2.5", "x")


class TestRunner:
    def test_parallelism_order_independent(self):
        config = load_config(fx("run_config.json"))
        instances, _ = load_instances_jsonl(fx("run_instances.jsonl"))
        serial = dump_report(run_dataset(instances, config))

        config.run = replace(config.run, parallelism=4)
        parallel = dump_report(run_dataset(instances, config))
        assert serial == parallel

    def test_serving_builds_no_answer_lookup(self):
        config = load_config(fx("run_config.json"))
        instances, _ = load_instances_jsonl(fx("run_instances.jsonl"))
        labeled = [i.answers for i in instances if i.answers is not None]
        run_dataset(instances, config)
        assert labeled and not any("lookup" in vars(answers) for answers in labeled)

    def test_an_instance_with_no_parsed_candidate_is_answered_on_its_table(self, tmp_path):
        # the merge of no candidates is the identity pipeline, so the record is
        # the one the runner wrote when it stood in for the merge itself
        doc = {
            "generator": {"mode": "mock", "script": {"u1": ["no plan", '[{"operation": "explode"}]', '[{"operation": "select"}]']}},
            "qa": {"mode": "cell_lookup", "script": {"Who scored 57?": ["Fiji"]}},
            "run": {"n": 3},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        table = {"header": ["Country", "Score"], "rows": [["Laos", "48"], ["Fiji", "57"]]}
        instance = instance_from_json({"id": "u1", "question": "Who scored 57?", "table": table, "answers": ["Fiji"]})
        (record,) = run_dataset([instance], load_config(str(path))).to_json()["records"]
        assert record == {
            "id": "u1",
            "final_answer": "Fiji",
            "state_used": 3,
            "qa_calls": 1,
            "ops_executed": 0,
            "cells_before": 4,
            "cells_after": 4,
            "merged_ops": [],
            "candidates_ok": 0,
            "candidate_errors": [
                "candidate 0: no JSON array found in model output",
                "candidate 1: invalid operator at index 0: unknown operator: 'explode'",
                "candidate 2: invalid operator at index 0: operator 'select' is missing parameter 'columns'",
            ],
            "correct": True,
        }

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

    @pytest.mark.parametrize("text", [
        "[]", '"report"', "null", '{"records": [{"id": "a"}]}', '{"records": 5}', '{"records": ["a"]}',
        '{"records": [{"cells_before": 1, "cells_after": 1, "qa_calls": 1, "merged_ops": 3}]}',
        "not json", pytest.param("[" * 100_000, id="too_deep"), pytest.param(b'{"records": "\xff"}', id="not_utf8"),
    ])
    def test_a_malformed_report_fails_verification(self, tmp_path, text):
        path = tmp_path / "r.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        with pytest.raises(TablePrepError, match="report is malformed"):
            load_run_report(str(path), verify=True)

    def test_compute_aggregates_empty(self):
        agg = compute_aggregates([])
        assert agg["instances"] == 0
        assert agg["accuracy"] is None


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
