import ast
import builtins
import functools
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from pathlib import Path

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from tableprep import config as config_mod
from tableprep import errors, llm, rollback, semantic
from tableprep.engine import FAILED, SKIPPED, execute
from tableprep.errors import (
    AllRequestsFailedError,
    AuthMissingError,
    ConfigError,
    EmptyQuestionError,
    NoJsonFoundError,
    PipelineParseError,
    QaTransportError,
    RequestFailedError,
    TablePrepError,
)
from tableprep.llm import (
    GENERATOR_SYSTEM_PROMPT,
    GenerationConfig,
    ScriptedTransport,
    HttpChatTransport,
    chat,
    extract_pipeline_json,
    first_json_array,
    generate_candidates,
    question_prompt,
)
from tableprep.ops import AddColumnOp, FilterOp, Pipeline, SelectOp, pipeline_to_json
from tableprep.rollback import QA_SYSTEM_PROMPT, HttpQaClient, answer_with_rollback
from tableprep.semantic import LlmSemanticExecutor
from tableprep.table import CELL_DECODER

from conftest import FlakyTransport, make_table
from oracles import ref_extract_pipeline_json, ref_first_json_array


# the characters that open a JSON value, JSON and non-ASCII whitespace, a
# non-ASCII digit and a bracketed note: the bracket pre-check must skip only
# brackets the decoder would reject
_JSON_CHARS = ["[", "]", '"', "\\", ",", "{", "}", ":", "1", "a", "null", " ",
               "n", "t", "f", "e", "N", "I", "-", "0", "\t", "\n", "\u00a0", "\u0661", "[note 1]"]
_junk = st.lists(st.sampled_from(_JSON_CHARS), max_size=8).map("".join)
# valid arrays over the same characters, with brackets and quotes inside strings
_json_values = st.recursive(
    st.none() | st.just(1) | _junk,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["a", "1"]), inner, max_size=2),
    max_leaves=6,
)
_texts = st.lists(st.one_of(_junk, st.lists(_json_values, max_size=3).map(json.dumps)), max_size=4).map("".join)


@pytest.fixture
def table():
    return make_table(["a", "b"], [[1, "x"], [2, "y"]])


class TestGenerationPrompt:
    def test_two_messages_constant_schema(self, table):
        transport = FlakyTransport()
        generate_candidates("which a?", table, GenerationConfig(), transport, 1)
        assert transport.sent == [[
            {"role": "system", "content": GENERATOR_SYSTEM_PROMPT},
            {"role": "user",
             "content": "Question: which a?\n\nTable:\n| a | b |\n| --- | --- |\n| 1 | x |\n| 2 | y |"},
        ]]

    def test_every_candidate_and_attempt_sends_the_same_messages(self, table, backoffs):
        transport = FlakyTransport(fail_first=1)
        generate_candidates("q", table, GenerationConfig(retries=1), transport, 3)
        assert len(transport.sent) == 6 and transport.sent.count(transport.sent[0]) == 6

    def test_row_cap_marker(self):
        big = make_table(["a"], [[i] for i in range(30)])
        transport = FlakyTransport()
        generate_candidates("q", big, GenerationConfig(prompt_max_rows=5), transport, 1)
        assert "(25 rows omitted)" in transport.sent[0][1]["content"]
        assert transport.sent[0][1]["content"] == question_prompt("q", big, 5)

    def test_empty_question_sends_nothing(self, table):
        transport = FlakyTransport()
        with pytest.raises(EmptyQuestionError):
            generate_candidates("   ", table, GenerationConfig(), transport, 2)
        assert transport.sent == []

    def test_generator_and_qa_send_the_same_user_message(self):
        big = make_table(["a", "b"], [[i, f"r{i}"] for i in range(30)])
        config = GenerationConfig(prompt_max_rows=5)
        generator, qa = FlakyTransport(), FlakyTransport(text="1")
        generate_candidates("which a?", big, config, generator, 1)
        HttpQaClient(qa, config).ask("which a?", big)
        assert generator.sent[0][1] == qa.sent[0][1]
        assert "(25 rows omitted)" in qa.sent[0][1]["content"]
        assert qa.sent[0][0] == {"role": "system", "content": QA_SYSTEM_PROMPT}


class TestExtractPipelineJson:
    def test_array_embedded_in_prose(self):
        raw = 'Here is the plan: [ {"operation": "select", "columns": ["a"]} ] done'
        pipeline = extract_pipeline_json(raw)
        assert pipeline == Pipeline((SelectOp(("a",)),))

    def test_no_brackets(self):
        with pytest.raises(NoJsonFoundError):
            extract_pipeline_json("I cannot produce a pipeline.")

    def test_array_of_non_objects(self):
        with pytest.raises(PipelineParseError) as exc:
            extract_pipeline_json("[1,2]")
        assert exc.value.index == 0

    def test_empty_array_is_identity(self):
        assert extract_pipeline_json("nothing needed: []") == Pipeline()

    def test_skips_unparseable_spans(self):
        raw = '[not json] but then ["ok"... no: [{"operation":"group_by","column":"a"}]'
        pipeline = extract_pipeline_json(raw)
        assert pipeline.ops[0].kind == "group_by"

    def test_string_aware_scan(self):
        raw = '[{"operation":"filter","column":"a]b","cmp":"==","value":"x["}]'
        pipeline = extract_pipeline_json(raw)
        assert pipeline.ops[0].column == "a]b"
        assert pipeline.ops[0].value == "x["

    def test_nested_arrays(self):
        raw = 'x [{"operation":"select","columns":["a","b"]}] y'
        assert len(extract_pipeline_json(raw)) == 1

    def test_idempotent_on_own_serialization(self):
        raw = '[{"operation":"filter","column":"a","cmp":">","value":"5"},{"operation":"sort_by","column":"a","order":"asc"}]'
        pipeline = extract_pipeline_json(raw)
        again = extract_pipeline_json(json.dumps(pipeline_to_json(pipeline)))
        assert again == pipeline

    def test_threads_parsing_their_own_texts_interleaved_get_their_own_pipelines(self):
        select = '[{"operation": "select", "columns": ["%s"]}]'
        group_by = '[{"operation": "group_by", "column": "%s"}]'
        texts = {
            name: [select % name] * 2 + [group_by % name, bad, select % name, select % name, "[]", group_by % name]
            for name, bad in [("a", "no plan"), ("b", "[1]"), ("c", "[]"), ("d", '[{"operation": "explode"}]')]
        }
        step = threading.Barrier(len(texts), timeout=10)
        results = {}

        def parse(text):
            try:
                return extract_pipeline_json(text)
            except TablePrepError as err:
                return type(err)

        def work(name):
            try:
                out = []
                for text in texts[name]:
                    step.wait()  # one text per thread at a time, so each can evict the others' entries
                    out.append(parse(text))
                results[name] = out
            except BaseException as err:  # reported by the assertion below
                results[name] = err

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(name,)) for name in texts]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for name, own in texts.items():
            want = []
            for text in own:
                try:
                    want.append(ref_extract_pipeline_json(text))
                except TablePrepError as err:
                    want.append(type(err))
            assert results[name] == want

    def test_first_json_array_helper(self):
        assert first_json_array("no arrays here") is None
        assert first_json_array('["a", 1]') == ["a", 1]

    @pytest.mark.parametrize("text, error", [
        ("[" * 3000, NoJsonFoundError),
        ("[" * 3000 + "]" * 3000, PipelineParseError),
    ], ids=["unbalanced", "balanced"])
    def test_nesting_deeper_than_the_decoder_is_a_candidate_error(self, text, error):
        with pytest.raises(error):
            extract_pipeline_json(text)

    @settings(max_examples=300)
    @given(_texts)
    def test_first_json_array_agrees_with_balanced_scan(self, text):
        # repr, so that a decoded NaN compares equal to itself
        assert repr(first_json_array(text)) == repr(ref_first_json_array(text))

    @pytest.mark.parametrize("text", [
        "[NaN]", "[Infinity]", "[-Infinity]", "[\n\t1]", "[\u00a0 1]", "x [note] [1]", "[true]", "[false]",
    ])
    def test_first_json_array_pinned_cases(self, text):
        assert repr(first_json_array(text)) == repr(ref_first_json_array(text))

    @pytest.mark.parametrize("literal", ["9" * 4301, "0." + "1" * 4301], ids=["integer", "fraction"])
    def test_a_number_over_4300_digits_skips_its_array(self, literal):
        assert first_json_array(f"[{literal}] then [1.5]") == [Decimal("1.5")]

    def test_brackets_that_cannot_open_an_array_are_not_decoded(self, monkeypatch):
        class CountingDecoder:
            attempts = 0

            def raw_decode(self, text, start):
                self.attempts += 1
                return CELL_DECODER.raw_decode(text, start)

        decoder = CountingDecoder()
        monkeypatch.setattr(llm, "CELL_DECODER", decoder)
        notes = " ".join(f"[note {i}] the column is not needed." for i in range(190))
        assert first_json_array(notes + "\n" + '[{"operation": "select", "columns": ["a"]}]') == [
            {"operation": "select", "columns": ["a"]}
        ]
        assert decoder.attempts == 1


class TestGenerateCandidates:
    def test_all_succeed(self, table):
        cfg = GenerationConfig()
        outcomes = generate_candidates("q", table, cfg, ScriptedTransport(["[]", "x", "y"]), 3)
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert [o.text for o in outcomes] == ["[]", "x", "y"]

    def test_partial_failure_recorded(self, table):
        cfg = GenerationConfig(retries=1)
        transport = FlakyTransport(dead_indices={1})
        outcomes = generate_candidates("q", table, cfg, transport, 3)
        assert outcomes[1].text is None
        assert "permanently down" in outcomes[1].error
        assert outcomes[0].text == "[]" and outcomes[2].text == "[]"

    def test_retry_then_success(self, table):
        cfg = GenerationConfig(retries=2)
        transport = FlakyTransport(fail_first=2)
        outcomes = generate_candidates("q", table, cfg, transport, 1)
        assert outcomes[0].text == "[]"
        assert transport.attempts[0] == 3

    def test_all_fail(self, table):
        cfg = GenerationConfig(retries=0)
        with pytest.raises(AllRequestsFailedError):
            generate_candidates("q", table, cfg, FlakyTransport(dead_indices={0, 1}), 2)

    def test_index_stable_under_concurrency(self, table):
        cfg = GenerationConfig()
        with ThreadPoolExecutor(5) as pool:
            outcomes = generate_candidates("q", table, cfg, ScriptedTransport(["a", "b", "c", "d", "e"]), 5, pool)
        assert [o.text for o in outcomes] == ["a", "b", "c", "d", "e"]

    def test_never_more_than_n(self, table):
        cfg = GenerationConfig()
        outcomes = generate_candidates("q", table, cfg, ScriptedTransport(["a"]), 2)
        assert len(outcomes) == 2


class TestHttpTransportShape:
    def test_payload_and_the_auth_header_read_when_built(self, table, monkeypatch):
        captured = {}

        class FakeSession:
            def post(self, url, json=None, headers=None, timeout=None):
                captured.update(url=url, payload=json, headers=headers, timeout=timeout)
                return _OkResponse()

        monkeypatch.setenv("TP_KEY", "secret")
        transport = HttpChatTransport(api_key_env="TP_KEY", session=FakeSession())
        monkeypatch.delenv("TP_KEY")  # the key was read when the transport was built
        cfg = GenerationConfig(endpoint="http://x/v1/chat/completions", model="m",
                               api_key_env="TP_OTHER_KEY", temperature=0.8, max_tokens=64)
        assert chat(transport, cfg, "sys", question_prompt("q", table)) == "[]"
        assert captured["url"] == "http://x/v1/chat/completions"
        assert captured["payload"]["model"] == "m"
        assert captured["payload"]["messages"] == [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": question_prompt("q", table)},
        ]
        assert captured["payload"]["temperature"] == 0.8
        assert captured["headers"]["Authorization"] == "Bearer secret"


class TestMissingApiKey:
    """A missing key is a config error raised when the transport is built,
    so no request is ever sent and nothing retries it."""

    @pytest.mark.parametrize("value", [None, ""], ids=["unset", "empty"])
    def test_transport_build_raises_before_any_request(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("TP_TEST_KEY", raising=False)
        else:
            monkeypatch.setenv("TP_TEST_KEY", value)
        session = _CountingSession()
        with pytest.raises(AuthMissingError, match="'TP_TEST_KEY' is not set") as exc:
            HttpChatTransport(api_key_env="TP_TEST_KEY", session=session)
        assert isinstance(exc.value, ConfigError) and exc.value.env_var == "TP_TEST_KEY"
        assert session.posts == 0

    @pytest.mark.parametrize("section, build", [
        ("generator", config_mod.GeneratorFactory),
        ("qa", config_mod.build_qa_client),
        ("semantic_executor", config_mod.build_semantic_executor),
    ], ids=["generator", "qa", "semantic_executor"])
    def test_each_client_builder_raises_before_any_request(self, monkeypatch, tmp_path, backoffs, section, build):
        monkeypatch.delenv("TP_TEST_KEY", raising=False)
        session = _CountingSession()
        monkeypatch.setattr(config_mod, "HttpChatTransport", functools.partial(HttpChatTransport, session=session))
        path = tmp_path / "c.json"
        path.write_text(json.dumps({section: {"mode": "http", "api_key_env": "TP_TEST_KEY", "retries": 3}}))
        config = config_mod.load_config(str(path))
        with pytest.raises(AuthMissingError, match="TP_TEST_KEY"):
            build(config)
        assert session.posts == 0 and backoffs == []


def _scoped(node, scope=""):
    """Each node under ``node`` with the qualified name of the innermost
    class or function that holds it ("" at module level)."""
    for child in ast.iter_child_nodes(node):
        yield child, scope
        inner = f"{scope}.{child.name}".lstrip(".") if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
        yield from _scoped(child, inner)


def test_a_missing_api_key_has_one_raise_site():
    """``HttpChatTransport.__init__`` alone raises AuthMissingError and no
    handler in the package catches it; only config.py builds an
    HttpChatTransport, so a missing key always surfaces as a config error."""
    raises, caught, builds = [], [], []
    for path in sorted(Path(llm.__file__).parent.glob("*.py")):
        for node, scope in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None and "AuthMissingError" in ast.unparse(node.exc):
                raises.append((path.name, scope))
            if isinstance(node, ast.ExceptHandler) and node.type is not None and "AuthMissingError" in ast.unparse(node.type):
                caught.append((path.name, node.lineno))
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("HttpChatTransport"):
                builds.append(path.name)
    assert raises == [("llm.py", "HttpChatTransport.__init__")]
    assert caught == []
    assert builds and set(builds) == {"config.py"}


class _ContentSession:
    """Fake ``requests`` session answering post ``i`` with ``contents[i]``
    (the last one once they run out) as the message content."""

    def __init__(self, *contents):
        self.contents = contents
        self.posts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        content = self.contents[min(self.posts, len(self.contents) - 1)]
        self.posts += 1
        return _OkResponse(content)


# what OpenAI-compatible servers may send instead of a string: no content, or content parts
_NOT_TEXT = [None, [{"type": "text", "text": "[]"}]]


class TestContentThatIsNotText:
    @pytest.mark.parametrize("content", _NOT_TEXT)
    def test_transport_raises_naming_the_type(self, content):
        transport = HttpChatTransport(session=_ContentSession(content))
        with pytest.raises(TablePrepError, match=f"content is {type(content).__name__}, not text"):
            transport.complete([], GenerationConfig())

    @pytest.mark.parametrize("content", _NOT_TEXT)
    def test_generation_retries_then_records_a_failed_candidate(self, table, content, backoffs):
        session = _ContentSession(content, content, "[]")
        outcomes = generate_candidates("q", table, GenerationConfig(retries=1), HttpChatTransport(session=session), 2)
        assert outcomes[0].text is None and f"content is {type(content).__name__}" in outcomes[0].error
        assert outcomes[1].text == "[]"
        assert session.posts == 3 and backoffs == [0.1]

    @pytest.mark.parametrize("content", _NOT_TEXT)
    def test_qa_raises_a_qa_transport_error_naming_the_state(self, table, content, backoffs):
        qa = HttpQaClient(HttpChatTransport(session=_ContentSession(content)), GenerationConfig(retries=1))
        with pytest.raises(QaTransportError, match=f"^rollback state 3: chat completion content is {type(content).__name__}") as exc:
            answer_with_rollback("q", table, Pipeline(), qa)
        assert exc.value.state == 3

    @pytest.mark.parametrize("content", _NOT_TEXT)
    def test_semantic_step_fails_and_the_trace_is_truncated(self, table, content, backoffs):
        executor = LlmSemanticExecutor(HttpChatTransport(session=_ContentSession(content)), GenerationConfig(retries=0))
        trace = execute(Pipeline((AddColumnOp("n", "copy a"), FilterOp("n", "==", "x"))), table, executor)
        assert [step.status for step in trace.steps] == [FAILED, SKIPPED]
        assert trace.truncated_at == 0 and f"content is {type(content).__name__}" in trace.steps[0].error
        assert trace.final is table


class _BodySession:
    """Fake ``requests`` session answering post ``i`` with a 200 whose JSON
    body is ``bodies[i]`` (the last one once they run out)."""

    def __init__(self, *bodies):
        self.bodies = bodies
        self.posts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        response = _OkResponse()
        body = self.bodies[min(self.posts, len(self.bodies) - 1)]
        self.posts += 1
        response.json = lambda: body
        return response


# 200 bodies without a completion: no choices, no first choice, not an object
_MALFORMED = pytest.mark.parametrize("body", [{}, {"choices": []}, []], ids=["no_choices", "no_first", "a_list"])


class TestMalformedBody:
    @_MALFORMED
    def test_transport_raises_naming_the_missing_field(self, body):
        transport = HttpChatTransport(session=_BodySession(body))
        with pytest.raises(TablePrepError, match=r"^chat completion body has no choices\[0\]\.message\.content$"):
            transport.complete([], GenerationConfig())

    @_MALFORMED
    def test_a_failed_candidate_records_the_missing_field(self, table, body):
        session = _BodySession(body, _OkResponse().json())
        outcomes = generate_candidates("q", table, GenerationConfig(retries=0), HttpChatTransport(session=session), 2)
        assert outcomes[0].text is None and outcomes[0].error == "chat completion body has no choices[0].message.content"
        assert outcomes[1].text == "[]"


class TestChat:
    def test_sends_a_system_and_a_user_message_at_the_index(self):
        transport = FlakyTransport(text="ok")
        assert chat(transport, GenerationConfig(), "sys", "usr", index=3) == "ok"
        assert transport.sent == [[{"role": "system", "content": "sys"}, {"role": "user", "content": "usr"}]]
        assert transport.attempts == {3: 1}

    def test_recovers_with_backoff_schedule(self, backoffs):
        transport = FlakyTransport(fail_first=3)
        assert chat(transport, GenerationConfig(retries=5), "s", "u") == "[]"
        assert transport.attempts[0] == 4
        assert backoffs == [0.1, 0.2, 0.4]

    def test_exhausted_raises_request_failed_from_the_last_error_with_capped_backoff(self, backoffs):
        transport = FlakyTransport(dead_indices={0})
        with pytest.raises(RequestFailedError, match="^permanently down$") as exc:
            chat(transport, GenerationConfig(retries=6), "s", "u")
        assert type(exc.value.__cause__) is ConnectionError and str(exc.value.__cause__) == "permanently down"
        assert transport.attempts[0] == 7
        assert backoffs == [0.1, 0.2, 0.4, 0.8, 1.6, 2.0]

    def test_zero_retries_is_one_attempt(self, backoffs):
        transport = FlakyTransport(fail_first=1)
        with pytest.raises(RequestFailedError, match="^transient$"):
            chat(transport, GenerationConfig(retries=0), "s", "u")
        assert transport.attempts[0] == 1 and backoffs == []

    @pytest.mark.parametrize("status", [400, 401, 404, 429, 500, 503])
    def test_any_http_error_status_is_retried(self, status, backoffs):
        session = _StatusSession(status)
        assert chat(HttpChatTransport(session=session), GenerationConfig(retries=2), "s", "u") == "[]"
        assert session.posts == 2 and backoffs == [0.1]


class _StatusSession:
    """Fake ``requests`` session whose first post answers with the HTTP error
    ``status`` and every later post with a completion."""

    def __init__(self, status):
        self.status = status
        self.posts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts += 1
        response = _OkResponse()
        if self.posts == 1:
            def raise_for_status():
                raise requests.HTTPError(f"{self.status} Error for url: {url}")
            response.raise_for_status = raise_for_status
        return response


class _RaisingTransport:
    """Chat transport whose ``complete`` raises ``error`` for each index in
    ``dead`` (every index when ``dead`` is None), counting its calls."""

    def __init__(self, error, dead=None):
        self.error = error
        self.dead = dead
        self.calls = 0

    def complete(self, messages, config, index=0):
        self.calls += 1
        if self.dead is None or index in self.dead:
            raise self.error
        return "[]"


# each client's call on the table, through the transport, with the config
_CLIENT_CALLS = {
    "generator": lambda transport, config, table: generate_candidates("q", table, config, transport, 2),
    "qa": lambda transport, config, table: answer_with_rollback("q", table, Pipeline(), HttpQaClient(transport, config)),
    "semantic_executor": lambda transport, config, table: execute(
        Pipeline((AddColumnOp("n", "copy a"),)), table, LlmSemanticExecutor(transport, config)
    ),
}


@pytest.mark.parametrize("client", list(_CLIENT_CALLS))
def test_a_bug_in_the_transport_reaches_each_client_caller(table, backoffs, client):
    transport = _RaisingTransport(TypeError("bug in the transport"))
    with pytest.raises(TypeError, match="^bug in the transport$"):
        _CLIENT_CALLS[client](transport, GenerationConfig(retries=2), table)
    assert transport.calls == 1 and backoffs == []


@pytest.mark.parametrize("error", [ConnectionError("down"), TablePrepError("down")], ids=["OSError", "TablePrepError"])
def test_a_transport_failure_keeps_each_client_outcome(table, backoffs, error):
    """Each failed request is sent 1 + ``retries`` times with the same
    backoffs; then the generator records the slot (and raises when every slot
    failed), the QA client fails naming its rollback state, and the semantic
    step fails and truncates the trace."""
    config = GenerationConfig(retries=2)
    transport = _RaisingTransport(error, dead={1})
    assert [o.error for o in generate_candidates("q", table, config, transport, 2)] == [None, "down"]
    assert transport.calls == 4 and backoffs == [0.1, 0.2]
    with pytest.raises(AllRequestsFailedError):
        generate_candidates("q", table, config, _RaisingTransport(error), 2)
    backoffs.clear()

    transport = _RaisingTransport(error)
    with pytest.raises(QaTransportError, match="^rollback state 3: down$") as exc:
        _CLIENT_CALLS["qa"](transport, config, table)
    assert exc.value.state == 3 and transport.calls == 3 and backoffs == [0.1, 0.2]
    backoffs.clear()

    transport = _RaisingTransport(error)
    trace = _CLIENT_CALLS["semantic_executor"](transport, config, table)
    assert trace.truncated_at == 0 and trace.steps[0].status == FAILED and trace.steps[0].error == "down"
    assert transport.calls == 3 and backoffs == [0.1, 0.2]


def _caught(handler: ast.ExceptHandler) -> set[str]:
    """The names of the classes a handler catches; a bare ``except:`` catches ``BaseException``."""
    if handler.type is None:
        return {"BaseException"}
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {ast.unparse(node) for node in types}


def test_no_handler_in_the_package_catches_every_exception():
    """A bug propagates: no handler in the package is a bare ``except:`` or
    catches ``Exception`` or ``BaseException``."""
    broad = []
    for path in sorted(Path(llm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and _caught(node) & {"Exception", "BaseException"}:
                broad.append((path.name, node.lineno))
    assert broad == []


def test_only_chat_catches_a_transport_failure():
    """In the modules that send model requests, ``llm.chat`` alone catches
    what a transport raises when it fails, an ``OSError`` or a
    ``TablePrepError``, and a client that calls ``chat`` catches only the
    ``RequestFailedError`` that ``chat`` raises after its last attempt."""
    sites = set()
    for module in (llm, rollback, semantic):
        for node, scope in _scoped(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Try):
                continue
            calls = {ast.unparse(n.func).split(".")[-1] for n in ast.walk(ast.Module(node.body, [])) if isinstance(n, ast.Call)}
            for handler in node.handlers:
                names = _caught(handler)
                classes = [getattr(builtins, name, None) or getattr(errors, name) for name in names]
                if calls & {"chat", "complete"} or any(issubclass(OSError, c) or issubclass(c, OSError) for c in classes):
                    sites.add((Path(module.__file__).name, scope, frozenset(names)))
    assert sites == {
        ("llm.py", "chat", frozenset({"OSError", "TablePrepError"})),
        ("llm.py", "generate_candidates.one", frozenset({"RequestFailedError"})),
    }


def test_only_chat_sends_a_request_or_sleeps():
    """Every model request, and so every retry backoff, goes through
    ``llm.chat``: no other code in the package calls a transport's
    ``complete`` or ``time.sleep``."""
    sites = set()
    for path in sorted(Path(llm.__file__).parent.glob("*.py")):
        for node, scope in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
                node.func.attr == "complete" or ast.unparse(node.func) == "time.sleep"
            ):
                sites.add((path.name, scope))
    assert sites == {("llm.py", "chat")}


class _OkResponse:
    def __init__(self, content="[]"):
        self.content = content

    def raise_for_status(self):
        pass

    def json(self):
        return {"choices": [{"message": {"content": self.content}}]}


class _CountingSession:
    def __init__(self):
        self.posts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts += 1
        return _OkResponse()


class _InFlightSession:
    """Fake ``requests`` session recording the peak number of concurrent posts.

    Each post holds until ``together`` posts have been in flight at once, or
    ``hold_s`` has passed, so an unthrottled transport reliably reaches that
    peak and a throttled one is kept busy while it waits.
    """

    def __init__(self, together: int, hold_s: float = 0.05):
        self.together = together
        self.hold_s = hold_s
        self.in_flight = 0
        self.peak = 0
        self._cond = threading.Condition()

    def post(self, url, json=None, headers=None, timeout=None):
        with self._cond:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self._cond.notify_all()
            self._cond.wait_for(lambda: self.peak >= self.together, timeout=self.hold_s)
            self.in_flight -= 1
        return _OkResponse()


def _drive(transport, n: int, pool_size: int) -> list[str]:
    """Generates ``n`` candidates through ``transport`` on a request pool of ``pool_size``."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(pool_size) as pool:
            outcomes = generate_candidates("q", make_table(["a"], [[1]]), GenerationConfig(), transport, n, pool)
    finally:
        sys.setswitchinterval(interval)
    return [o.text for o in outcomes]


class TestRequestCap:
    """``run.request_cap`` is the size of the run's request pool; the transport itself never throttles."""

    def test_capped_transport_never_exceeds_cap(self):
        session = _InFlightSession(together=3)
        assert _drive(HttpChatTransport(session=session), n=8, pool_size=2) == ["[]"] * 8
        assert session.peak == 2

    def test_uncapped_transport_in_same_process_is_not_throttled(self):
        capped = _InFlightSession(together=3)
        _drive(HttpChatTransport(session=capped), n=4, pool_size=2)
        free = _InFlightSession(together=8, hold_s=5.0)
        assert _drive(HttpChatTransport(session=free), n=8, pool_size=8) == ["[]"] * 8
        assert capped.peak == 2 and free.peak == 8


def test_generation_config_validation():
    with pytest.raises(ValueError):
        GenerationConfig(timeout=0)
