import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableprep.errors import (
    AllRequestsFailedError,
    AuthMissingError,
    EmptyQuestionError,
    NoJsonFoundError,
    PipelineParseError,
)
from tableprep.llm import (
    GENERATOR_SYSTEM_PROMPT,
    GenerationConfig,
    ScriptedTransport,
    HttpChatTransport,
    build_generation_prompt,
    call_with_retries,
    extract_pipeline_json,
    first_json_array,
    generate_candidates,
)
from tableprep.ops import Pipeline, SelectOp, pipeline_to_json

from conftest import FlakyTransport, make_table
from oracles import ref_first_json_array


_JSON_CHARS = ["[", "]", '"', "\\", ",", "{", "}", ":", "1", "a", "null", " "]
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


class TestBuildPrompt:
    def test_two_messages_constant_schema(self, table):
        messages = build_generation_prompt("which a?", table)
        assert len(messages) == 2
        assert messages[0] == {"role": "system", "content": GENERATOR_SYSTEM_PROMPT}
        assert "which a?" in messages[1]["content"]
        assert "| a | b |" in messages[1]["content"]

    def test_deterministic(self, table):
        assert build_generation_prompt("q", table) == build_generation_prompt("q", table)

    def test_row_cap_marker(self):
        big = make_table(["a"], [[i] for i in range(30)])
        messages = build_generation_prompt("q", big, max_rows=5)
        assert "(25 rows omitted)" in messages[1]["content"]

    def test_empty_question(self, table):
        with pytest.raises(EmptyQuestionError):
            build_generation_prompt("   ", table)


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
        assert first_json_array(text) == ref_first_json_array(text)


class TestGenerateCandidates:
    def test_all_succeed(self, table):
        cfg = GenerationConfig(n=3)
        outcomes = generate_candidates("q", table, cfg, ScriptedTransport(["[]", "x", "y"]))
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert [o.text for o in outcomes] == ["[]", "x", "y"]

    def test_partial_failure_recorded(self, table):
        cfg = GenerationConfig(n=3, retries=1)
        transport = FlakyTransport(dead_indices={1})
        outcomes = generate_candidates("q", table, cfg, transport)
        assert outcomes[1].text is None
        assert "permanently down" in outcomes[1].error
        assert outcomes[0].text == "[]" and outcomes[2].text == "[]"

    def test_retry_then_success(self, table):
        cfg = GenerationConfig(n=1, retries=2)
        transport = FlakyTransport(fail_first=2)
        outcomes = generate_candidates("q", table, cfg, transport)
        assert outcomes[0].text == "[]"
        assert transport.attempts[0] == 3

    def test_all_fail(self, table):
        cfg = GenerationConfig(n=2, retries=0)
        with pytest.raises(AllRequestsFailedError):
            generate_candidates("q", table, cfg, FlakyTransport(dead_indices={0, 1}))

    def test_auth_missing_before_any_request(self, table, monkeypatch):
        monkeypatch.delenv("TP_TEST_KEY", raising=False)
        session = _CountingSession()
        cfg = GenerationConfig(n=2, api_key_env="TP_TEST_KEY")
        with pytest.raises(AuthMissingError):
            generate_candidates("q", table, cfg, HttpChatTransport(session=session))
        assert session.posts == 0

    def test_index_stable_under_concurrency(self, table):
        cfg = GenerationConfig(n=5)
        with ThreadPoolExecutor(5) as pool:
            outcomes = generate_candidates("q", table, cfg, ScriptedTransport(["a", "b", "c", "d", "e"]), pool)
        assert [o.text for o in outcomes] == ["a", "b", "c", "d", "e"]

    def test_never_more_than_n(self, table):
        cfg = GenerationConfig(n=2)
        outcomes = generate_candidates("q", table, cfg, ScriptedTransport(["a"]))
        assert len(outcomes) == 2


class TestHttpTransportShape:
    def test_payload_and_auth_header(self, table, monkeypatch):
        captured = {}

        class FakeSession:
            def post(self, url, json=None, headers=None, timeout=None):
                captured.update(url=url, payload=json, headers=headers, timeout=timeout)
                return _OkResponse()

        monkeypatch.setenv("TP_KEY", "secret")
        transport = HttpChatTransport(session=FakeSession())
        cfg = GenerationConfig(endpoint="http://x/v1/chat/completions", model="m",
                               api_key_env="TP_KEY", temperature=0.8, max_tokens=64)
        messages = build_generation_prompt("q", table)
        assert transport.complete(messages, cfg) == "[]"
        assert captured["url"] == "http://x/v1/chat/completions"
        assert captured["payload"]["model"] == "m"
        assert captured["payload"]["messages"] == messages
        assert captured["payload"]["temperature"] == 0.8
        assert captured["headers"]["Authorization"] == "Bearer secret"


class TestCallWithRetries:
    def test_recovers_with_backoff_schedule(self, backoffs):
        transport = FlakyTransport(fail_first=3)
        assert call_with_retries(lambda: transport.complete([], None), retries=5) == "[]"
        assert transport.attempts[0] == 4
        assert backoffs == [0.1, 0.2, 0.4]

    def test_exhausted_raises_last_error_with_capped_backoff(self, backoffs):
        transport = FlakyTransport(dead_indices={0})
        with pytest.raises(RuntimeError, match="permanently down"):
            call_with_retries(lambda: transport.complete([], None), retries=6)
        assert transport.attempts[0] == 7
        assert backoffs == [0.1, 0.2, 0.4, 0.8, 1.6, 2.0]

    def test_zero_retries_is_one_attempt(self, backoffs):
        transport = FlakyTransport(fail_first=1)
        with pytest.raises(RuntimeError, match="transient"):
            call_with_retries(lambda: transport.complete([], None), retries=0)
        assert transport.attempts[0] == 1 and backoffs == []

    def test_auth_missing_not_retried(self, backoffs):
        calls = []

        def call():
            calls.append(1)
            raise AuthMissingError("TP_KEY")

        with pytest.raises(AuthMissingError):
            call_with_retries(call, retries=3)
        assert len(calls) == 1 and backoffs == []


class _OkResponse:
    def raise_for_status(self):
        pass

    def json(self):
        return {"choices": [{"message": {"content": "[]"}}]}


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
            outcomes = generate_candidates("q", make_table(["a"], [[1]]), GenerationConfig(n=n), transport, pool)
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
        GenerationConfig(n=0)
    with pytest.raises(ValueError):
        GenerationConfig(timeout=0)
