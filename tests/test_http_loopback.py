"""The three ``http`` clients over a real socket.

A stdlib chat-completion server on ``127.0.0.1`` answers each request by its
system prompt, from the same scripts the mock clients read, so a run with
every client in ``http`` mode can be checked against the mock run's report.
These tests open sockets, so they stay outside criterion 8's ``no_network``
guard, which every mock-backed run keeps.
"""

import json
import os
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from click.testing import CliRunner

from tableprep.cli import main
from tableprep.config import GeneratorFactory, build_qa_client, build_semantic_executor, load_config
from tableprep.engine import FAILED, execute
from tableprep.errors import QaTransportError
from tableprep.llm import GENERATOR_SYSTEM_PROMPT, generate_candidates
from tableprep.ops import AddColumnOp, Pipeline
from tableprep.rollback import NO_DATA, QA_SYSTEM_PROMPT, answer_with_rollback
from tableprep.semantic import LlmSemanticExecutor

from conftest import make_table

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
KEY_ENV = "TABLEPREP_LOOPBACK_KEY"


def fx(name):
    return os.path.join(FIXTURES, name)


def _read_json(path):
    with open(path, encoding="utf-8-sig") as fh:
        return json.load(fh)


def _mock_data(config_path, section, key):
    """A mock client's data as the config gives it: inline, or the file it names."""
    data = _read_json(config_path).get(section, {}).get(key, {})
    return _read_json(os.path.join(os.path.dirname(config_path), data)) if isinstance(data, str) else data


class ScriptedModels:
    """Answers a chat request as the mock client of its system prompt would.

    The generator's reply is keyed by the instance whose question the request
    carries; the k-th request for one instance gets candidate k's text, so the
    run must send its candidates one at a time. The QA model looks the
    expected answers up in the markdown table's cells, and the semantic model
    applies the first rule whose pattern occurs in the description to the
    cells of each row of its markdown table.
    """

    def __init__(self, config_path, dataset_path):
        self.scripts = _mock_data(config_path, "generator", "script")
        self.default_texts = _read_json(config_path).get("generator", {}).get("default_texts", ["[]"])
        self.expected = _mock_data(config_path, "qa", "script")
        self.rules = _mock_data(config_path, "semantic_executor", "rules")
        with open(dataset_path, encoding="utf-8") as fh:
            self.ids = {doc["question"]: doc["id"] for doc in map(json.loads, filter(str.strip, fh))}
        self.asked = Counter()
        self.lock = threading.Lock()

    def __call__(self, system, user):
        if system == GENERATOR_SYSTEM_PROMPT:
            question = _question(user)
            texts = self.scripts.get(self.ids[question], self.default_texts)
            with self.lock:
                self.asked[question] += 1
                return texts[(self.asked[question] - 1) % len(texts)]
        if system == QA_SYSTEM_PROMPT:
            cells = {cell for row in _markdown_rows(user.split("\nTable:\n", 1)[1]) for cell in row}
            return next((a for a in self.expected.get(_question(user), []) if a in cells), NO_DATA)
        assert system == LlmSemanticExecutor.SYSTEM_PROMPT
        instruction, rest = user.split("\n", 1)
        description = instruction.split(": ", 2)[2]
        mapping = next((m for pattern, m in self.rules.items() if pattern in description), {})
        listed = _markdown_rows("\n".join(rest.split("\n")[1:-1]))
        return json.dumps([next((mapping[cell] for cell in cells if cell in mapping), None) for cells in listed])


def _question(user):
    return user.split("\n", 1)[0].removeprefix("Question: ")


def _markdown_rows(text):
    """The fields of each row of a markdown table, the header and the ``---``
    line dropped; the fixtures' cells hold no character the markdown escapes."""
    return [line[2:-2].split(" | ") for line in text.splitlines()[2:]]


class ChatServer(ThreadingHTTPServer):
    """A chat-completion endpoint on loopback. It records each request's
    headers and JSON body in ``posts``, then answers with ``reply(body)``: a
    status and the response body's bytes."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.url = f"http://127.0.0.1:{self.server_port}/v1/chat/completions"
        self.posts = []
        self.stopping = threading.Event()
        self.reply = lambda body: (500, b"no reply configured")

    def answer_with(self, models):
        """Reply to each request with a completion holding ``models(system, user)``."""
        self.reply = lambda body: (200, completion(models(*(m["content"] for m in body["messages"]))))

    def fail_first(self, failures, status, payload, delay=0.0):
        """Answer the first ``failures`` requests with ``status`` and ``payload``
        after ``delay`` seconds, and every later one with the completion ``[]``."""
        def reply(body):
            if len(self.posts) > failures:
                return 200, completion("[]")
            self.stopping.wait(delay)
            return status, payload

        self.reply = reply

    def handle_error(self, request, client_address):
        pass  # a client that timed out has closed its socket before the reply


def completion(text):
    return json.dumps({"choices": [{"message": {"content": text}}]}).encode()


class _ChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.posts.append((dict(self.headers), body))
        status, payload = self.server.reply(body)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args):
        pass


@pytest.fixture
def server(monkeypatch):
    """A fresh loopback chat server, shut down on exit; the API key is set."""
    monkeypatch.setenv(KEY_ENV, "sekrit")
    chat = ChatServer()
    thread = threading.Thread(target=chat.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield chat
    chat.stopping.set()
    chat.shutdown()
    chat.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def http_config(tmp_path, base, server, **client_keys):
    """``base`` (a config file) with every client in ``http`` mode against ``server``."""
    doc = _read_json(base)
    for section in ("generator", "qa", "semantic_executor"):
        doc[section] = {"mode": "http", "endpoint": server.url, "api_key_env": KEY_ENV, **client_keys}
    doc["run"]["request_cap"] = 1  # the server tells candidates apart by their order
    path = tmp_path / "http_config.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("base", ["run_config.json", "noprep_config.json"])
def test_a_run_over_http_writes_the_mock_report(tmp_path, server, base):
    server.answer_with(ScriptedModels(fx(base), fx("run_instances.jsonl")))
    runner = CliRunner()
    reports = []
    for name, config in (("mock", fx(base)), ("http", http_config(tmp_path, fx(base), server, model="m"))):
        out = tmp_path / f"{name}.json"
        result = runner.invoke(main, ["run", "--dataset", fx("run_instances.jsonl"), "--config", config,
                                      "--out", str(out)], catch_exceptions=False)
        assert result.exit_code == 0, result.output
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    systems = Counter(body["messages"][0]["content"] for _, body in server.posts)
    assert systems[GENERATOR_SYSTEM_PROMPT] == 20 * 3 and systems[QA_SYSTEM_PROMPT] >= 20
    assert systems[LlmSemanticExecutor.SYSTEM_PROMPT] == (base == "run_config.json")
    assert all(headers["Authorization"] == "Bearer sekrit" and body["model"] == "m" for headers, body in server.posts)


TABLE = make_table(["City", "Score"], [["Paris", 3], ["Lima", 5]])


def _generate(config):
    """The generator records a failed candidate and samples the next one."""
    transport = GeneratorFactory(config).transport_for("i01", "q")
    failed, ok = generate_candidates("q", TABLE, config.generator.settings, transport, 2)
    assert (failed.text, ok.text) == (None, "[]")
    return failed.error


def _ask(config):
    """The QA client's error names its rollback state."""
    with pytest.raises(QaTransportError, match="^rollback state 3: ") as caught:
        answer_with_rollback("q", TABLE, Pipeline(), build_qa_client(config))
    return str(caught.value)


def _infer(config):
    """A semantic step fails, and the trace records its error."""
    trace = execute(Pipeline([AddColumnOp("Zone", "infer the zone")]), TABLE, build_semantic_executor(config))
    assert trace.steps[0].status == FAILED and trace.final == TABLE
    return trace.steps[0].error


# each client's failure text, and how many requests beyond the failed ones it sends
CLIENTS = {"generator": (_generate, 1), "qa": (_ask, 0), "semantic_executor": (_infer, 0)}


@pytest.mark.parametrize("client", list(CLIENTS))
def test_a_slow_model_times_out_and_is_retried_per_client(tmp_path, server, client, backoffs):
    delay = 2.0
    server.fail_first(2, 200, completion("[]"), delay)
    config = load_config(http_config(tmp_path, fx("run_config.json"), server, timeout=0.2, retries=1))
    use, more = CLIENTS[client]
    started = time.perf_counter()
    text = use(config)
    elapsed = time.perf_counter() - started
    assert "Read timed out. (read timeout=0.2)" in text
    assert len(server.posts) == 2 + more and backoffs == [0.1]  # one retry after the first timeout
    assert 0.38 <= elapsed < delay  # each attempt is cut at the client's 0.2 s timeout


@pytest.mark.parametrize("client", list(CLIENTS))
@pytest.mark.parametrize("status, body, text", [
    (500, b"{}", "500 Server Error: Internal Server Error"),
    (200, b"not json", "Expecting value"),
    (200, b'{"choices": []}', "chat completion body has no choices[0].message.content"),
    (200, b'{"choices": [{"message": {"content": 7}}]}', "chat completion content is int, not text"),
])
def test_an_error_status_or_a_malformed_body_fails_the_request(tmp_path, server, client, status, body, text, backoffs):
    server.fail_first(3, status, body)
    config = load_config(http_config(tmp_path, fx("run_config.json"), server, retries=2))
    use, more = CLIENTS[client]
    assert text in use(config)
    assert len(server.posts) == 3 + more and backoffs == [0.1, 0.2]
