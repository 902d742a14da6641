"""Chat-completion client for pipeline generation plus JSON extraction.

The wire protocol is the OpenAI-style chat completion JSON (messages array,
temperature, max_tokens). Transports are pluggable: the HTTP transport is the
production path, the scripted transport replays canned texts so the whole
stack runs offline and deterministically in tests.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, TypeVar

from .errors import (
    AllRequestsFailedError,
    AuthMissingError,
    EmptyQuestionError,
    NoJsonFoundError,
)
from .ops import Pipeline, parse_pipeline
from .table import Table, serialize_markdown

log = logging.getLogger(__name__)

_DECODER = json.JSONDecoder()

T = TypeVar("T")

GENERATOR_SYSTEM_PROMPT = """You are a data preparation planner for table question answering.
Given a question and a table, output a pipeline of table operators that \
reshapes the table so the answer is easy to read off.

Available operators, each a JSON object:
- {"operation": "select", "columns": ["colA", "colB"]} keep only these columns
- {"operation": "filter", "column": "col", "cmp": "==", "value": v} keep rows \
where the cell compares true; cmp is one of ==, !=, >, <, >=, <=
- {"operation": "sort_by", "column": "col", "order": "asc"|"desc", "k": n} \
sort rows; optional k keeps the top k rows
- {"operation": "group_by", "column": "col"} count occurrences of each \
distinct value
- {"operation": "add_column", "new_column": "name", "description": "..."} \
derive a new column from existing ones per the description
- {"operation": "clean_column", "column": "col", "description": "..."} \
normalize the column's values per the description

Every object may carry an "explanation" string. Output exactly one JSON array
of operator objects and nothing else. Output [] if no preparation helps."""


@dataclass(frozen=True)
class GenerationConfig:
    endpoint: str = "http://localhost:8000/v1/chat/completions"
    model: str = ""
    temperature: float = 0.8
    max_tokens: int = 1024
    n: int = 5
    timeout: float = 60.0
    retries: int = 2
    api_key_env: str | None = None
    prompt_max_rows: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("candidate count n must be >= 1")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


class ChatTransport(Protocol):
    def complete(self, messages: list[dict], config: GenerationConfig, index: int = 0) -> str:
        """Return the completion text for one request. ``index`` identifies the
        candidate slot so scripted transports stay deterministic under
        concurrency."""
        ...


class HttpChatTransport:
    """POSTs OpenAI-compatible chat completion requests with ``requests``."""

    def __init__(self, session=None):
        import requests

        self._session = session or requests.Session()

    def complete(self, messages: list[dict], config: GenerationConfig, index: int = 0) -> str:
        headers = {"Content-Type": "application/json"}
        if config.api_key_env:
            key = os.environ.get(config.api_key_env)
            if not key:
                raise AuthMissingError(config.api_key_env)
            headers["Authorization"] = f"Bearer {key}"
        payload = {
            "model": config.model,
            "messages": messages,
            "temperature": config.temperature,
            "max_tokens": config.max_tokens,
        }
        response = self._session.post(
            config.endpoint, json=payload, headers=headers, timeout=config.timeout
        )
        response.raise_for_status()
        body = response.json()
        return body["choices"][0]["message"]["content"]


class ScriptedTransport:
    """Offline transport replaying fixed texts; candidate i gets texts[i % len]."""

    def __init__(self, texts: Sequence[str]):
        if not texts:
            raise ValueError("scripted transport needs at least one text")
        self.texts = list(texts)
        self.calls = 0

    def complete(self, messages: list[dict], config: GenerationConfig, index: int = 0) -> str:
        self.calls += 1
        return self.texts[index % len(self.texts)]


class LoggingTransport:
    """Wraps a transport, appending request/response JSONL records to a file."""

    def __init__(self, inner, path: str):
        self._inner = inner
        self._path = path
        self._lock = threading.Lock()

    def _log(self, record: dict):
        with self._lock, open(self._path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")

    def complete(self, messages: list[dict], config: GenerationConfig, index: int = 0) -> str:
        try:
            text = self._inner.complete(messages, config, index)
        except Exception as err:
            self._log({"index": index, "messages": messages, "error": str(err)})
            raise
        self._log({"index": index, "messages": messages, "response": text})
        return text


def build_generation_prompt(question: str, table: Table, max_rows: int | None = None) -> list[dict]:
    """System + user messages sent to the pipeline generator."""
    if question.strip() == "":
        raise EmptyQuestionError("question must be non-empty")
    user = f"Question: {question}\n\nTable:\n{serialize_markdown(table, max_rows)}"
    return [
        {"role": "system", "content": GENERATOR_SYSTEM_PROMPT},
        {"role": "user", "content": user},
    ]


def call_with_retries(call: Callable[[], T], retries: int) -> T:
    """Return ``call()``, retrying up to ``retries`` times after a failure.

    Attempt ``k`` that fails is followed by a ``min(2**k * 0.1, 2.0)`` s
    backoff. A missing API key is raised at once, since retrying cannot fix
    it; once every attempt has failed, the last error propagates.
    """
    for attempt in range(retries):
        try:
            return call()
        except AuthMissingError:
            raise
        except Exception:
            time.sleep(min(2**attempt * 0.1, 2.0))
    return call()


@dataclass(frozen=True)
class GenerationOutcome:
    index: int
    text: str | None
    error: str | None = None


def generate_candidates(
    question: str,
    table: Table,
    config: GenerationConfig,
    transport: ChatTransport,
    pool: Executor | None = None,
) -> list[GenerationOutcome]:
    """Sample N candidate completions with index-stable ordering.

    The N requests run as tasks of ``pool``; with no pool they run one after
    another on the calling thread. Individual failures are retried up to
    ``config.retries`` times and then recorded per index rather than dropped.
    Raises only when every candidate failed or authentication is missing.
    """
    messages = build_generation_prompt(question, table, config.prompt_max_rows)

    def one(index: int) -> GenerationOutcome:
        try:
            text = call_with_retries(lambda: transport.complete(messages, config, index), config.retries)
        except AuthMissingError:
            raise
        except Exception as err:
            log.warning("candidate %d failed after %d attempts: %s", index, config.retries + 1, err)
            return GenerationOutcome(index, None, error=str(err))
        return GenerationOutcome(index, text)

    outcomes = list((pool.map if pool else map)(one, range(config.n)))
    if all(o.text is None for o in outcomes):
        raise AllRequestsFailedError(f"all {config.n} generation requests failed")
    return outcomes


def first_json_array(text: str):
    """Decode the first JSON-valid array in free text.

    Decoding is tried at each opening bracket in turn. A valid array ends at
    its string-aware balanced closing bracket, so brackets inside JSON string
    literals do not cut it short. Nesting too deep for the decoder counts as
    invalid.
    """
    start = text.find("[")
    while start != -1:
        try:
            return _DECODER.raw_decode(text, start)[0]
        except (json.JSONDecodeError, RecursionError):
            start = text.find("[", start + 1)
    return None


def extract_pipeline_json(raw: str) -> Pipeline:
    """Parse the first JSON array in a model response as a pipeline.

    Pipeline-level parse errors propagate so callers can record the reason;
    only the absence of any JSON array is reported as NoJsonFound.
    """
    doc = first_json_array(raw)
    if doc is None:
        raise NoJsonFoundError("no JSON array found in model output")
    return parse_pipeline(doc)
