"""Chat-completion client for pipeline generation plus JSON extraction.

The wire protocol is the OpenAI-style chat completion JSON (messages array,
temperature, max_tokens). Transports are pluggable: the HTTP transport is the
production path, the scripted transport replays canned texts so the whole
stack runs offline and deterministically in tests. :func:`chat` sends every
model request, the generator's, the QA client's and the semantic executor's,
with one retry policy.

:func:`extract_pipeline_json` keeps the last text it parsed and its pipeline,
so a run of identical candidate outputs parses once.
"""

from __future__ import annotations

import functools
import logging
import os
import re
import time
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Protocol, Sequence

from .errors import (
    AllRequestsFailedError,
    AuthMissingError,
    EmptyQuestionError,
    NoJsonFoundError,
    RequestFailedError,
    TablePrepError,
)
from .ops import Pipeline, parse_pipeline
from .table import CELL_DECODER, Table, serialize_markdown

log = logging.getLogger(__name__)

# A bracket where a JSON array can begin: optional whitespace, then "]" or the
# first character of a value. Every array the decoder accepts starts this way;
# \s and \d also admit non-ASCII whitespace and digits, which then fail to decode.
# Only the bracket is consumed, so a bracket inside the lookahead is still tried.
_ARRAY_START = re.compile(r'\[(?=\s*(?:[\]\[{"\-\d]|true|false|null|NaN|Infinity))')

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
    timeout: float = 60.0
    retries: int = 2
    api_key_env: str | None = None
    prompt_max_rows: int | None = None

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")


class ChatTransport(Protocol):
    def complete(self, messages: list[dict], config: GenerationConfig, index: int = 0) -> str:
        """Return the completion text for one request. ``index`` identifies the
        candidate slot so scripted transports stay deterministic under
        concurrency."""
        ...


class HttpChatTransport:
    """POSTs OpenAI-compatible chat completion requests with ``requests``.

    The API key is read once, here, from the environment variable
    ``api_key_env``; an unset or empty one raises :class:`AuthMissingError`
    before any request is made.
    """

    def __init__(self, api_key_env: str | None = None, session=None):
        import requests

        self._headers = {"Content-Type": "application/json"}
        if api_key_env:
            key = os.environ.get(api_key_env)
            if not key:
                raise AuthMissingError(api_key_env)
            self._headers["Authorization"] = f"Bearer {key}"
        self._session = session or requests.Session()

    def complete(self, messages: list[dict], config: GenerationConfig, index: int = 0) -> str:
        payload = {
            "model": config.model,
            "messages": messages,
            "temperature": config.temperature,
            "max_tokens": config.max_tokens,
        }
        response = self._session.post(
            config.endpoint, json=payload, headers=self._headers, timeout=config.timeout
        )
        response.raise_for_status()
        try:
            content = response.json()["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as err:
            raise TablePrepError("chat completion body has no choices[0].message.content") from err
        if not isinstance(content, str):
            raise TablePrepError(f"chat completion content is {type(content).__name__}, not text")
        return content


class ScriptedTransport:
    """Offline transport replaying fixed texts; candidate i gets texts[i % len]."""

    def __init__(self, texts: Sequence[str]):
        if not texts:
            raise ValueError("scripted transport needs at least one text")
        self.texts = list(texts)

    def complete(self, messages: list[dict], config: GenerationConfig, index: int = 0) -> str:
        return self.texts[index % len(self.texts)]


def question_prompt(question: str, table: Table, max_rows: int | None = None) -> str:
    """The user text the generator and the QA client share: the question and
    the table as markdown, cut to ``max_rows`` rows."""
    return f"Question: {question}\n\nTable:\n{serialize_markdown(table, max_rows)}"


def chat(transport: ChatTransport, config: GenerationConfig, system: str, user: str, index: int = 0) -> str:
    """Send one system + user request and return its completion text.

    Every model request in the package goes through here. A transport failure,
    an ``OSError`` (any ``requests`` error, a 4xx status too) or a
    :class:`TablePrepError`, is retried ``config.retries`` times, after a
    ``min(2**k * 0.1, 2.0)`` s backoff for failed attempt ``k``; then
    :class:`RequestFailedError` is raised from the last one, with its text.
    Any other exception is a bug and propagates at once, with no backoff.
    """
    messages = [{"role": "system", "content": system}, {"role": "user", "content": user}]
    attempt = 0
    while True:
        try:
            return transport.complete(messages, config, index)
        except (OSError, TablePrepError) as err:
            if attempt >= config.retries:
                raise RequestFailedError(str(err)) from err
            time.sleep(min(2**attempt * 0.1, 2.0))
        attempt += 1


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
    n: int,
    pool: Executor | None = None,
) -> list[GenerationOutcome]:
    """Sample ``n`` candidate completions with index-stable ordering.

    The ``n`` requests run as tasks of ``pool``; with no pool they run one after
    another on the calling thread. A request that fails (see :func:`chat`) is
    recorded per index rather than dropped. Raises
    :class:`AllRequestsFailedError` only when every candidate failed.
    """
    if question.strip() == "":
        raise EmptyQuestionError("question must be non-empty")
    user = question_prompt(question, table, config.prompt_max_rows)

    def one(index: int) -> GenerationOutcome:
        try:
            text = chat(transport, config, GENERATOR_SYSTEM_PROMPT, user, index)
        except RequestFailedError as err:
            log.warning("candidate %d failed after %d attempts: %s", index, config.retries + 1, err)
            return GenerationOutcome(index, None, error=str(err))
        return GenerationOutcome(index, text)

    outcomes = list((pool.map if pool else map)(one, range(n)))
    if all(o.text is None for o in outcomes):
        raise AllRequestsFailedError(f"all {n} generation requests failed")
    return outcomes


def first_json_array(text: str):
    """Decode the first JSON-valid array in free text.

    Decoding is tried, left to right, at each opening bracket followed by
    optional whitespace and the start of a JSON value or a closing bracket;
    other brackets (such as ``[note 1]``) cannot begin an array and are
    skipped without a decode. A valid array ends at its string-aware balanced
    closing bracket, so brackets inside JSON string literals do not cut it
    short. Nesting too deep for :data:`~tableprep.table.CELL_DECODER`, or a
    number over 4,300 digits, counts as invalid.
    """
    for match in _ARRAY_START.finditer(text):
        try:
            return CELL_DECODER.raw_decode(text, match.start())[0]
        except (ValueError, RecursionError):  # not JSON, a number over 4,300 digits, too deep
            pass
    return None


@functools.lru_cache(maxsize=1)
def extract_pipeline_json(raw: str) -> Pipeline:
    """Parse the first JSON array in a model response as a pipeline.

    Pipeline-level parse errors propagate so callers can record the reason;
    only the absence of any JSON array is reported as NoJsonFound. A text
    equal to the last one parsed, on any thread, returns that text's
    immutable pipeline object; a text that raised is not kept, so it raises
    again.
    """
    doc = first_json_array(raw)
    if doc is None:
        raise NoJsonFoundError("no JSON array found in model output")
    return parse_pipeline(doc)
