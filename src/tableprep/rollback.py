"""QA-model abstraction and the three-state adaptive rollback machine.

The QA model signals insufficiency by answering "No data available". Rollback
then retries on tables with progressively less preparation: the full pipeline
result, then only the first operator's result, then the original table. The
third answer is final whatever it says.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from .engine import ExecutionTrace, execute
from .errors import QaTransportError
from .llm import GenerationConfig, call_with_retries
from .ops import Pipeline
from .reward import AnswerSet, contains_all_answers
from .semantic import SemanticExecutor
from .table import Table, serialize_markdown, table_digest

NO_DATA_PHRASE = "no data available"

QA_SYSTEM_PROMPT = (
    "You answer questions about the given table. Reply with the answer value "
    "only, no explanation. If the table does not contain the information "
    'needed to answer, reply exactly: "No data available".'
)


def detect_no_data(response: str) -> bool:
    """True iff the response contains the refusal phrase, case-insensitively,
    after collapsing whitespace runs."""
    normalized = " ".join(response.split()).casefold()
    return NO_DATA_PHRASE in normalized


class QaClient(Protocol):
    def ask(self, question: str, table: Table) -> str:
        """Return the model's raw answer text for the question over the table."""
        ...


@dataclass(frozen=True)
class RollbackResult:
    answer: str
    state_used: int
    qa_calls: int
    tables_tried: tuple[tuple[int, int], ...]  # (rows, cols) per QA call
    trace: ExecutionTrace  # state-1 trace, kept so callers never re-execute


def answer_with_rollback(
    question: str,
    table: Table,
    pipeline: Pipeline,
    qa: QaClient,
    executor: SemanticExecutor | None = None,
) -> RollbackResult:
    """Ask over the prepared table, falling back on "No data available".

    State 1 submits the fully prepared table, state 2 the result of the first
    operator only (reused from the state-1 trace, so semantic ops never run
    twice), state 3 the original table. At most three QA calls; the state-3
    response is returned verbatim. With an empty pipeline all three states
    would submit the same table, so a single state-3 call is made.
    """
    trace = execute(pipeline, table, executor)

    if len(pipeline) == 0:
        answer = _ask(qa, question, table, state=3)
        return RollbackResult(
            answer=answer,
            state_used=3,
            qa_calls=1,
            tables_tried=((table.n_rows, table.n_cols),),
            trace=trace,
        )

    first_op_table = trace.steps[0].table_after if trace.steps else table
    states = ((1, trace.final), (2, first_op_table), (3, table))
    tried: list[tuple[int, int]] = []
    answer = ""
    state_used = 1
    for state, candidate in states:
        tried.append((candidate.n_rows, candidate.n_cols))
        answer = _ask(qa, question, candidate, state=state)
        state_used = state
        if state == 3 or not detect_no_data(answer):
            break
    return RollbackResult(
        answer=answer,
        state_used=state_used,
        qa_calls=len(tried),
        tables_tried=tuple(tried),
        trace=trace,
    )


def _ask(qa: QaClient, question: str, table: Table, state: int) -> str:
    try:
        return qa.ask(question, table)
    except QaTransportError as err:
        err.state = state
        raise


class ScriptedQaClient:
    """Deterministic mock keyed by (question, table digest).

    ``responses`` maps ``(question, digest)`` to the reply; ``default`` is
    returned for unknown keys, so "never answers" behavior is one line.
    """

    def __init__(self, responses: dict[tuple[str, str], str] | None = None,
                 default: str = "No data available"):
        self.responses = dict(responses or {})
        self.default = default

    def ask(self, question: str, table: Table) -> str:
        return self.responses.get((question, table_digest(table)), self.default)


class CellLookupQaClient:
    """Mock that answers with the first expected value present as a cell.

    ``expected`` maps each question to its acceptable answer strings. If none
    of them matches a cell rendering of the submitted table, the client reports
    missing data, which is exactly what drives rollback in fixtures.
    """

    def __init__(self, expected: dict[str, list[str]]):
        self.expected = dict(expected)

    def ask(self, question: str, table: Table) -> str:
        for answer in self.expected.get(question, []):
            if contains_all_answers(table, AnswerSet.of(answer)):
                return answer
        return "No data available"


class HttpQaClient:
    """Chat-completion QA client; prompts with the question plus the markdown table.

    The table is cut to ``config.prompt_max_rows`` rows; failed requests are
    retried ``config.retries`` times before a QaTransportError is raised.
    """

    def __init__(self, transport, config: GenerationConfig):
        self._transport = transport
        self._config = config

    def build_messages(self, question: str, table: Table) -> list[dict]:
        user = (
            f"Question: {question}\n\nTable:\n"
            f"{serialize_markdown(table, self._config.prompt_max_rows)}"
        )
        return [
            {"role": "system", "content": QA_SYSTEM_PROMPT},
            {"role": "user", "content": user},
        ]

    def ask(self, question: str, table: Table) -> str:
        messages = self.build_messages(question, table)
        try:
            return call_with_retries(
                lambda: self._transport.complete(messages, self._config), self._config.retries
            )
        except QaTransportError:
            raise
        except Exception as err:
            raise QaTransportError(f"QA transport failed: {err}") from err
