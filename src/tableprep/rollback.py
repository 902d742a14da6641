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
from .errors import QaTransportError, TablePrepError
from .llm import GenerationConfig, chat, question_prompt
from .ops import Pipeline
from .reward import AnswerSet, contains_all_answers
from .semantic import SemanticExecutor
from .table import Table

NO_DATA = "No data available"  # the refusal the QA model is asked for
NO_DATA_PHRASE = NO_DATA.casefold()

QA_SYSTEM_PROMPT = (
    "You answer questions about the given table. Reply with the answer value "
    "only, no explanation. If the table does not contain the information "
    f'needed to answer, reply exactly: "{NO_DATA}".'
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
    if trace.steps:
        states = ((1, trace.final), (2, trace.steps[0].table_after), (3, table))
    else:
        states = ((3, table),)
    tried: list[tuple[int, int]] = []
    for state, candidate in states:
        tried.append((candidate.n_rows, candidate.n_cols))
        answer = _ask(qa, question, candidate, state=state)
        if state == 3 or not detect_no_data(answer):
            break
    return RollbackResult(
        answer=answer,
        state_used=state,
        qa_calls=len(tried),
        tables_tried=tuple(tried),
        trace=trace,
    )


def _ask(qa: QaClient, question: str, table: Table, state: int) -> str:
    try:
        return qa.ask(question, table)
    except TablePrepError as err:
        raise QaTransportError(f"rollback state {state}: {err}", state=state) from err


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
        return NO_DATA


class HttpQaClient:
    """Chat-completion QA client; prompts with the question plus the markdown table.

    The table is cut to ``config.prompt_max_rows`` rows. A request that
    fails raises :func:`~tableprep.llm.chat`'s ``RequestFailedError``.
    """

    def __init__(self, transport, config: GenerationConfig):
        self._transport = transport
        self._config = config

    def ask(self, question: str, table: Table) -> str:
        user = question_prompt(question, table, self._config.prompt_max_rows)
        return chat(self._transport, self._config, QA_SYSTEM_PROMPT, user)
