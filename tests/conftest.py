import random
from decimal import Decimal
from types import SimpleNamespace

import pytest

from tableprep.table import Table

CELL_TEXTS = ["x", "y", "q", "apple", "5"]

# the least magnitude that float() rounds to infinity: the largest float plus half its spacing
FLOAT_BOUND = 2**1024 - 2**970


def make_table(columns, rows) -> Table:
    """Build a table from plain Python values; ints become Decimals."""
    def conv(cell):
        if isinstance(cell, int) and not isinstance(cell, bool):
            return Decimal(cell)
        return cell

    return Table(tuple(columns), tuple(tuple(conv(c) for c in row) for row in rows))


def random_table(rng: random.Random, max_rows: int = 8, max_cols: int = 6) -> Table:
    n_cols = rng.randint(1, max_cols)
    columns = tuple(f"c{i}" for i in range(n_cols))
    n_rows = rng.randint(0, max_rows)

    def cell():
        roll = rng.random()
        if roll < 0.15:
            return None
        if roll < 0.55:
            return Decimal(rng.randint(0, 9))
        return rng.choice(CELL_TEXTS)

    rows = tuple(tuple(cell() for _ in columns) for _ in range(n_rows))
    return Table(columns, rows)


class SequenceQaClient:
    """Replays a fixed list of responses; repeats the last one when exhausted."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0

    def ask(self, question, table):
        response = self.responses[min(self.calls, len(self.responses) - 1)]
        self.calls += 1
        return response


class FlakyTransport:
    """Chat transport that records the messages of each request in ``sent``
    and fails the first ``fail_first`` calls per index, then succeeds; a
    failure is a ``ConnectionError``, as a transport may raise."""

    def __init__(self, text="[]", fail_first=0, dead_indices=()):
        self.text = text
        self.fail_first = fail_first
        self.dead_indices = set(dead_indices)
        self.attempts = {}
        self.sent = []

    def complete(self, messages, config, index=0):
        self.sent.append(messages)
        self.attempts[index] = self.attempts.get(index, 0) + 1
        if index in self.dead_indices:
            raise ConnectionError("permanently down")
        if self.attempts[index] <= self.fail_first:
            raise ConnectionError("transient")
        return self.text


@pytest.fixture
def backoffs(monkeypatch):
    """Records the retry backoffs ``tableprep.llm`` asks for instead of sleeping them."""
    from tableprep import llm

    slept = []
    monkeypatch.setattr(llm, "time", SimpleNamespace(sleep=slept.append))
    return slept


class CountingExecutor:
    """Mock semantic executor that counts invocations."""

    def __init__(self, value="v"):
        self.value = value
        self.infer_calls = 0
        self.rewrite_calls = 0

    def infer_column(self, table, new_column, description):
        self.infer_calls += 1
        return [self.value] * table.n_rows

    def rewrite_column(self, table, column, description):
        self.rewrite_calls += 1
        idx = table.columns.index(column)
        return [row[idx] for row in table.rows]


@pytest.fixture
def rng():
    return random.Random(20240817)
