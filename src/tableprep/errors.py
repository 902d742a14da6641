"""Exception hierarchy shared across the package.

A failure of input data, of a file's contents, of a model reply or of an
operator on its table raises a :class:`TablePrepError`, so the pipeline
engine can catch exactly the failures it is allowed to absorb (truncation
policy) while programming errors still propagate. A file that cannot be
opened raises Python's ``OSError``. A bad argument from library code is a
``ValueError`` (``AnswerSet(())``, ``GenerationConfig(timeout=0)``,
``as_fraction("x")``) or a ``TypeError`` (``apply_operator`` given a
non-spec), not a TablePrepError: a bad reward or gate setting, such as
``RewardConfig(l_cache=0)``, is refused by the config that holds it.
A chat transport fails by raising ``OSError``, as every ``requests`` error
does, or a :class:`TablePrepError`; ``llm.chat`` retries those, then raises
:class:`RequestFailedError`. Any other exception from a transport is a bug.
"""

from __future__ import annotations


class TablePrepError(Exception):
    """Base class for all tableprep errors."""


# --- table construction / ingestion ---

class DuplicateColumnError(TablePrepError):
    def __init__(self, column: str):
        super().__init__(f"duplicate column name: {column!r}")


class RaggedRowError(TablePrepError):
    def __init__(self, row_index: int, expected: int, got: int):
        super().__init__(f"row {row_index} has {got} cells, expected {expected}")


class EmptyInputError(TablePrepError):
    pass


class InvalidCellError(TablePrepError):
    pass


# --- operator parsing ---

class OperatorParseError(TablePrepError):
    pass


class UnknownOperatorError(OperatorParseError):
    def __init__(self, name: str):
        super().__init__(f"unknown operator: {name!r}")


class MissingParamError(OperatorParseError):
    def __init__(self, op: str, param: str):
        self.param = param
        super().__init__(f"operator {op!r} is missing parameter {param!r}")


class BadParamTypeError(OperatorParseError):
    def __init__(self, op: str, param: str, detail: str = ""):
        self.param = param
        msg = f"operator {op!r} has invalid parameter {param!r}"
        super().__init__(msg + (f": {detail}" if detail else ""))


class PipelineParseError(TablePrepError):
    def __init__(self, index: int, cause: Exception):
        self.index = index
        super().__init__(f"invalid operator at index {index}: {cause}")


# --- operator execution ---

class OperatorError(TablePrepError):
    """An operator failed on its input table. Trace truncation absorbs any
    :class:`TablePrepError`; an executor's bad cell is an InvalidCellError."""


class ColumnNotFoundError(OperatorError):
    def __init__(self, column: str):
        super().__init__(f"column not found: {column!r}")


class NoValidColumnsError(OperatorError):
    def __init__(self, requested: tuple[str, ...]):
        super().__init__(f"none of the requested columns exist: {list(requested)}")


class ColumnExistsError(OperatorError):
    def __init__(self, column: str):
        super().__init__(f"column already exists: {column!r}")


class ExecutorFailureError(OperatorError):
    """A semantic executor refused or failed; treated as an op failure."""


# --- reward computation ---

class DegenerateInitialTableError(TablePrepError):
    pass


# --- group gate ---

class EmptyGroupError(TablePrepError):
    pass


class GroupTooSmallError(TablePrepError):
    pass


# --- generation client ---

class EmptyQuestionError(TablePrepError):
    pass


class RequestFailedError(TablePrepError):
    """Every attempt of a model request failed; the last one's error is the cause."""


class AllRequestsFailedError(TablePrepError):
    pass


class NoJsonFoundError(TablePrepError):
    pass


# --- QA client ---

class QaTransportError(TablePrepError):
    """A QA client failed in rollback state ``state``."""

    def __init__(self, message: str, state: int):
        self.state = state
        super().__init__(message)


# --- CLI surface ---

class ConfigError(TablePrepError):
    pass


class AuthMissingError(ConfigError):
    """A client's ``api_key_env`` names an unset variable; raised when its
    transport is built, before any request."""

    def __init__(self, env_var: str):
        self.env_var = env_var
        super().__init__(f"API key environment variable {env_var!r} is not set")


class DatasetError(TablePrepError):
    pass
