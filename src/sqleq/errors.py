"""Exception hierarchy shared across the toolkit."""


class SqleqError(Exception):
    """Base class for all toolkit errors."""


# --- parsing ---

class SqlSyntaxError(SqleqError):
    """Query text does not match the supported grammar.

    `offset` is the byte offset of the offending token; `expected` is a
    short hint of what the parser was looking for.
    """

    def __init__(self, message, offset, expected=None):
        super().__init__(message)
        self.offset = offset
        self.expected = expected

    def __str__(self):
        base = super().__str__()
        if self.expected:
            return f"{base} at offset {self.offset} (expected {self.expected})"
        return f"{base} at offset {self.offset}"


class UnsupportedConstruct(SqleqError):
    """Parse hit a construct outside the dialect subset."""


# --- schema / instances ---

class SchemaError(SqleqError):
    """Schema definition violates its invariants."""


class InstanceError(SqleqError):
    """Database instance does not conform to its schema."""


# --- planning ---

class PlanError(SqleqError):
    """Logical plan could not be built."""


class UnresolvedName(PlanError):
    """A table or column name resolves to nothing in scope."""


class AmbiguousColumn(PlanError):
    """An unqualified column name matches more than one relation."""


# --- execution ---

class ExecError(SqleqError):
    """Base for execution failures in the oracle interpreter."""


class UnsupportedFeature(ExecError):
    """Query uses a feature the interpreter does not execute
    (recursive CTEs, window functions)."""


class RuntimeExecError(ExecError):
    """Runtime violation during evaluation, e.g. a scalar subquery
    returning more than one row."""


# --- prompting ---

class BadExemplarSet(SqleqError):
    """Exemplar set violates the 2-equivalent / 2-non-equivalent rule."""


class EmptyExplanation(SqleqError):
    """Second-stage prompt received an empty explanation."""


class InsufficientPairs(SqleqError):
    """Dataset lacks enough labeled pairs to sample exemplars."""


# --- backend ---

class BackendError(SqleqError):
    """Base for completion-backend failures."""


class AuthError(BackendError):
    """Credential rejected; never retried."""


class ThrottledExhausted(BackendError):
    """Throttled on every attempt up to the retry limit."""


class TransportError(BackendError):
    """Connection-level failure persisted through all retries."""


class MalformedResponse(BackendError):
    """Endpoint returned JSON we cannot interpret as a completion."""


# --- dataset ingestion ---

class DatasetError(SqleqError):
    """Base for benchmark-dataset ingestion failures."""


class DatasetParseError(DatasetError):
    """A JSONL line is malformed or missing required fields."""

    def __init__(self, message, line_number):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class MissingSchema(DatasetError):
    """A pair references a schema name absent from the schemas file."""


class DuplicateId(DatasetError):
    """Two pairs share an id."""
