"""Exception hierarchy for the KSpot reproduction.

Every error raised by the library derives from :class:`KSpotError`, so
applications can catch a single base class. Subsystems raise the most
specific subclass that applies.
"""

from __future__ import annotations


class KSpotError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(KSpotError):
    """A scenario, topology, or component was configured inconsistently."""


class QueryError(KSpotError):
    """Base class for errors in the SQL-like query pipeline."""


class LexError(QueryError):
    """The query text contains a character sequence that is not a token."""

    def __init__(self, message: str, position: int, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.position = position
        self.line = line
        self.column = column


class ParseError(QueryError):
    """The token stream does not form a valid query."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        if line or column:
            super().__init__(f"{message} (line {line}, column {column})")
        else:
            super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(QueryError):
    """The query parsed but is semantically invalid for the schema."""


class PlanError(QueryError):
    """No execution plan could be produced for a valid query."""


class SessionError(PlanError):
    """Base class of the session-lifecycle taxonomy (``repro.api``).

    Subclasses :class:`PlanError` because the pre-facade server raised
    ``PlanError`` for every session mishap — existing ``except
    PlanError`` handlers keep working while new code catches precisely.
    """


class UnknownSessionError(SessionError):
    """A session id does not name any registered session."""


class SubmissionError(SessionError):
    """A submission was rejected before a session could open (e.g. the
    deployment's admission limit reached) — the query itself may be
    perfectly valid. Note it still inherits :class:`QueryError` through
    the compatibility chain, so catch ``SubmissionError`` *before* a
    broad ``except QueryError`` to tell admission rejections apart from
    malformed queries."""


class TopologyError(ConfigurationError):
    """The network topology is unusable (e.g. disconnected from the sink)."""


class RoutingError(KSpotError):
    """A message could not be routed (dead parent, unknown destination)."""


class StorageError(KSpotError):
    """Base class for local-storage failures on a node."""


class ProtocolError(KSpotError):
    """An algorithm received a message that violates its protocol phase."""


class CertificationError(KSpotError):
    """A result was requested before its top-k certification completed."""


class ScenarioError(ConfigurationError):
    """A scenario configuration file is malformed."""
