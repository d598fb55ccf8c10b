"""Exception hierarchy shared by every coldroute module.

All domain errors derive from :class:`ColdRouteError` so callers (CLI,
service) can map "domain failure" to a single exit code / HTTP status
without enumerating causes.  An error's text is its class's ``message``
template filled with the arguments it was raised with.
"""

from __future__ import annotations


class ColdRouteError(Exception):
    """Base class for all coldroute domain errors."""

    message = "{}"

    def __init__(self, *args) -> None:
        super().__init__(self.message.format(*args))


# --- graph construction ----------------------------------------------------

class DuplicateId(ColdRouteError):
    message = "duplicate id: {!r}"


class DanglingReference(ColdRouteError):
    message = "unresolved reference: {!r} ({})"


class ScoreOutOfRange(ColdRouteError):
    message = "score {2!r} for ({0!r}, {1!r}) outside the declared scale"


class UnknownNode(ColdRouteError):
    message = "unknown node: {!r}"


class InvalidGraph(ColdRouteError):
    """A structural invariant of the evidence graph is violated."""


# --- feature providers -----------------------------------------------------

class EncoderFailure(ColdRouteError):
    message = "encoding failed for {!r}: {}"


class EmptyText(ColdRouteError):
    message = "node {!r} has no text to encode"


class TransportError(ColdRouteError):
    message = "provider transport failure: {}"

    def __init__(self, detail: str, status: int | None = None):
        super().__init__(detail)
        self.status = status


class ProviderTimeout(ColdRouteError):
    pass


class DimensionMismatch(ColdRouteError):
    message = "dimension mismatch: expected {}, got {} ({})"


class SummarizerFailure(ColdRouteError):
    message = "summarization failed for {!r}: {}"


class QueryNodeUpdateAttempt(ColdRouteError):
    message = "query node {!r} keeps its raw text and is never rewritten"


# --- numeric core ----------------------------------------------------------

class ShapeMismatch(ColdRouteError):
    pass


class NonFiniteLoss(ColdRouteError):
    message = "loss became non-finite at {}"


class UninitializedEmbedding(ColdRouteError):
    message = "node {!r} has no embedding; encode the graph first"


# --- profiles and routing --------------------------------------------------

class InvalidSpec(ColdRouteError):
    pass


class EmptyPool(ColdRouteError):
    message = "candidate pool is empty"


class UnknownModelInInteractions(ColdRouteError):
    message = "interaction references model outside the pool: {!r}"


class UnassignedQuery(ColdRouteError):
    message = "query {!r} has no task assignment"


class UnknownTask(ColdRouteError):
    message = "unknown task: {!r}"


# --- evaluation ------------------------------------------------------------

class MissingReward(ColdRouteError):
    message = "no reward recorded for ({!r}, {!r})"


class EmptyTable(ColdRouteError):
    message = "reward table has no entries"


class LeakedInteraction(ColdRouteError):
    message = "training interactions mention the held-out model {!r}"


# --- configuration ---------------------------------------------------------

class ConfigError(ColdRouteError):
    pass
