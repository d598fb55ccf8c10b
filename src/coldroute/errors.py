"""Exception hierarchy shared by every coldroute module.

All domain errors derive from :class:`ColdRouteError` so callers (CLI,
service) can map "domain failure" to a single exit code / HTTP status
without enumerating causes.
"""

from __future__ import annotations


class ColdRouteError(Exception):
    """Base class for all coldroute domain errors."""


# --- graph construction ----------------------------------------------------

class DuplicateId(ColdRouteError):
    def __init__(self, node_id: str):
        super().__init__(f"duplicate id: {node_id!r}")


class DanglingReference(ColdRouteError):
    def __init__(self, ref_id: str, context: str = ""):
        msg = f"unresolved reference: {ref_id!r}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class ScoreOutOfRange(ColdRouteError):
    def __init__(self, model_id: str, benchmark_id: str, value: float):
        super().__init__(
            f"score {value!r} for ({model_id!r}, {benchmark_id!r}) outside the declared scale"
        )


class UnknownNode(ColdRouteError):
    def __init__(self, node_id: str):
        super().__init__(f"unknown node: {node_id!r}")


class InvalidGraph(ColdRouteError):
    """A structural invariant of the evidence graph is violated."""


# --- feature providers -----------------------------------------------------

class EncoderFailure(ColdRouteError):
    def __init__(self, node_id: str, cause: Exception | str):
        super().__init__(f"encoding failed for {node_id!r}: {cause}")


class EmptyText(ColdRouteError):
    def __init__(self, node_id: str):
        super().__init__(f"node {node_id!r} has no text to encode")


class TransportError(ColdRouteError):
    def __init__(self, detail: str, status: int | None = None):
        super().__init__(f"provider transport failure: {detail}")
        self.status = status


class ProviderTimeout(ColdRouteError):
    pass


class DimensionMismatch(ColdRouteError):
    def __init__(self, expected: int, got: int, context: str = ""):
        msg = f"dimension mismatch: expected {expected}, got {got}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class SummarizerFailure(ColdRouteError):
    def __init__(self, node_id: str, cause: Exception | str):
        super().__init__(f"summarization failed for {node_id!r}: {cause}")


class QueryNodeUpdateAttempt(ColdRouteError):
    def __init__(self, node_id: str):
        super().__init__(
            f"query node {node_id!r} keeps its raw text and is never rewritten"
        )


# --- numeric core ----------------------------------------------------------

class ShapeMismatch(ColdRouteError):
    pass


class NonFiniteLoss(ColdRouteError):
    def __init__(self, where: str):
        super().__init__(f"loss became non-finite at {where}")


class UninitializedEmbedding(ColdRouteError):
    def __init__(self, node_id: str):
        super().__init__(f"node {node_id!r} has no embedding; encode the graph first")


# --- profiles and routing --------------------------------------------------

class InvalidSpec(ColdRouteError):
    pass


class EmptyPool(ColdRouteError):
    def __init__(self) -> None:
        super().__init__("candidate pool is empty")


class UnknownModelInInteractions(ColdRouteError):
    def __init__(self, model_id: str):
        super().__init__(f"interaction references model outside the pool: {model_id!r}")


class UnassignedQuery(ColdRouteError):
    def __init__(self, query_id: str):
        super().__init__(f"query {query_id!r} has no task assignment")


class UnknownTask(ColdRouteError):
    def __init__(self, task_id: str):
        super().__init__(f"unknown task: {task_id!r}")


# --- evaluation ------------------------------------------------------------

class MissingReward(ColdRouteError):
    def __init__(self, query_id: str, model_id: str):
        super().__init__(f"no reward recorded for ({query_id!r}, {model_id!r})")


class EmptyTable(ColdRouteError):
    def __init__(self) -> None:
        super().__init__("reward table has no entries")


class LeakedInteraction(ColdRouteError):
    def __init__(self, model_id: str):
        super().__init__(
            f"training interactions mention the held-out model {model_id!r}"
        )


# --- configuration ---------------------------------------------------------

class ConfigError(ColdRouteError):
    pass
