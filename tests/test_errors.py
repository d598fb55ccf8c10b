"""The text of every domain error, built with arguments like its raise sites'."""

import pytest

from coldroute import errors

MESSAGES = [
    (errors.ColdRouteError, ("frozen-router contract violated: checkpoint changed",),
     "frozen-router contract violated: checkpoint changed"),
    (errors.DuplicateId, ("model_00_00",), "duplicate id: 'model_00_00'"),
    (errors.DanglingReference, ("q_ghost", "interaction query"),
     "unresolved reference: 'q_ghost' (interaction query)"),
    (errors.DanglingReference, ("fam_09", "family_of of 'model_00_00'"),
     "unresolved reference: 'fam_09' (family_of of 'model_00_00')"),
    (errors.ScoreOutOfRange, ("model_00_00", "bench_00_a", 1.5),
     "score 1.5 for ('model_00_00', 'bench_00_a') outside the declared scale"),
    (errors.ScoreOutOfRange, ("model_00_00", "bench_00_a", float("nan")),
     "score nan for ('model_00_00', 'bench_00_a') outside the declared scale"),
    (errors.UnknownNode, ("model_ghost",), "unknown node: 'model_ghost'"),
    (errors.InvalidGraph, ("edge without endpoints",), "edge without endpoints"),
    (errors.EncoderFailure, ("model_00_00", "non-finite entries"),
     "encoding failed for 'model_00_00': non-finite entries"),
    (errors.EncoderFailure, ("3 texts", ValueError("2 vectors for 3 texts")),
     "encoding failed for '3 texts': 2 vectors for 3 texts"),
    (errors.EmptyText, ("model_01",), "node 'model_01' has no text to encode"),
    (errors.TransportError, ("status 503", 503), "provider transport failure: status 503"),
    (errors.TransportError, ("URLError: refused",), "provider transport failure: URLError: refused"),
    (errors.ProviderTimeout, ("timed out",), "timed out"),
    (errors.DimensionMismatch, (64, 32, "query vector"),
     "dimension mismatch: expected 64, got 32 (query vector)"),
    (errors.SummarizerFailure, ("round 1", "3 outputs for 4 prompts"),
     "summarization failed for 'round 1': 3 outputs for 4 prompts"),
    (errors.SummarizerFailure, ("<remote>", errors.TransportError("malformed chat reply", 200)),
     "summarization failed for '<remote>': provider transport failure: malformed chat reply"),
    (errors.QueryNodeUpdateAttempt, ("q_00_0000",),
     "query node 'q_00_0000' keeps its raw text and is never rewritten"),
    (errors.ShapeMismatch, ("mse over empty arrays",), "mse over empty arrays"),
    (errors.NonFiniteLoss, ("epoch 3",), "loss became non-finite at epoch 3"),
    (errors.UninitializedEmbedding, ("model_00_00",),
     "node 'model_00_00' has no embedding; encode the graph first"),
    (errors.InvalidSpec, ("structured profiles need depth >= 1",),
     "structured profiles need depth >= 1"),
    (errors.EmptyPool, (), "candidate pool is empty"),
    (errors.UnknownModelInInteractions, ("ghost",),
     "interaction references model outside the pool: 'ghost'"),
    (errors.UnassignedQuery, ("q_00_0000",), "query 'q_00_0000' has no task assignment"),
    (errors.UnknownTask, ("<none>",), "unknown task: '<none>'"),
    (errors.MissingReward, ("q_00_0000", "model_00_00"),
     "no reward recorded for ('q_00_0000', 'model_00_00')"),
    (errors.EmptyTable, (), "reward table has no entries"),
    (errors.LeakedInteraction, ("model_new",),
     "training interactions mention the held-out model 'model_new'"),
    (errors.ConfigError, ("noise must lie in [0, 1)",), "noise must lie in [0, 1)"),
    (errors.ConfigError, ("a brace {0} is text",), "a brace {0} is text"),
]


@pytest.mark.parametrize("cls, args, text", MESSAGES,
                         ids=[f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(MESSAGES)])
def test_error_message(cls, args, text):
    exc = cls(*args)
    assert str(exc) == text
    assert isinstance(exc, errors.ColdRouteError)


def test_every_error_class_has_a_pinned_message():
    classes = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.ColdRouteError)}
    assert classes == {cls for cls, _, _ in MESSAGES}
    assert len(classes) == 25


def test_transport_error_keeps_its_status():
    assert errors.TransportError("status 429", 429).status == 429
    assert errors.TransportError("refused").status is None
