"""Routing layer: candidate pools, decisions, the three routers, and
frozen-router integration of new models."""

import copy
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from coldroute.config import Pipeline, PoolState, build_world_graph, load_config
from coldroute.errors import (
    ConfigError,
    DanglingReference,
    DimensionMismatch,
    DuplicateId,
    EmptyPool,
    EmptyText,
    InvalidSpec,
    UnassignedQuery,
    UnknownModelInInteractions,
    UnknownTask,
)
from coldroute.evaluation import SynthWorldConfig, synth_world
from coldroute.graph import EvidenceGraph, ModelCard, NodeKind, add_model_node
from coldroute.profiles import (
    Profile,
    ProfileSpec,
    make_profiles,
    traingnn_fit,
    traingnn_states,
)
from coldroute.providers import Providers, Summarizer, TextEncoder, encode_all
from coldroute.routers import (
    CandidatePool,
    GraphRouterLite,
    InteractionRecord,
    MlpRouter,
    RoutingDecision,
    SimRouter,
    graphrouter_fit,
    integrate_new_model,
    load_interactions,
    load_router,
    load_tasks,
    mlp_fit,
    router_checksum,
    save_interactions,
    save_router,
    save_tasks,
    sim_route,
)

from conftest import FIXTURE_DIR, graph_router_full_step, graph_router_oracle


def _profile(model_id: str, vec) -> Profile:
    return Profile(model_id, ProfileSpec.parse("emb:1"), np.asarray(vec, dtype=np.float64))


# --- records and files -----------------------------------------------------

def test_interaction_reward_bounds():
    InteractionRecord("q", "m", 0.0)
    InteractionRecord("q", "m", 1.0)
    for bad in (-0.1, 1.0001, 7.0):
        with pytest.raises(ConfigError):
            InteractionRecord("q", "m", bad)


def test_interactions_round_trip_and_duplicate_rejection(tmp_path):
    records = [InteractionRecord("q_0000", "m_00", 1.0), InteractionRecord("q_0001", "m_00", 0.0)]
    path = tmp_path / "inter.jsonl"
    save_interactions(records, path)
    assert load_interactions(path) == records
    path.write_text(path.read_text() * 2)  # every pair now appears twice
    with pytest.raises(ConfigError):
        load_interactions(path)


def test_tasks_round_trip(tmp_path):
    assignment = {"q_0001": "task_00", "q_0000": "task_01"}
    path = tmp_path / "tasks.jsonl"
    save_tasks(assignment, path)
    assert load_tasks(path) == assignment


# --- candidate pool --------------------------------------------------------

def test_pool_order_lookup_and_guards():
    pool = CandidatePool([_profile("m_01", [1.0, 0.0]), _profile("m_00", [0.0, 1.0])])
    assert pool.ids == ["m_01", "m_00"]  # insertion order preserved
    assert len(pool) == 2 and "m_00" in pool and "ghost" not in pool
    assert pool.dim == 2
    matrix = pool.matrix()
    assert np.array_equal(matrix, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert pool.matrix() is matrix  # stacked once per pool
    with pytest.raises(ValueError):
        matrix[0, 0] = 2.0
    with pytest.raises(DuplicateId):
        CandidatePool([*pool.profiles(), _profile("m_00", [0.5, 0.5])])
    with pytest.raises(DimensionMismatch):
        CandidatePool([*pool.profiles(), _profile("m_02", [1.0, 2.0, 3.0])])
    with pytest.raises(EmptyPool):
        _ = CandidatePool().dim


def test_profile_is_a_value():
    given = np.array([1.0, 2.0])
    profile = _profile("m_00", given)
    given[0] = 9.0  # the caller's array, such as an encoder's return value
    assert profile.vector.tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        profile.vector[0] = 0.0
    with pytest.raises(FrozenInstanceError):
        profile.vector = np.zeros(2)


def test_pool_state_round_trip(tmp_path):
    pool = CandidatePool([_profile("m_00", [0.25, -0.5]), _profile("m_01", [1.0, 0.125])])
    card = ModelCard("m_01", "fam_00", "A model.", {"bench_00_a": 0.5})
    path = tmp_path / "state.json"
    pipe = Pipeline(load_config(FIXTURE_DIR / "integrate.json"))
    PoolState(pipe, pool, path, [card]).write()
    back, cards = PoolState.read(path)
    assert back.ids == pool.ids
    assert np.array_equal(back.matrix(), pool.matrix())
    assert back.get("m_00").spec.short() == "emb:1"
    assert cards == [card]


# --- decisions -------------------------------------------------------------

def test_decision_tie_breaks_to_smallest_id():
    decision = RoutingDecision.from_scores("q", {"m_02": 0.7, "m_00": 0.7, "m_01": 0.2})
    assert decision.chosen == "m_00"


def test_decision_rejects_empty_scores():
    with pytest.raises(EmptyPool):
        RoutingDecision.from_scores("q", {})


# --- similarity router -----------------------------------------------------

def test_sim_route_hand_cosines():
    pool = CandidatePool([_profile("m_a", [1.0, 1.0]), _profile("m_b", [0.0, 1.0])])
    decision = sim_route(np.array([1.0, 0.0]), pool, query_id="q")
    assert decision.chosen == "m_a"
    assert decision.scores["m_a"] == pytest.approx(1.0 / np.sqrt(2.0))
    assert decision.scores["m_b"] == pytest.approx(0.0)


def test_sim_route_zero_vectors_score_zero():
    pool = CandidatePool([_profile("m_a", [0.0, 0.0]), _profile("m_b", [1.0, 0.0])])
    assert sim_route(np.array([1.0, 0.0]), pool).scores["m_a"] == 0.0
    assert sim_route(np.zeros(2), pool).scores["m_b"] == 0.0
    with pytest.raises(EmptyPool):
        sim_route(np.ones(2), CandidatePool())


def test_sim_route_scores_are_the_per_profile_cosines():
    rng = np.random.default_rng(11)
    vectors = [rng.normal(size=8) for _ in range(6)] + [np.zeros(8)]
    vectors.append(vectors[2].copy())  # a twin of m_02: a tie the smaller id wins
    pool = CandidatePool([_profile(f"m_{i:02d}", v) for i, v in enumerate(vectors)])
    for q in [rng.normal(size=8) for _ in range(5)] + [vectors[2], np.zeros(8)]:
        decision = sim_route(q, pool)
        for p in pool.profiles():
            denom = np.linalg.norm(q) * np.linalg.norm(p.vector)
            want = 0.0 if denom == 0.0 else float(q @ p.vector) / denom
            assert abs(decision.scores[p.model_id] - want) <= 1e-12
        assert decision.scores["m_06"] == 0.0
        best = max(decision.scores.values())
        assert decision.chosen == min(m for m, v in decision.scores.items() if v == best)
    assert sim_route(vectors[2], pool).chosen == "m_02"
    twins = CandidatePool([_profile(f"m_{i:02d}", vectors[0]) for i in range(13)])
    for q in [rng.normal(size=8) for _ in range(20)]:
        decision = sim_route(q, twins)
        assert len(set(decision.scores.values())) == 1 and decision.chosen == "m_00"


def test_sim_route_scale_invariance():
    rng = np.random.default_rng(3)
    pool_a = CandidatePool([_profile(f"m_{i:02d}", rng.normal(size=8)) for i in range(4)])
    pool_b = CandidatePool(
        [_profile(p.model_id, 10.0 * p.vector) for p in pool_a.profiles()]
    )
    q = rng.normal(size=8)
    da, db = sim_route(q, pool_a), sim_route(0.5 * q, pool_b)
    assert da.chosen == db.chosen
    for mid in da.scores:
        assert da.scores[mid] == pytest.approx(db.scores[mid], abs=1e-12)


def test_sim_router_checkpoint_round_trip(tmp_path):
    router = SimRouter(dim=8)
    path = tmp_path / "sim.json"
    save_router(router, path)
    back = load_router(path)
    assert isinstance(back, SimRouter) and back.dim == 8
    assert router_checksum(back) == router_checksum(router)


# --- two-tower router ------------------------------------------------------

def test_mlp_fit_loss_decreases_and_is_mostly_monotone(fixture_world):
    pool, query_vecs, _, interactions = fixture_world
    router = mlp_fit(interactions, query_vecs, pool, hidden=32, epochs=60, seed=0)
    trace = router.loss_trace
    assert len(trace) == 60
    assert trace[-1] < trace[0]
    drops = sum(1 for a, b in zip(trace, trace[1:]) if b <= a + 1e-12)
    assert drops / (len(trace) - 1) >= 0.9


def test_mlp_fit_without_interactions_is_fresh_init(fixture_world):
    pool, _, _, _ = fixture_world
    router = mlp_fit([], {}, pool, hidden=16, seed=0)
    fresh = MlpRouter.create(pool.dim, 16, np.random.default_rng(0))
    assert router.loss_trace == []
    for a, b in zip(router.params(), fresh.params()):
        assert np.array_equal(a, b)


def test_mlp_fit_validation(fixture_world):
    pool, query_vecs, _, _ = fixture_world
    with pytest.raises(UnknownModelInInteractions):
        mlp_fit([InteractionRecord("q_00_0000", "ghost", 1.0)], query_vecs, pool)
    with pytest.raises(DanglingReference):
        mlp_fit([InteractionRecord("q_ghost", "model_00_00", 1.0)], query_vecs, pool)
    with pytest.raises(ConfigError, match="duplicate interaction"):
        mlp_fit([InteractionRecord("q_00_0000", "model_00_00", 1.0)] * 2, query_vecs, pool)


def test_mlp_checkpoint_round_trip(fixture_world, tmp_path):
    pool, query_vecs, _, interactions = fixture_world
    router = mlp_fit(interactions, query_vecs, pool, hidden=16, epochs=5, seed=0)
    path = tmp_path / "mlp.json"
    save_router(router, path)
    back = load_router(path)
    assert isinstance(back, MlpRouter)
    assert router_checksum(back) == router_checksum(router)
    q = query_vecs["q_00_0000"]
    da, db = router.route(q, pool, query_id="q_00_0000"), back.route(q, pool, query_id="q_00_0000")
    assert da.chosen == db.chosen
    assert da.scores == db.scores


def _twins(rng: np.random.Generator, dim: int) -> CandidatePool:
    """13 models with one profile, inserted out of id order."""
    vec = rng.normal(size=dim)
    return CandidatePool([_profile(f"m_twin_{i:02d}", vec) for i in rng.permutation(13)])


def test_mlp_twins_score_exactly_equal(fixture_world):
    pool, query_vecs, _, interactions = fixture_world
    for trial in range(10):
        rng = np.random.default_rng(trial)
        router = mlp_fit(interactions, query_vecs, pool, hidden=32, epochs=2, seed=trial)
        decision = router.route(rng.normal(size=pool.dim), _twins(rng, pool.dim), query_id="q_x")
        assert len(set(decision.scores.values())) == 1
        assert decision.chosen == "m_twin_00"  # equal scores resolve to the smallest id


def test_mlp_route_runs_the_profile_tower_once_per_pool(fixture_world, monkeypatch):
    pool, query_vecs, _, interactions = fixture_world
    router = mlp_fit(interactions, query_vecs, pool, hidden=16, epochs=3, seed=0)
    rows: dict[str, list[int]] = {name: [] for name, _ in router.named_layers()}
    names = {id(layer): name for name, layer in router.named_layers()}
    call = type(router.p1).__call__

    def counted_call(layer, x):
        rows[names[id(layer)]].append(x.shape[0])
        return call(layer, x)

    monkeypatch.setattr(type(router.p1), "__call__", counted_call)
    qids = sorted(query_vecs)[:5]
    for qid in qids:
        decision = router.route(query_vecs[qid], pool, query_id=qid)
        expected = router.predict(query_vecs[qid], pool.matrix())
        assert np.array_equal([decision.scores[m] for m in pool.ids], expected)  # bit for bit
    routed = [1] * len(qids)
    # the first route runs the tower on the pool; predict runs it on every call
    assert rows["p1"] == rows["p2"] == [len(pool)] * (len(qids) + 1)
    assert rows["q1"] == rows["q2"] == [1, 1] * len(qids)

    for name in rows:
        rows[name].clear()
    for qid in qids:
        router.route(query_vecs[qid], pool, query_id=qid)
    assert rows == {"q1": routed, "q2": routed, "p1": [], "p2": []}

    another = CandidatePool(pool.profiles())  # an equal pool, but another object
    again = router.route(query_vecs[qids[0]], another, query_id=qids[0])
    assert rows["p1"] == rows["p2"] == [len(pool)]
    assert again.scores == router.route(query_vecs[qids[0]], pool, query_id=qids[0]).scores


def test_inference_leaves_only_parameters_on_the_layers(fixture_world, fixture_graph):
    pool, query_vecs, _, interactions = fixture_world
    router = mlp_fit(interactions, query_vecs, pool, hidden=8, epochs=2, seed=0)
    router.route(query_vecs["q_00_0000"], pool, query_id="q")
    aggregator = traingnn_fit(fixture_graph, ProfileSpec.parse("train:2"), seed=0, epochs=2)
    traingnn_states(aggregator, fixture_graph)
    for model in (router, aggregator):
        for name, layer in model.named_layers():
            assert set(vars(layer)) == {"W", "b"}, name


def test_checksum_reacts_to_any_weight_change(fixture_world):
    pool, query_vecs, _, interactions = fixture_world
    router = mlp_fit(interactions, query_vecs, pool, hidden=16, epochs=2, seed=0)
    before = router_checksum(router)
    router.q1.W[0, 0] += 1e-9
    assert router_checksum(router) != before


# --- graph router ----------------------------------------------------------

def test_graphrouter_requires_known_task(fixture_world):
    pool, query_vecs, tasks, interactions = fixture_world
    router = graphrouter_fit(tasks, query_vecs, interactions, pool, hidden=16, epochs=2, seed=0)
    q = query_vecs["q_00_0000"]
    with pytest.raises(UnknownTask):
        router.route(q, pool, query_id="q_x")  # no task given
    with pytest.raises(UnknownTask):
        router.route(q, pool, query_id="q_x", task_id="task_99")
    with pytest.raises(EmptyPool):
        router.route(q, CandidatePool(), query_id="q_x", task_id="task_00")


def test_graphrouter_fit_validation(fixture_world):
    pool, query_vecs, tasks, interactions = fixture_world
    with pytest.raises(UnknownModelInInteractions):
        graphrouter_fit(tasks, query_vecs, [InteractionRecord("q_00_0000", "ghost", 1.0)], pool)
    partial_tasks = {q: t for q, t in tasks.items() if q != "q_00_0000"}
    with pytest.raises(UnassignedQuery):
        graphrouter_fit(partial_tasks, query_vecs, interactions, pool)
    doubled = interactions + interactions[:1]
    with pytest.raises(ConfigError):
        graphrouter_fit(tasks, query_vecs, doubled, pool)


def test_graphrouter_step_matches_the_full_graph_step(fixture_world):
    pool, query_vecs, tasks, interactions = fixture_world
    router = graphrouter_fit(tasks, query_vecs, interactions, pool, hidden=16, epochs=0)
    graph = router._compile(pool.profiles())
    q_all = np.asarray([graph.index[("q", r.query_id)] for r in interactions])
    m_all = np.asarray([graph.index[("m", r.model_id)] for r in interactions])
    rewards = np.asarray([r.reward for r in interactions])
    rng = np.random.default_rng(7)
    one_query = np.flatnonzero(q_all == q_all[0])  # one query row against every model
    batches = [rng.choice(len(q_all), size=size, replace=False) for size in (1, 5, 17)]
    batches += [one_query, rng.choice(len(q_all), size=40, replace=True), np.arange(len(q_all))]
    for batch in batches:
        loss, grads = router.loss_and_grads(graph, q_all[batch], m_all[batch], rewards[batch])
        want_loss, want = graph_router_full_step(
            router, graph, q_all[batch], m_all[batch], rewards[batch]
        )
        assert abs(loss - want_loss) <= 1e-12
        assert any(np.any(g != 0.0) for g in want)
        for got, ref in zip(grads, want, strict=True):
            assert np.max(np.abs(got - ref)) <= 1e-12


def test_graphrouter_fit_follows_the_full_graph_steps(fixture_world, monkeypatch):
    pool, query_vecs, tasks, interactions = fixture_world
    fit = graphrouter_fit(tasks, query_vecs, interactions, pool, hidden=16, epochs=4, batch_size=8)
    monkeypatch.setattr(GraphRouterLite, "loss_and_grads", graph_router_full_step)
    ref = graphrouter_fit(tasks, query_vecs, interactions, pool, hidden=16, epochs=4, batch_size=8)
    for got, want in zip(fit.params(), ref.params(), strict=True):
        assert np.max(np.abs(got - want)) <= 1e-12
    assert np.allclose(fit.loss_trace, ref.loss_trace, rtol=0.0, atol=1e-12)


def test_graphrouter_identical_profiles_identical_scores(fixture_world):
    _, query_vecs, tasks, _ = fixture_world
    vec = np.asarray(query_vecs["q_00_0000"])
    pool = CandidatePool([_profile("m_twin_a", vec), _profile("m_twin_b", vec)])
    router = graphrouter_fit(tasks, query_vecs, [], pool, hidden=16, seed=0)
    decision = router.route(query_vecs["q_01_0003"], pool, query_id="q_x", task_id="task_01")
    assert decision.scores["m_twin_a"] == decision.scores["m_twin_b"]
    assert decision.chosen == "m_twin_a"  # equal scores resolve to the smaller id


def test_graphrouter_twins_score_exactly_equal(fixture_world):
    old, query_vecs, tasks, interactions = fixture_world
    for trial in range(40):
        rng = np.random.default_rng(trial)
        router = graphrouter_fit(tasks, query_vecs, interactions, old, epochs=2, seed=trial)
        twins = _twins(rng, old.dim)  # integrated models: no reward edges
        decision = router.route(rng.normal(size=old.dim), twins, query_id="q_x", task_id="task_01")
        assert len(set(decision.scores.values())) == 1
        assert decision.chosen == "m_twin_00"  # equal scores resolve to the smallest id


def test_graphrouter_zero_profile_is_the_floor(fixture_world):
    pool, query_vecs, tasks, interactions = fixture_world
    pool = CandidatePool([*pool.profiles(), _profile("model_99_99", np.zeros(pool.dim))])
    router = graphrouter_fit(tasks, query_vecs, interactions, pool, hidden=16, epochs=30, seed=0)
    for qid in sorted(tasks):
        decision = router.route(query_vecs[qid], pool, query_id=qid, task_id=tasks[qid])
        assert decision.scores["model_99_99"] == 0.5  # sigmoid(0), exactly
        assert all(s >= 0.5 for s in decision.scores.values())
        assert decision.chosen != "model_99_99"


def test_graphrouter_single_task_all_ones(providers):
    enc = providers.encoder
    pool = CandidatePool([_profile("model_00", enc.encode("a steady generalist model"))])
    tasks = {f"q_{i:04d}": "task_00" for i in range(3)}
    query_vecs = {q: enc.encode(f"question number {i}") for i, q in enumerate(sorted(tasks))}
    interactions = [InteractionRecord(q, "model_00", 1.0) for q in sorted(tasks)]

    short = graphrouter_fit(tasks, query_vecs, interactions, pool, hidden=16, seed=0)
    preds = [
        short.route(query_vecs[q], pool, query_id=q, task_id="task_00").scores["model_00"]
        for q in sorted(tasks)
    ]
    assert min(preds) > 0.5  # moved off the sigmoid floor under default budget
    assert short.loss_trace[-1] < short.loss_trace[0]

    long = graphrouter_fit(tasks, query_vecs, interactions, pool, hidden=16, epochs=2000, seed=0)
    preds = [
        long.route(query_vecs[q], pool, query_id=q, task_id="task_00").scores["model_00"]
        for q in sorted(tasks)
    ]
    assert min(preds) >= 0.9


def test_graphrouter_loss_mostly_monotone(fixture_world):
    pool, query_vecs, tasks, interactions = fixture_world
    router = graphrouter_fit(tasks, query_vecs, interactions, pool, hidden=16, epochs=60, seed=0)
    trace = router.loss_trace
    assert len(trace) == 60 and trace[-1] < trace[0]
    drops = sum(1 for a, b in zip(trace, trace[1:]) if b <= a + 1e-12)
    assert drops / (len(trace) - 1) >= 0.9


def test_graphrouter_routing_never_mutates_parameters(fixture_world):
    pool, query_vecs, tasks, interactions = fixture_world
    router = graphrouter_fit(tasks, query_vecs, interactions, pool, hidden=16, epochs=3, seed=0)
    before = router_checksum(router)
    snapshots = [p.copy() for p in router.params()]
    for qid in sorted(tasks):
        router.route(query_vecs[qid], pool, query_id=qid, task_id=tasks[qid])
    assert router_checksum(router) == before
    for snap, param in zip(snapshots, router.params()):
        assert np.array_equal(snap, param)


def _assert_oracle_scores(router, pool, probes):
    for vec, task_id in probes:
        decision = router.route(vec, pool, query_id="q_probe", task_id=task_id)
        expected = graph_router_oracle(router, pool, vec, task_id)
        assert sorted(decision.scores) == sorted(expected) == sorted(pool.ids)
        assert max(abs(decision.scores[m] - expected[m]) for m in expected) <= 1e-12


def test_graphrouter_scores_match_full_assembly_oracle(fixture_graph, providers, fixture_world):
    pool, query_vecs, tasks, interactions = fixture_world
    router = graphrouter_fit(tasks, query_vecs, interactions, pool, hidden=16, epochs=30, seed=0)
    probes = [(query_vecs[q], tasks[q]) for q in sorted(tasks)]  # every task, training queries
    probes += [
        (providers.encoder.encode(f"an unseen question for {t}"), t)
        for t in sorted(set(tasks.values()))
    ]
    _assert_oracle_scores(router, pool, probes)

    spec = ProfileSpec.parse("emb:2")
    pool = integrate_new_model(pool, fixture_graph, _new_card(), spec, providers)
    _assert_oracle_scores(router, pool, probes)

    # same ids, new profiles: a new pool, so the compiled graph must not be reused
    halved = replace(pool.get("model_00_00"), vector=pool.get("model_01_01").vector * 0.5)
    pool = CandidatePool([halved if p.model_id == halved.model_id else p for p in pool.profiles()])
    _assert_oracle_scores(router, pool, probes)
    # a profile cannot be rewritten in place, so a compiled pool cannot go stale
    with pytest.raises(ValueError):
        pool.get("model_01_00").vector[:] = 0.0
    _assert_oracle_scores(router, pool, probes)


class _UnwalkableList(list):
    def __iter__(self):
        raise AssertionError("routing walked the interaction list")


def test_graphrouter_route_does_not_walk_interactions_per_request(fixture_world):
    pool, query_vecs, tasks, interactions = fixture_world
    router = graphrouter_fit(tasks, query_vecs, interactions, pool, hidden=16, epochs=3, seed=0)
    first = router.route(query_vecs["q_00_0000"], pool, query_id="q_a", task_id=tasks["q_00_0000"])
    router.interactions = _UnwalkableList(router.interactions)
    for qid in sorted(tasks):
        router.route(query_vecs[qid], pool, query_id=qid, task_id=tasks[qid])
    again = router.route(query_vecs["q_00_0000"], pool, query_id="q_a", task_id=tasks["q_00_0000"])
    assert again.scores == first.scores


def test_graphrouter_route_runs_the_network_on_two_rows(fixture_graph, providers, fixture_world,
                                                         monkeypatch):
    pool, query_vecs, tasks, interactions = fixture_world
    router = graphrouter_fit(tasks, query_vecs, interactions, pool, hidden=16, epochs=3, seed=0)
    compiled: list[int] = []
    sides: list[tuple[object, str]] = []  # holds each graph, so no two share an id
    compile_, task_side = GraphRouterLite._compile, GraphRouterLite._task_side

    def counted_compile(self, profiles):
        compiled.append(len(profiles))
        return compile_(self, profiles)

    def counted_side(self, graph, task_id):
        sides.append((graph, task_id))
        return task_side(self, graph, task_id)

    monkeypatch.setattr(GraphRouterLite, "_compile", counted_compile)
    monkeypatch.setattr(GraphRouterLite, "_task_side", counted_side)
    task_ids = sorted(set(tasks.values()))
    for qid in sorted(tasks):  # every task, several times
        router.route(query_vecs[qid], pool, query_id=qid, task_id=tasks[qid])
    assert compiled == [len(pool)]
    assert sorted(task for _, task in sides) == task_ids

    rows: dict[str, list[int]] = {name: [] for name, _ in router.named_layers()}
    names = {id(layer): name for name, layer in router.named_layers()}
    call = type(router.prop1).__call__

    def counted_call(layer, x):
        rows[names[id(layer)]].append(x.shape[0])
        return call(layer, x)

    monkeypatch.setattr(type(router.prop1), "__call__", counted_call)
    for t in task_ids:
        router.route(providers.encoder.encode(f"a new question for {t}"), pool, task_id=t)
    assert rows == {"prop1": [2] * len(task_ids), "prop2": [1] * len(task_ids),
                    "decoder": [1] * len(task_ids)}
    assert len(compiled) == 1 and len(sides) == len(task_ids)

    # a grown pool is another pool: compiled again, and each task's side made again
    grown = integrate_new_model(pool, fixture_graph, _new_card(), ProfileSpec.parse("emb:2"),
                                providers)
    for t in task_ids * 2:
        router.route(query_vecs["q_00_0000"], grown, task_id=t)
    assert compiled == [len(pool), len(grown)]
    assert len({(id(graph), task) for graph, task in sides}) == len(sides) == 2 * len(task_ids)


def test_graphrouter_rejects_wrong_query_dimension(fixture_world):
    pool, query_vecs, tasks, interactions = fixture_world
    router = graphrouter_fit(tasks, query_vecs, interactions, pool, hidden=16, epochs=2, seed=0)
    with pytest.raises(DimensionMismatch):
        router.route(np.ones(pool.dim + 1), pool, query_id="q_x", task_id="task_00")


def test_graphrouter_checkpoint_round_trip(fixture_world, tmp_path):
    pool, query_vecs, tasks, interactions = fixture_world
    router = graphrouter_fit(tasks, query_vecs, interactions, pool, hidden=16, epochs=3, seed=0)
    path = tmp_path / "gr.json"
    save_router(router, path)
    back = load_router(path)
    assert isinstance(back, GraphRouterLite)
    assert router_checksum(back) == router_checksum(router)
    q = query_vecs["q_01_0002"]
    da = router.route(q, pool, query_id="q_01_0002", task_id="task_01")
    db = back.route(q, pool, query_id="q_01_0002", task_id="task_01")
    assert da.scores == db.scores


def test_load_router_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "mystery"}')
    with pytest.raises(ConfigError):
        load_router(path)


# --- frozen integration ----------------------------------------------------

def _new_card() -> ModelCard:
    return ModelCard(
        "model_02_00",
        "fam_01",
        "A compact model tuned for refactoring and linting chores.",
        {"bench_01_a": 0.8},
    )


def test_integrate_grows_pool_and_freezes_everything_else(fixture_graph, providers, fixture_world):
    pool, query_vecs, tasks, interactions = fixture_world
    router = graphrouter_fit(tasks, query_vecs, interactions, pool, hidden=16, epochs=3, seed=0)
    checksum = router_checksum(router)
    old_vectors = {mid: pool.get(mid).vector.copy() for mid in pool.ids}
    nodes_before = len(fixture_graph.node_ids)

    grown = integrate_new_model(
        pool, fixture_graph, _new_card(), ProfileSpec.parse("emb:2"), providers
    )
    assert grown.get("model_02_00").model_id == "model_02_00"
    assert grown.ids[-1] == "model_02_00" and len(grown) == len(old_vectors) + 1
    assert pool.ids == list(old_vectors)  # the pool passed in is left as it was
    assert len(fixture_graph.node_ids) == nodes_before + 1
    assert router_checksum(router) == checksum
    for mid, vec in old_vectors.items():
        assert np.array_equal(grown.get(mid).vector, vec)
    # the integrated model is immediately scoreable
    decision = router.route(
        query_vecs["q_01_0000"], grown, query_id="q_01_0000", task_id="task_01"
    )
    assert "model_02_00" in decision.scores


def test_integrate_rejects_duplicates(fixture_graph, providers, fixture_world):
    pool, *_ = fixture_world
    card = ModelCard("model_00_00", "fam_00", "Already present.", {})
    with pytest.raises(DuplicateId):
        integrate_new_model(pool, fixture_graph, card, ProfileSpec.parse("emb:1"), providers)


def test_integrate_trainable_requires_frozen_aggregator(fixture_graph, providers, fixture_world):
    pool, *_ = fixture_world
    spec = ProfileSpec.parse("train:1")
    with pytest.raises(InvalidSpec):
        integrate_new_model(pool, fixture_graph, _new_card(), spec, providers)
    trained = traingnn_fit(fixture_graph, spec, seed=0, epochs=2)
    grown = integrate_new_model(pool, fixture_graph, _new_card(), spec, providers, trained=trained)
    assert grown.get("model_02_00").vector.shape == (pool.dim,)


@pytest.mark.parametrize("short", ["flat", "text:2", "emb:2", "train:2"])
def test_registration_reads_no_whole_graph_view(
    fixture_graph, providers, fixture_world, monkeypatch, short
):
    """Admission reads the graph's index, its arrays and the neighbours of
    nodes near the new one, never a sorted view of every node or edge."""
    pool, *_ = fixture_world
    spec = ProfileSpec.parse(short)
    trained = traingnn_fit(fixture_graph, spec, seed=0, epochs=1) if short == "train:2" else None

    def whole_graph_view(_graph):
        raise AssertionError("registration read a whole-graph view")

    monkeypatch.setattr(EvidenceGraph, "node_ids", property(whole_graph_view))
    monkeypatch.setattr(EvidenceGraph, "edges", property(whole_graph_view))
    grown = integrate_new_model(pool, fixture_graph, _new_card(), spec, providers, trained=trained)
    assert grown.ids[-1] == grown.get("model_02_00").model_id == "model_02_00"


# --- the provider requests of one admission ---------------------------------

class _CountingEncoder(TextEncoder):
    """Delegates to ``inner`` and keeps the texts of each batch call; one
    ``encode`` is a batch of one."""

    def __init__(self, inner: TextEncoder):
        self.inner, self.dim, self.batches = inner, inner.dim, []

    def encode(self, text):
        return self.encode_batch([text])[0]

    def encode_batch(self, texts):
        self.batches.append(list(texts))
        return self.inner.encode_batch(texts)


class _CountingSummarizer(Summarizer):
    """Delegates to ``inner`` and keeps every prompt."""

    def __init__(self, inner: Summarizer):
        self.inner, self.prompts = inner, []

    def summarize(self, prompt):
        return self.summarize_batch([prompt])[0]

    def summarize_batch(self, prompts):
        self.prompts.extend(prompts)
        return self.inner.summarize_batch(prompts)


def _counting(providers: Providers) -> Providers:
    return Providers(_CountingEncoder(providers.encoder), _CountingSummarizer(providers.summarizer))


@pytest.mark.parametrize("short", ["flat", "text:2", "emb:2", "train:2"])
def test_admission_sends_one_embedding_request(fixture_graph, providers, fixture_world, short):
    pool, *_ = fixture_world
    spec = ProfileSpec.parse(short)
    trained = traingnn_fit(fixture_graph, spec, seed=0, epochs=1) if short == "train:2" else None
    counting = _counting(providers)
    card = _new_card()
    grown = integrate_new_model(pool, fixture_graph, card, spec, counting, trained=trained)
    profile = grown.get(card.id)
    assert len(counting.encoder.batches) == 1
    assert counting.encoder.batches[0][0] == card.description
    # the same row and profile as encoding the row first and profiling after
    assert np.array_equal(fixture_graph.embedding(card.id), providers.encoder.encode(card.description))
    again = make_profiles(fixture_graph, spec, [card.id], providers, trained=trained)[card.id]
    assert np.array_equal(profile.vector, again.vector) and profile.text == again.text


def test_text_admission_prompts_only_the_ball_it_reads(providers):
    """Hop 1 rewrites the new model and its non-query neighbours, hop 2 the
    new model alone: 8 prompts for a card of the benchmark's admission, a
    family and five scores."""
    world = synth_world(SynthWorldConfig(seed=1, num_domains=8, models_per_specialty=3,
                                         queries_per_domain=20))
    graph = build_world_graph(world.cards, 64, providers)
    pool = CandidatePool([])
    benches = ["bench_00_a", "bench_00_b", "bench_03_a", "bench_05_b", "bench_07_a"]
    card = ModelCard("model_new_000", "fam_00", "A newly released assistant model.",
                     dict.fromkeys(benches, 0.5))
    counting = _counting(providers)
    integrate_new_model(pool, graph, card, ProfileSpec.parse("text:2"), counting)
    ball = [card.id] + [nb for nb in graph.neighbors(card.id)
                        if graph.node(nb).kind is not NodeKind.QUERY]
    assert len(ball) == 7
    assert len(counting.summarizer.prompts) == len(ball) + 1 == 8
    assert len(counting.encoder.batches) == 1


@pytest.mark.parametrize("short", ["flat", "text:2", "emb:2", "train:2"])
def test_blank_card_is_refused_before_any_provider_request(
    fixture_graph, providers, fixture_world, short
):
    pool, *_ = fixture_world
    spec = ProfileSpec.parse(short)
    trained = traingnn_fit(fixture_graph, spec, seed=0, epochs=1) if short == "train:2" else None
    counting = _counting(providers)
    ids = list(fixture_graph.ids)
    with pytest.raises(EmptyText):
        integrate_new_model(pool, fixture_graph, replace(_new_card(), description="  "), spec,
                            counting, trained=trained)
    assert counting.encoder.batches == [] and counting.summarizer.prompts == []
    assert fixture_graph.ids == ids and "model_02_00" not in pool


def test_make_profiles_refuses_a_trainable_spec_without_its_aggregator(fixture_graph, providers):
    add_model_node(fixture_graph, _new_card())  # an unset row, so a request would show
    counting = _counting(providers)
    with pytest.raises(InvalidSpec):
        make_profiles(fixture_graph, ProfileSpec.parse("train:2"), ["model_02_00"], counting)
    assert counting.encoder.batches == [] and counting.summarizer.prompts == []


def test_make_profiles_encodes_an_unset_row_with_the_profile_text(fixture_graph, providers):
    spec, card = ProfileSpec.parse("text:2"), _new_card()
    add_model_node(fixture_graph, card)
    first = copy.deepcopy(fixture_graph)  # encoded first, profiled after
    encode_all(first, providers.encoder)
    want = make_profiles(first, spec, [card.id], providers)[card.id]
    counting = _counting(providers)
    got = make_profiles(fixture_graph, spec, [card.id], counting)[card.id]
    assert counting.encoder.batches == [[card.description, want.text]]
    assert np.array_equal(fixture_graph.features, first.features)
    assert got.text == want.text and np.array_equal(got.vector, want.vector)
