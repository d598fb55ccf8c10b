"""Evidence-graph construction, validation, and propagation coefficients."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from coldroute.errors import (
    DanglingReference,
    DuplicateId,
    InvalidGraph,
    NotAdjacent,
    ScoreOutOfRange,
    UnknownNode,
)
from coldroute.graph import (
    BenchmarkCard,
    DomainCard,
    Edge,
    EdgeKind,
    EvidenceGraph,
    FamilyCard,
    ModelCard,
    Node,
    NodeKind,
    Propagation,
    QueryRecord,
    add_model_node,
    build_graph,
    closed_neighborhood,
    normalize_score,
    propagation_coefficient,
    remove_node,
)

from conftest import dense_propagation_matrix, random_graph, tiny_cards


def _build(cards, dim=4):
    return build_graph(
        cards.families, cards.models, cards.benchmarks, cards.domains, cards.queries, dim
    )


# --- construction ----------------------------------------------------------

def test_fixture_graph_shape(fixture_cards):
    graph = _build(fixture_cards, dim=64)
    # 2 domains + 3 benchmarks + 2 families + 4 models + 24 queries
    assert len(graph) == 35
    # 3 benchmark-domain + 4 model-family + 9 score + 24 query-benchmark edges
    assert len(graph.edges) == 40


def test_percent_scale_score_becomes_unit_weight(fixture_cards):
    graph = _build(fixture_cards, dim=8)
    edge = graph.edge_between("model_00_00", "bench_00_b")
    assert edge.weight == pytest.approx(0.85)
    assert graph.score_scales["bench_00_b"] == "percent"
    assert graph.score_scales["bench_00_a"] == "unit"


def test_scoreless_model_has_only_family_edge(fixture_cards):
    graph = _build(fixture_cards, dim=8)
    assert graph.neighbors("model_01_01") == ["fam_01"]


def test_normalize_score_cases():
    assert normalize_score(0.42, "unit", "m", "b") == pytest.approx(0.42)
    assert normalize_score(85.0, "percent", "m", "b") == pytest.approx(0.85)
    assert normalize_score(0.0, "unit", "m", "b") == 0.0
    assert normalize_score(100.0, "percent", "m", "b") == 1.0
    for value, scale in [(1.2, "unit"), (-0.1, "unit"), (140.0, "percent"), (-5.0, "percent")]:
        with pytest.raises(ScoreOutOfRange):
            normalize_score(value, scale, "m", "b")


def test_duplicate_and_dangling_cards_rejected():
    cards = tiny_cards()
    cards.models.append(ModelCard("model_00", "fam_00", "A twin id.", {}))
    with pytest.raises(DuplicateId):
        _build(cards)

    cards = tiny_cards()
    cards.models[0] = ModelCard("model_00", "fam_99", "Lost family.", {})
    with pytest.raises(DanglingReference):
        _build(cards)

    cards = tiny_cards()
    cards.queries[0] = QueryRecord("q_0000", "bench_99", "Lost benchmark?")
    with pytest.raises(DanglingReference):
        _build(cards)

    cards = tiny_cards()
    cards.benchmarks[0] = BenchmarkCard("bench_00", "dom_99", "Lost domain.")
    with pytest.raises(DanglingReference):
        _build(cards)

    # an id of the wrong kind is as unresolved as a missing one
    cards = tiny_cards()
    cards.models[0] = ModelCard("model_00", "dom_00", "A domain for a family.", {})
    with pytest.raises(DanglingReference):
        _build(cards)

    cards = tiny_cards()
    cards.models[0] = ModelCard("model_00", "fam_00", "Scored on a domain.", {"dom_00": 0.5})
    with pytest.raises(DanglingReference):
        _build(cards)

    cards = tiny_cards()
    cards.queries[0] = QueryRecord("q_0000", "model_01", "A model for a benchmark?")
    with pytest.raises(DanglingReference):
        _build(cards)


def test_out_of_range_model_score_rejected():
    cards = tiny_cards()
    cards.models[0] = ModelCard("model_00", "fam_00", "Overeager.", {"bench_00": 1.5})
    with pytest.raises(ScoreOutOfRange):
        _build(cards)


# --- propagation coefficient -----------------------------------------------

def test_coefficient_two_node_pair_is_half():
    cards = tiny_cards()
    cards.models = [ModelCard("model_00", "fam_00", "Only child.", {})]
    cards.benchmarks, cards.domains, cards.queries = [], [], []
    graph = _build(cards)
    # both closed neighborhoods have size 2 -> 1/sqrt(2*2)
    assert propagation_coefficient(graph, "model_00", "fam_00") == pytest.approx(0.5)


def test_coefficient_weighted_edge_hand_value():
    # model(closed 2) -- 0.8 -- benchmark(closed 3, via its domain link)
    graph = EvidenceGraph(
        nodes=[
            Node("model_aa", NodeKind.MODEL, "A loner model."),
            Node("bench_aa", NodeKind.BENCHMARK, "A bench."),
            Node("dom_aa", NodeKind.DOMAIN, "A domain."),
        ],
        edges=[
            Edge("model_aa", "bench_aa", EdgeKind.MODEL_BENCHMARK, 0.8),
            Edge("bench_aa", "dom_aa", EdgeKind.BENCHMARK_DOMAIN),
        ],
        dim=4,
    )
    expected = 0.8 / math.sqrt(2 * 3)
    assert propagation_coefficient(graph, "model_aa", "bench_aa") == pytest.approx(expected)


def test_coefficient_regular_graph_is_inverse_degree_plus_one():
    # a 2-regular query/benchmark cycle: every coefficient is 1/(2+1)
    graph = EvidenceGraph(
        nodes=[
            Node("q_0000", NodeKind.QUERY, "First question?"),
            Node("q_0001", NodeKind.QUERY, "Second question?"),
            Node("bench_aa", NodeKind.BENCHMARK, "First bench."),
            Node("bench_bb", NodeKind.BENCHMARK, "Second bench."),
        ],
        edges=[
            Edge("q_0000", "bench_aa", EdgeKind.QUERY_BENCHMARK),
            Edge("q_0000", "bench_bb", EdgeKind.QUERY_BENCHMARK),
            Edge("q_0001", "bench_aa", EdgeKind.QUERY_BENCHMARK),
            Edge("q_0001", "bench_bb", EdgeKind.QUERY_BENCHMARK),
        ],
        dim=4,
    )
    for u, v in [("q_0000", "bench_aa"), ("q_0001", "bench_bb"), ("q_0000", "bench_bb")]:
        assert propagation_coefficient(graph, u, v) == pytest.approx(1.0 / 3.0)


def test_coefficient_matches_formula_on_every_fixture_edge(fixture_cards):
    graph = _build(fixture_cards, dim=8)
    for edge in graph.edges:
        w = 1.0 if edge.weight is None else edge.weight
        expected = w / math.sqrt(
            len(closed_neighborhood(graph, edge.src)) * len(closed_neighborhood(graph, edge.dst))
        )
        assert propagation_coefficient(graph, edge.src, edge.dst) == pytest.approx(
            expected, abs=1e-12
        )
        # symmetry
        assert propagation_coefficient(graph, edge.dst, edge.src) == pytest.approx(
            expected, abs=1e-12
        )


def test_coefficient_self_term_and_not_adjacent(tiny_graph):
    size = len(closed_neighborhood(tiny_graph, "model_00"))
    assert propagation_coefficient(tiny_graph, "model_00", "model_00") == pytest.approx(1.0 / size)
    with pytest.raises(NotAdjacent):
        propagation_coefficient(tiny_graph, "model_00", "q_0000")
    with pytest.raises(UnknownNode):
        propagation_coefficient(tiny_graph, "model_00", "ghost")


# --- the propagation operator ----------------------------------------------

def _operator(graph: EvidenceGraph) -> Propagation:
    index = {nid: i for i, nid in enumerate(graph.node_ids)}
    pairs = [(index[e.src], index[e.dst]) for e in graph.edges]
    weights = [1.0 if e.weight is None else e.weight for e in graph.edges]
    return Propagation.of(len(graph), pairs, weights)


def test_propagation_product_matches_its_dense_matrix_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(30):
        graph = random_graph(rng, dim=4, max_nodes=14)
        s = _operator(graph)
        sizes = [len(closed_neighborhood(graph, nid)) for nid in graph.node_ids]
        assert s.sizes.tolist() == sizes
        assert np.max(np.abs(s.dense() - dense_propagation_matrix(graph))) <= 1e-15
        h = rng.normal(size=(len(graph), 5))
        assert np.max(np.abs(s @ h - s.dense() @ h)) <= 1e-12


def test_propagation_counts_a_repeated_pair_once_per_occurrence():
    # a query listed twice in one task of the routing graph; node 3 has no pair
    s = Propagation.of(4, [(0, 1), (0, 1), (1, 2)], [1.0, 1.0, 0.5])
    assert s.sizes.tolist() == [3.0, 4.0, 2.0, 1.0]
    want = np.diag([1 / 3, 1 / 4, 1 / 2, 1.0])
    want[0, 1] = want[1, 0] = 2.0 / math.sqrt(3 * 4)
    want[1, 2] = want[2, 1] = 0.5 / math.sqrt(4 * 2)
    assert np.max(np.abs(s.dense() - want)) <= 1e-15

    rng = np.random.default_rng(5)
    for _ in range(20):
        pairs = rng.integers(0, 12, size=(40, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        s = Propagation.of(12, pairs, rng.random(len(pairs)))
        h = rng.normal(size=(12, 3))
        assert np.max(np.abs(s @ h - s.dense() @ h)) <= 1e-12


# --- mutation --------------------------------------------------------------

def test_add_model_node_grows_graph(fixture_cards):
    graph = _build(fixture_cards, dim=8)
    n_nodes, n_edges = len(graph), len(graph.edges)
    card = ModelCard(
        "model_00_02",
        "fam_00",
        "A late arriving quantitative assistant.",
        {"bench_00_a": 0.77, "bench_00_b": 91.0},
    )
    add_model_node(graph, card)
    assert len(graph) == n_nodes + 1
    assert len(graph.edges) == n_edges + 3  # family + two scores
    # percent scale is remembered per benchmark
    assert graph.edge_between("model_00_02", "bench_00_b").weight == pytest.approx(0.91)
    assert graph.edge_between("model_00_02", "bench_00_a").weight == pytest.approx(0.77)


def test_add_model_node_rolls_back_on_bad_score(fixture_cards):
    graph = _build(fixture_cards, dim=8)
    n_nodes, n_edges = len(graph), len(graph.edges)
    bad = ModelCard("model_00_03", "fam_00", "Too good to be true.", {"bench_00_a": 1.7})
    with pytest.raises(ScoreOutOfRange):
        add_model_node(graph, bad)
    assert len(graph) == n_nodes
    assert len(graph.edges) == n_edges
    assert "model_00_03" not in graph


def test_add_model_node_rejects_duplicates_and_dangling(fixture_cards):
    graph = _build(fixture_cards, dim=8)
    with pytest.raises(DuplicateId):
        add_model_node(graph, ModelCard("model_00_00", "fam_00", "Twin.", {}))
    with pytest.raises(DanglingReference):
        add_model_node(graph, ModelCard("model_77_00", "fam_77", "Orphan.", {}))
    with pytest.raises(DanglingReference):
        add_model_node(graph, ModelCard("model_77_01", "fam_00", "Ghost bench.", {"bench_77": 0.5}))
    with pytest.raises(DanglingReference):
        add_model_node(graph, ModelCard("model_77_02", "dom_00", "A domain for a family.", {}))
    with pytest.raises(DanglingReference):
        add_model_node(graph, ModelCard("model_77_03", "fam_00", "Scored on a domain.", {"dom_00": 0.5}))
    assert not any(nid.startswith("model_77") for nid in graph.node_ids)


def test_graph_rejects_multi_edges_and_stray_weights():
    nodes = [Node("m", NodeKind.MODEL), Node("f", NodeKind.MODEL_FAMILY)]
    once = [Edge("m", "f", EdgeKind.MODEL_FAMILY)]
    with pytest.raises(InvalidGraph, match="multi-edge"):
        EvidenceGraph(nodes, once * 2, dim=4)
    with pytest.raises(InvalidGraph, match="carries no weight"):
        EvidenceGraph(nodes, [Edge("m", "f", EdgeKind.MODEL_FAMILY, 0.5)], dim=4)
    graph = EvidenceGraph(nodes, once, dim=4)
    with pytest.raises(InvalidGraph, match="multi-edge"):
        graph._add([Node("g", NodeKind.MODEL_FAMILY)], once)  # the edge is already there
    assert graph.ids == ["f", "m"] and len(graph.pairs) == 1 and "g" not in graph


def test_remove_node_drops_incident_edges(tiny_graph):
    remove_node(tiny_graph, "model_00")
    assert "model_00" not in tiny_graph
    assert all("model_00" not in (e.src, e.dst) for e in tiny_graph.edges)
    with pytest.raises(UnknownNode):
        remove_node(tiny_graph, "model_00")


def test_remove_node_leaves_the_arrays_of_a_graph_built_without_it(fixture_cards):
    from coldroute.providers import DeterministicEmbedder, encode_all

    graph = _build(fixture_cards, dim=8)
    encode_all(graph, DeterministicEmbedder(dim=8, seed=0))
    add_model_node(graph, ModelCard("model_00_02", "fam_00", "Late.", {"bench_00_a": 0.5}))
    remove_node(graph, "model_00_02")  # the last row, as a rollback removes it
    remove_node(graph, "model_00_01")  # a row in the middle
    models = [m for m in fixture_cards.models if m.id != "model_00_01"]
    want = _build(replace(fixture_cards, models=models), dim=8)
    encode_all(want, DeterministicEmbedder(dim=8, seed=0))
    assert graph.ids == want.ids and graph.index == want.index
    for name in ("features", "pairs", "weights", "scored"):
        assert np.array_equal(getattr(graph, name), getattr(want, name)), name


# --- queries over the graph ------------------------------------------------

def test_neighbors_sorted_and_edge_lookup(fixture_cards):
    graph = _build(fixture_cards, dim=8)
    nbs = graph.neighbors("bench_00_a")
    assert nbs == sorted(nbs)
    assert "dom_00" in nbs and "model_00_00" in nbs
    with pytest.raises(UnknownNode):
        graph.neighbors("nope")


def test_snapshot_round_trip(fixture_cards, tmp_path):
    graph = _build(fixture_cards, dim=8)
    from coldroute.providers import DeterministicEmbedder, encode_all

    encode_all(graph, DeterministicEmbedder(dim=8, seed=3))
    path = tmp_path / "graph.json"
    graph.save(path)
    doc = json.loads(path.read_text())
    assert doc == graph.to_snapshot()
    assert [n["id"] for n in doc["nodes"]] == graph.node_ids
    assert doc["dim"] == graph.dim
    assert doc["score_scales"] == graph.score_scales
    assert len(doc["edges"]) == len(graph.edges)
    for e1, e2 in zip(graph.edges, doc["edges"]):
        assert (e1.src, e1.dst, e1.kind.value, e1.weight) == (
            e2["src"], e2["dst"], e2["kind"], e2.get("weight"))
    for entry in doc["nodes"]:
        assert np.array_equal(graph.embedding(entry["id"]), entry["embedding"])
