"""Profile design space: flat text, text propagation, embedding propagation,
and the trainable masked-reconstruction aggregator."""

import json
import tracemalloc

import numpy as np
import pytest

from coldroute import nn
from coldroute.errors import (
    InvalidSpec,
    QueryNodeUpdateAttempt,
    UninitializedEmbedding,
    UnknownNode,
)
from coldroute.evaluation import SynthWorldConfig, synth_world
from coldroute.graph import EvidenceGraph, Node, NodeKind, Propagation, build_graph
from coldroute.profiles import (
    Profile,
    ProfileSpec,
    TrainGnnModel,
    embgnn_propagate,
    load_profiles,
    make_profiles,
    render_prompt,
    save_profiles,
    textgnn_run,
    traingnn_fit,
    traingnn_states,
)
from coldroute.providers import DeterministicEmbedder, EchoSummarizer, Providers, encode_all

from conftest import (
    bfs_ball,
    dense_propagation_matrix,
    dense_propagation_oracle,
    finite_diff_check,
    random_graph,
    tiny_cards,
    traingnn_full_step,
)


# --- spec parsing ----------------------------------------------------------

def test_spec_parse_round_trip():
    for short in ["flat", "text:1", "text:3", "emb:2", "emb:4", "train:1", "train:2"]:
        assert ProfileSpec.parse(short).short() == short


def test_spec_invalid_combinations():
    for bad in ["flat:2", "text:0", "emb:0", "emb:5", "train:9", "magic:1", "emb", "train"]:
        with pytest.raises(InvalidSpec):
            ProfileSpec.parse(bad)
    with pytest.raises(InvalidSpec):
        ProfileSpec("flat", "embedding", 0, "training_free")
    with pytest.raises(InvalidSpec):
        ProfileSpec("structured", "text", 0, "training_free")
    with pytest.raises(InvalidSpec):
        ProfileSpec("structured", "text", 2, "trainable")


# --- flat profiles ---------------------------------------------------------

def flat_profile(graph, model_id, providers):
    return make_profiles(graph, ProfileSpec.parse("flat"), [model_id], providers)[model_id]


def test_flat_profile_text_layout(fixture_graph, providers):
    profile = flat_profile(fixture_graph, "model_00_00", providers)
    family = fixture_graph.node("fam_00").text
    own = fixture_graph.node("model_00_00").text
    expected = "\n".join(
        [
            family,
            own,
            "bench_00_a - dom_00 - 0.880",
            "bench_00_b - dom_00 - 0.850",
            "bench_01_a - dom_01 - 0.200",
        ]
    )
    assert profile.text == expected
    assert np.array_equal(profile.vector, providers.encoder.encode(expected))
    assert profile.spec.short() == "flat"


def test_flat_profile_scoreless_model(fixture_graph, providers):
    profile = flat_profile(fixture_graph, "model_01_01", providers)
    assert profile.text == "\n".join(
        [fixture_graph.node("fam_01").text, fixture_graph.node("model_01_01").text]
    )


def test_flat_profile_rejects_non_model(fixture_graph, providers):
    with pytest.raises(UnknownNode):
        flat_profile(fixture_graph, "bench_00_a", providers)


# --- embedding propagation -------------------------------------------------

def test_embgnn_matches_dense_oracle_on_fixture(fixture_graph):
    for depth in (1, 2, 3, 4):
        states = embgnn_propagate(fixture_graph, depth)
        oracle = dense_propagation_oracle(fixture_graph, depth)
        for nid in fixture_graph.node_ids:
            assert np.max(np.abs(states[fixture_graph.index[nid]] - oracle[nid])) < 1e-9


def test_embgnn_one_hop_hand_value():
    cards = tiny_cards()
    cards.models = cards.models[:1]
    cards.benchmarks, cards.domains, cards.queries = [], [], []
    cards.models[0] = type(cards.models[0])("model_00", "fam_00", "A careful first model.", {})
    graph = build_graph(cards.families, cards.models, [], [], [], dim=4)
    encode_all(graph, DeterministicEmbedder(dim=4, seed=0))
    x_m = graph.embedding("model_00")
    x_f = graph.embedding("fam_00")
    states = embgnn_propagate(graph, 1)
    # two-node pair: self coefficient 1/2, cross coefficient 1/sqrt(4)
    assert np.allclose(states[graph.index["model_00"]], 0.5 * x_m + 0.5 * x_f)


def test_embgnn_insertion_order_invariance(fixture_cards, providers):
    graph_a = build_graph(
        fixture_cards.families,
        fixture_cards.models,
        fixture_cards.benchmarks,
        fixture_cards.domains,
        fixture_cards.queries,
        64,
    )
    graph_b = build_graph(
        list(reversed(fixture_cards.families)),
        list(reversed(fixture_cards.models)),
        list(reversed(fixture_cards.benchmarks)),
        list(reversed(fixture_cards.domains)),
        list(reversed(fixture_cards.queries)),
        64,
    )
    encode_all(graph_a, providers.encoder)
    encode_all(graph_b, providers.encoder)
    sa = embgnn_propagate(graph_a, 2)
    sb = embgnn_propagate(graph_b, 2)
    for nid in graph_a.node_ids:
        assert np.array_equal(sa[graph_a.index[nid]], sb[graph_b.index[nid]])


def test_embgnn_depth_and_embedding_guards(tiny_graph):
    with pytest.raises(InvalidSpec):
        embgnn_propagate(tiny_graph, 0)
    tiny_graph.features[tiny_graph.index["model_00"]] = np.nan
    with pytest.raises(UninitializedEmbedding):
        embgnn_propagate(tiny_graph, 1)


# --- text propagation ------------------------------------------------------

def test_echo_reachability_matches_bfs_ball(fixture_graph):
    ids = set(fixture_graph.node_ids)
    for depth in (1, 2):
        texts = textgnn_run(fixture_graph, depth, EchoSummarizer(), fixture_graph.node_ids)
        for probe in ("model_00_00", "model_01_00", "model_01_01"):
            mentioned = {nid for nid in ids if nid in texts[probe]}
            assert mentioned == bfs_ball(fixture_graph, probe, depth), (probe, depth)


def test_textgnn_queries_are_never_rewritten(fixture_graph):
    texts = textgnn_run(fixture_graph, 2, EchoSummarizer(), fixture_graph.node_ids)
    for nid in fixture_graph.node_ids:
        if fixture_graph.node(nid).kind is NodeKind.QUERY:
            assert texts[nid] == fixture_graph.node(nid).text


class _CountingEcho(EchoSummarizer):
    def __init__(self):
        self.prompts: list[str] = []

    def summarize(self, prompt: str) -> str:
        self.prompts.append(prompt)
        return prompt


def _synth_graph() -> EvidenceGraph:
    world = synth_world(
        SynthWorldConfig(seed=3, num_domains=8, models_per_specialty=3, queries_per_domain=20)
    )
    graph = build_graph(
        world.cards.families, world.cards.models, world.cards.benchmarks,
        world.cards.domains, world.cards.queries, dim=16,
    )
    encode_all(graph, DeterministicEmbedder(dim=16, seed=0))
    return graph


@pytest.fixture(params=["fixture", "synth"])
def text_graph(request, fixture_graph):
    return fixture_graph if request.param == "fixture" else _synth_graph()


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_restricted_text_run_matches_full_run(text_graph, depth):
    graph = text_graph
    encoder = DeterministicEmbedder(dim=graph.dim, seed=0)
    providers = Providers(encoder, EchoSummarizer())
    full = textgnn_run(graph, depth, EchoSummarizer(), graph.node_ids)
    models = [n.id for n in graph.nodes_of_kind(NodeKind.MODEL)]
    spec = ProfileSpec.parse(f"text:{depth}")
    for targets in (models[-1:], models):
        restricted = textgnn_run(graph, depth, EchoSummarizer(), targets=targets)
        assert restricted == {m: full[m] for m in targets}
        profiles = make_profiles(graph, spec, targets, providers)
        for m in targets:
            assert profiles[m].text == full[m]
            assert np.array_equal(profiles[m].vector, encoder.encode(full[m]))


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_text_run_summarizes_exactly_the_receptive_field(fixture_graph, depth):
    graph = fixture_graph
    queries = {n.id for n in graph.nodes_of_kind(NodeKind.QUERY)}
    models = [n.id for n in graph.nodes_of_kind(NodeKind.MODEL)]
    for targets in (["model_01_01"], models):
        # round k rewrites the non-query nodes within distance depth - k
        expected = sum(
            len(set().union(*(bfs_ball(graph, t, depth - hop) for t in targets)) - queries)
            for hop in range(1, depth + 1)
        )
        counting = _CountingEcho()
        textgnn_run(graph, depth, counting, targets=targets)
        assert len(counting.prompts) == expected, (targets, depth)
    counting = _CountingEcho()
    textgnn_run(graph, depth, counting, graph.node_ids)
    assert len(counting.prompts) == depth * (len(graph) - len(queries))


def test_one_new_model_under_text2_needs_its_hop1_ball_plus_itself(fixture_graph):
    counting = _CountingEcho()
    textgnn_run(fixture_graph, 2, counting, targets=["model_00_00"])
    hop1 = sorted(fixture_graph.neighbors("model_00_00"))
    heads = [p.split(" (kind")[0].rsplit(" ", 1)[-1] for p in counting.prompts]
    assert heads == sorted(["model_00_00", *hop1]) + ["model_00_00"]


def test_render_prompt_neighbors_sorted_with_three_decimal_scores(fixture_graph):
    texts = {nid: fixture_graph.node(nid).text for nid in fixture_graph.node_ids}
    prompt = render_prompt(fixture_graph, "model_00_00", texts, hop=1)
    lines = [l for l in prompt.splitlines() if l.startswith("- ")]
    names = [l.split()[1] for l in lines]
    assert names == sorted(names)
    assert any("score 0.850" in l for l in lines)  # percent benchmark, 3 decimals
    assert any("score 0.880" in l for l in lines)
    assert "3-5 sentences" in prompt  # model nodes get the longer range


def test_render_prompt_rejects_query_nodes(fixture_graph):
    texts = {nid: fixture_graph.node(nid).text for nid in fixture_graph.node_ids}
    with pytest.raises(QueryNodeUpdateAttempt):
        render_prompt(fixture_graph, "q_00_0000", texts, hop=1)


def test_render_prompt_isolated_node_placeholder():
    graph = EvidenceGraph([Node("model_00", NodeKind.MODEL, "A careful first model.")], [], dim=4)
    texts = {nid: graph.node(nid).text for nid in graph.node_ids}
    prompt = render_prompt(graph, "model_00", texts, hop=1)
    assert "(no connected neighbors)" in prompt


_PINNED_PROMPTS = {
    "model_00_00": (
        "[input] Capability card refresh for model_00_00 (kind: model, round 1).\n"
        "Current summary of model_00_00:\n"
        "The flagship quantitative assistant of its family, strongest on algebra and equation rewriting.\n"
        "Evidence from directly connected graph neighbors:\n"
        "- bench_00_a (benchmark, score 0.880): A benchmark of multi step arithmetic and algebra word problems graded for exact numeric answers.\n"
        "- bench_00_b (benchmark, score 0.850): A percent graded suite of symbolic equation rewriting and simplification exercises.\n"
        "- bench_01_a (benchmark, score 0.200): A benchmark of debugging and refactoring tasks drawn from real compiler error logs.\n"
        "- fam_00 (model_family): A family of assistants tuned for quantitative reasoning and careful step by step arithmetic.\n"
        "[instruction] Rewrite the summary of model_00_00 in 3-5 sentences, merging the current summary with the neighbor evidence above. Keep concrete strengths, domains, and scores; drop repetition.\n"
        "[output] The rewritten summary text only.\n"
    ),
    "bench_00_a": (
        "[input] Capability card refresh for bench_00_a (kind: benchmark, round 1).\n"
        "Current summary of bench_00_a:\n"
        "A benchmark of multi step arithmetic and algebra word problems graded for exact numeric answers.\n"
        "Evidence from directly connected graph neighbors:\n"
        "- dom_00 (domain): Mathematical problem solving: arithmetic drills, algebra word problems, and careful equation manipulation.\n"
        "- model_00_00 (model, score 0.880): The flagship quantitative assistant of its family, strongest on algebra and equation rewriting.\n"
        "- model_00_01 (model, score 0.810): A compact quantitative assistant that trades a little accuracy for much faster answers.\n"
        "- model_01_00 (model, score 0.310): A code oriented assistant that excels at debugging and at refactoring long source files.\n"
        "- q_00_0000 (query): Solve for x: 3x + 7 = 22, showing each algebra step.\n"
        "- q_00_0002 (query): Rewrite the equation 2(y - 4) = 10 in slope intercept form.\n"
        "- q_00_0004 (query): Factor the quadratic x squared minus 5x plus 6.\n"
        "- q_00_0006 (query): If 4a - 9 = 3a + 5, what is the value of a?\n"
        "- q_00_0008 (query): Two numbers sum to 30 and differ by 4; set up and solve the equations.\n"
        "- q_00_0010 (query): Convert the repeating decimal 0.727272... into a fraction.\n"
        "[instruction] Rewrite the summary of bench_00_a in 2-4 sentences, merging the current summary with the neighbor evidence above. Keep concrete strengths, domains, and scores; drop repetition.\n"
        "[output] The rewritten summary text only.\n"
    ),
}


@pytest.mark.parametrize("node_id", sorted(_PINNED_PROMPTS))
def test_render_prompt_is_pinned_byte_for_byte(fixture_graph, node_id):
    # the text:K profiles and the admit_text stub both read these exact bytes
    texts = {nid: fixture_graph.node(nid).text for nid in fixture_graph.node_ids}
    assert render_prompt(fixture_graph, node_id, texts, hop=1) == _PINNED_PROMPTS[node_id]


# --- trainable aggregator --------------------------------------------------

def test_traingnn_identity_layers_reduce_to_one_hop_propagation(tiny_graph):
    model = TrainGnnModel.create(depth=1, dim=4, rng=np.random.default_rng(0))
    model.hop_layers[0] = nn.AffineLayer(np.eye(4), np.zeros(4))
    states = traingnn_states(model, tiny_graph)
    reference = embgnn_propagate(tiny_graph, 1)
    assert np.allclose(states, reference, atol=1e-12)


def test_propagation_allocates_no_dense_matrix():
    world = synth_world(
        SynthWorldConfig(seed=0, num_domains=8, models_per_specialty=30, queries_per_domain=340)
    )
    cards = world.cards
    graph = build_graph(
        cards.families, cards.models, cards.benchmarks, cards.domains, cards.queries, dim=64
    )
    encode_all(graph, DeterministicEmbedder(dim=64, seed=0))
    n = len(graph)
    assert n >= 1500
    model = TrainGnnModel.create(depth=2, dim=64, rng=np.random.default_rng(0))
    for run in (lambda: embgnn_propagate(graph, 2), lambda: traingnn_states(model, graph)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4  # a quarter of one dense n×n float64 array


def test_traingnn_mask_zero_means_zero_loss(tiny_graph):
    model = traingnn_fit(tiny_graph, ProfileSpec.parse("train:1"), seed=0, mask_ratio=0.0)
    assert model.loss_trace and all(v == 0.0 for v in model.loss_trace)


def test_traingnn_same_seed_same_parameters(fixture_graph):
    a = traingnn_fit(fixture_graph, ProfileSpec.parse("train:2"), seed=0, epochs=3)
    b = traingnn_fit(fixture_graph, ProfileSpec.parse("train:2"), seed=0, epochs=3)
    for pa, pb in zip(a.params(), b.params()):
        assert np.array_equal(pa, pb)
    c = traingnn_fit(fixture_graph, ProfileSpec.parse("train:2"), seed=1, epochs=3)
    assert any(not np.array_equal(pa, pc) for pa, pc in zip(a.params(), c.params()))


def test_traingnn_gradients_pass_finite_difference(tiny_graph):
    graph = tiny_graph
    s = Propagation.of(len(graph), graph.pairs, graph.weights).dense()
    model = TrainGnnModel.create(depth=2, dim=4, rng=np.random.default_rng(0))
    x = graph.features.copy()
    node_batch = np.asarray([0, 2])
    x_masked = x.copy()
    x_masked[node_batch] = 0.0
    edge_pairs = graph.pairs[graph.scored]
    edge_targets = graph.weights[graph.scored]

    def loss_fn(_params):
        return model.loss_and_grads(s, x_masked, x, node_batch, edge_pairs, edge_targets)

    assert finite_diff_check(loss_fn, model.params()) < 1e-6


def test_propagation_matrix_matches_the_dense_oracle(fixture_graph):
    graph = fixture_graph
    s = Propagation.of(len(graph), graph.pairs, graph.weights).dense()
    assert np.max(np.abs(s - dense_propagation_matrix(fixture_graph))) <= 1e-15


def _masked_batches(graph, rng):
    """(node batch, masked edge positions) cases: random ones, edges only, and nothing."""
    n, scored = len(graph), np.flatnonzero(graph.scored)
    cases = [
        (np.sort(rng.choice(n, size=size, replace=False)), np.sort(rng.choice(scored, size=k, replace=False)))
        for size, k in ((1, 0), (5, 3), (30, len(scored) // 2))
    ]
    return cases + [(np.asarray([], dtype=int), scored[:4]), (np.asarray([], dtype=int), scored[:0])]


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_traingnn_step_matches_the_full_graph_step(fixture_graph, depth):
    graph = fixture_graph
    rng = np.random.default_rng(depth)
    model = TrainGnnModel.create(depth, graph.dim, rng)
    for nodes, edges in _masked_batches(graph, rng):
        x_masked = graph.features.copy()
        x_masked[nodes] = 0.0
        weights = graph.weights.copy()
        weights[edges] = 0.5
        s = Propagation.of(len(graph), graph.pairs, weights).dense()
        pairs, targets = graph.pairs[edges], graph.weights[edges]
        want_loss, want = traingnn_full_step(model, s, x_masked, graph.features, nodes, pairs, targets)
        assert (want_loss == 0.0) == (len(nodes) + len(edges) == 0)
        for first_hop in (None, s @ x_masked):
            loss, grads = model.loss_and_grads(
                s, x_masked, graph.features, nodes, pairs, targets, first_hop
            )
            assert abs(loss - want_loss) <= 1e-12
            for got, ref in zip(grads, want, strict=True):
                assert np.max(np.abs(got - ref)) <= 1e-12


@pytest.mark.parametrize("mask_ratio", [0.0, 0.3])
def test_traingnn_fit_follows_the_full_graph_steps(fixture_graph, monkeypatch, mask_ratio):
    spec = ProfileSpec.parse("train:2")
    fit = traingnn_fit(fixture_graph, spec, seed=0, mask_ratio=mask_ratio, epochs=3)

    def full_step(model, s, x_masked, x_orig, node_batch, edge_pairs, edge_targets, first_hop):
        return traingnn_full_step(model, s, x_masked, x_orig, node_batch, edge_pairs, edge_targets)

    monkeypatch.setattr(TrainGnnModel, "loss_and_grads", full_step)
    ref = traingnn_fit(fixture_graph, spec, seed=0, mask_ratio=mask_ratio, epochs=3)
    for got, want in zip(fit.params(), ref.params(), strict=True):
        assert np.max(np.abs(got - want)) <= 1e-12
    assert np.allclose(fit.loss_trace, ref.loss_trace, rtol=0.0, atol=1e-12)


def test_traingnn_checkpoint_round_trip(fixture_graph):
    model = traingnn_fit(fixture_graph, ProfileSpec.parse("train:2"), seed=0, epochs=2)
    payload = model.to_checkpoint()
    json.dumps(payload)  # serializable
    back = TrainGnnModel.from_checkpoint(payload)
    assert back.depth == model.depth and back.dim == model.dim
    for pa, pb in zip(model.params(), back.params()):
        assert np.array_equal(pa, pb)
    sa, sb = traingnn_states(model, fixture_graph), traingnn_states(back, fixture_graph)
    assert np.array_equal(sa, sb)


def test_traingnn_create_guards():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidSpec):
        TrainGnnModel.create(depth=0, dim=4, rng=rng)
    with pytest.raises(InvalidSpec):
        TrainGnnModel.create(depth=5, dim=4, rng=rng)
    with pytest.raises(InvalidSpec):
        TrainGnnModel.create(depth=2, dim=4, rng=rng, mask_ratio=1.0)


# --- dispatcher ------------------------------------------------------------

@pytest.mark.parametrize("short", ["flat", "text:1", "emb:2", "train:1"])
def test_make_profiles_all_instantiations(fixture_graph, providers, short):
    spec = ProfileSpec.parse(short)
    pool = ["model_00_00", "model_01_01"]
    trained = traingnn_fit(fixture_graph, spec, seed=0) if short == "train:1" else None
    profiles = make_profiles(fixture_graph, spec, pool, providers, trained=trained)
    assert sorted(profiles) == sorted(pool)
    for mid, profile in profiles.items():
        assert profile.model_id == mid
        assert profile.spec.short() == short
        assert profile.vector.shape == (64,)
        assert np.all(np.isfinite(profile.vector))
        if spec.representation == "text":
            assert profile.text


def test_make_profiles_rejects_non_models(fixture_graph, providers):
    with pytest.raises(UnknownNode):
        make_profiles(fixture_graph, ProfileSpec.parse("emb:1"), ["bench_00_a"], providers)
    with pytest.raises(UnknownNode):
        make_profiles(fixture_graph, ProfileSpec.parse("emb:1"), ["ghost"], providers)


def test_make_profiles_reuses_frozen_aggregator(fixture_graph, providers):
    spec = ProfileSpec.parse("train:1")
    trained = traingnn_fit(fixture_graph, spec, seed=0, epochs=2)
    first = make_profiles(fixture_graph, spec, ["model_00_00"], providers, trained=trained)
    second = make_profiles(fixture_graph, spec, ["model_00_00"], providers, trained=trained)
    assert np.array_equal(first["model_00_00"].vector, second["model_00_00"].vector)


def test_profiles_save_load_round_trip(fixture_graph, providers, tmp_path):
    profiles = make_profiles(
        fixture_graph, ProfileSpec.parse("emb:2"), ["model_00_00", "model_01_00"], providers
    )
    path = tmp_path / "profiles.jsonl"
    save_profiles(profiles, path)
    back = load_profiles(path)
    assert sorted(back) == sorted(profiles)
    for mid in profiles:
        assert np.array_equal(back[mid].vector, profiles[mid].vector)
        assert back[mid].spec.short() == profiles[mid].spec.short()


def test_profile_rejects_nonfinite_vector():
    spec = ProfileSpec.parse("emb:1")
    with pytest.raises(InvalidSpec):
        Profile("model_00", spec, np.array([np.nan, 1.0]))
