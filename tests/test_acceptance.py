"""Acceptance gate: ten end-to-end criteria, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the report lines.
Each criterion re-derives its expected values from independent oracles
(dense matrix powers, finite differences, brute-force metric loops,
breadth-first balls) rather than trusting the code under test.
"""

import json
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
import requests

from coldroute import nn
from coldroute.cli import main
from coldroute.config import AppConfig, ENV_CONFIG, build_world_graph
from coldroute.evaluation import (
    RewardTable,
    SynthWorldConfig,
    average_performance,
    integration_world,
    ncir,
    oracle,
    run_coldstart,
    single_best,
    synth_world,
)
from coldroute.profiles import (
    ProfileSpec,
    TrainGnnModel,
    embgnn_propagate,
    make_profiles,
    textgnn_run,
    traingnn_fit,
)
from coldroute.providers import EchoSummarizer, Providers
from coldroute.routers import (
    CandidatePool,
    RoutingDecision,
    graphrouter_fit,
    integrate_new_model,
    mlp_fit,
)
from coldroute.service import make_server

from conftest import (
    FIXTURE_DIR,
    bfs_ball,
    dense_propagation_oracle,
    random_graph,
    tiny_cards,
    world_pipeline,
)


def _report(
    num: int,
    label: str,
    ok: bool,
    detail: str,
    elapsed: float | None = None,
    bound: float | None = None,
) -> None:
    if elapsed is not None and bound is not None:
        ok = ok and elapsed < bound
        timing = f" ({elapsed:.2f}s < {bound:g}s)"
    elif elapsed is not None:
        timing = f" ({elapsed:.2f}s)"
    else:
        timing = ""
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}: {detail}{timing}"
    print(line)
    assert ok, line


def _random_table(rng: np.random.Generator) -> RewardTable:
    nq, nm = int(rng.integers(1, 21)), int(rng.integers(1, 6))
    return RewardTable(
        {
            (f"q_{i:04d}", f"model_{j:02d}"): float(rng.integers(0, 101)) / 100.0
            for i in range(nq)
            for j in range(nm)
        }
    )


def test_criterion_01_propagation_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        graph = random_graph(rng, dim=8, max_nodes=10)
        for depth in (1, 2, 3, 4):
            states = embgnn_propagate(graph, depth)
            reference = dense_propagation_oracle(graph, depth)
            for nid in graph.node_ids:
                worst = max(worst, float(np.max(np.abs(states[graph.index[nid]] - reference[nid]))))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "propagation oracle",
        worst <= 1e-9,
        f"max abs deviation {worst:.2e} over 50 random graphs, depths 1-4",
        elapsed,
        5.0,
    )


def test_criterion_02_gradient_correctness():
    start = time.perf_counter()
    from coldroute.graph import Propagation, build_graph
    from coldroute.providers import DeterministicEmbedder, encode_all

    cards = tiny_cards()
    graph = build_graph(
        cards.families, cards.models, cards.benchmarks, cards.domains, cards.queries, dim=4
    )
    encode_all(graph, DeterministicEmbedder(dim=4, seed=0))
    s = Propagation.of(len(graph), graph.pairs, graph.weights).dense()
    model = TrainGnnModel.create(depth=2, dim=4, rng=np.random.default_rng(0))
    x = graph.features.copy()
    node_batch = np.asarray([0, 3])
    x_masked = x.copy()
    x_masked[node_batch] = 0.0
    edge_pairs = graph.pairs[graph.scored]
    edge_targets = graph.weights[graph.scored]

    def loss_fn(_params):
        return model.loss_and_grads(s, x_masked, x, node_batch, edge_pairs, edge_targets)

    err = nn.finite_diff_check(loss_fn, model.params())
    elapsed = time.perf_counter() - start
    _report(
        2,
        "gradient correctness",
        err <= 1e-4,
        f"max relative error {err:.2e} on 6-node, d=4, depth-2 reconstruction loss",
        elapsed,
        10.0,
    )


def test_graphrouter_gradients_pass_finite_difference(fixture_world):
    pool, query_vecs, tasks, interactions = fixture_world
    # Checked at a trained point: at the initial weights every score sits near
    # sigmoid(0) and the gradient entries are too small for finite differences.
    router = graphrouter_fit(tasks, query_vecs, interactions, pool, hidden=8, epochs=40, lr=3e-2)
    graph = router._compile(pool.profiles())
    batch = interactions[::3]
    q_idx = np.asarray([graph.index[("q", r.query_id)] for r in batch])
    m_idx = np.asarray([graph.index[("m", r.model_id)] for r in batch])
    rewards = np.asarray([r.reward for r in batch])

    def loss_fn(_params):
        return router.loss_and_grads(graph, q_idx, m_idx, rewards)

    _, grads = loss_fn(router.params())
    assert all(np.any(g != 0.0) for g in grads)
    # h = 1e-4: with h = 1e-5 the loss's rounding error over 2h (~1e-11) is
    # no longer small against prop1's smallest gradient entries (~1e-7)
    assert nn.finite_diff_check(loss_fn, router.params(), h=1e-4) < 1e-6


def test_mlp_gradients_pass_finite_difference(fixture_world):
    pool, query_vecs, _, interactions = fixture_world
    # Checked at a trained point, as for the graph router above.
    router = mlp_fit(interactions, query_vecs, pool, hidden=8, epochs=40, lr=3e-2)
    batch = interactions[::3]
    q = np.stack([query_vecs[r.query_id] for r in batch])
    p = np.stack([pool.get(r.model_id).vector for r in batch])
    rewards = np.asarray([r.reward for r in batch])

    def loss_fn(_params):
        return router.loss_and_grads(q, p, rewards)

    _, grads = loss_fn(router.params())
    assert len(grads) == 8 and all(np.any(g != 0.0) for g in grads)
    assert nn.finite_diff_check(loss_fn, router.params()) < 1e-6


def test_criterion_03_training_sanity():
    start = time.perf_counter()
    world = synth_world(SynthWorldConfig(seed=0))
    graph = build_world_graph(world.cards, 64, Providers.deterministic(dim=64, seed=0))
    model = traingnn_fit(graph, ProfileSpec.parse("train:2"), seed=0)
    first, last = model.loss_trace[0], model.loss_trace[-1]
    ratio = last / first
    elapsed = time.perf_counter() - start
    _report(
        3,
        "training sanity",
        ratio <= 0.5,
        f"loss {first:.4f} -> {last:.4f} (ratio {ratio:.3f}) on the 2-cluster graph, seed 0",
        elapsed,
        30.0,
    )


def test_criterion_04_metric_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(100):
        table = _random_table(rng)
        qs, ms = table.query_ids, table.model_ids
        grid = [[table.reward(q, m) for m in ms] for q in qs]

        oracle_bf = sum(max(row) for row in grid) / len(qs)
        means = [sum(grid[i][j] for i in range(len(qs))) / len(qs) for j in range(len(ms))]
        best = max(means)
        single_bf = (ms[means.index(best)], best)

        chosen = [
            RoutingDecision(q, ms[int(rng.integers(len(ms)))], {}) for q in qs
        ]
        avg_bf = sum(table.reward(d.query_id, d.chosen) for d in chosen) / len(chosen)
        new_id = ms[int(rng.integers(len(ms)))]
        threshold = float(rng.choice([0.5, 1.0]))
        ncir_bf = sum(
            1
            for d in chosen
            if d.chosen == new_id and table.reward(d.query_id, new_id) >= threshold
        ) / len(chosen)

        if oracle(table) != oracle_bf:
            mismatches += 1
        if single_best(table) != single_bf:
            mismatches += 1
        if average_performance(chosen, table) != avg_bf:
            mismatches += 1
        if ncir(chosen, table, new_id, threshold) != ncir_bf:
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        4,
        "metric oracles",
        mismatches == 0,
        f"{mismatches} brute-force mismatches over 100 random tables x 4 metrics",
        elapsed,
        5.0,
    )


def test_criterion_05_baseline_ordering():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    violations = 0
    for _ in range(100):
        table = _random_table(rng)
        qs, ms = table.query_ids, table.model_ids
        choosers = [
            [RoutingDecision(q, max(ms, key=lambda m: table.reward(q, m)), {}) for q in qs],
            [RoutingDecision(q, min(ms, key=lambda m: table.reward(q, m)), {}) for q in qs],
        ]
        for _ in range(3):
            choosers.append(
                [RoutingDecision(q, ms[int(rng.integers(len(ms)))], {}) for q in qs]
            )
        top = oracle(table)
        if top < single_best(table)[1]:
            violations += 1
        for decisions in choosers:
            avg = average_performance(decisions, table)
            if not (0.0 <= avg <= top):
                violations += 1
    elapsed = time.perf_counter() - start
    _report(
        5,
        "baseline ordering",
        violations == 0,
        f"{violations} ordering violations over 100 tables x 5 simulated routers",
        elapsed,
    )


def test_criterion_06_coldstart_directional(tmp_path):
    start = time.perf_counter()
    world = synth_world(SynthWorldConfig(seed=0))  # 2 specialties, noise 0.1
    emb = run_coldstart(world_pipeline(tmp_path / "emb", world, spec="emb:2"),
                        world.eval_queries, world.rewards)
    flat = run_coldstart(world_pipeline(tmp_path / "flat", world, spec="flat"),
                         world.eval_queries, world.rewards)
    margin = emb.average_performance - emb.random_mean
    drift = abs(flat.average_performance - flat.random_mean)
    ok = margin >= 0.25 and drift <= 0.1
    elapsed = time.perf_counter() - start
    _report(
        6,
        "cold-start directional",
        ok,
        f"emb:2 {emb.average_performance:.3f} vs random {emb.random_mean:.3f} "
        f"(margin {margin:+.3f} >= 0.25); flat {flat.average_performance:.3f} "
        f"(drift {drift:.3f} <= 0.1)",
        elapsed,
        20.0,
    )


def test_criterion_07_integration_directional():
    start = time.perf_counter()
    config = SynthWorldConfig(
        seed=0, num_domains=3, models_per_specialty=2, queries_per_domain=16, noise=0.0
    )
    world = integration_world(config)
    providers = Providers.deterministic(dim=64, seed=0)
    graph = build_world_graph(world.cards, 64, providers)
    spec = ProfileSpec.parse("emb:2")
    old_ids = [m.id for m in world.cards.models]
    profiles = make_profiles(graph, spec, old_ids, providers)
    pool = CandidatePool([profiles[m] for m in old_ids])
    train_q = sorted({r.query_id for r in world.interactions})
    query_vecs = {q: graph.embedding(q) for q in train_q}
    tasks = {q: world.tasks[q] for q in train_q}
    router = graphrouter_fit(tasks, query_vecs, world.interactions, pool, seed=0)

    blob_before = json.dumps(router.to_checkpoint(), sort_keys=True).encode()
    pool = integrate_new_model(pool, graph, world.new_card, spec, providers)
    blob_after = json.dumps(router.to_checkpoint(), sort_keys=True).encode()

    def route_all():
        return [
            router.route(
                graph.embedding(q), pool, query_id=q, task_id=world.tasks[q]
            )
            for q in world.eval_queries
        ]

    table = world.rewards.restrict(world.eval_queries, old_ids + [world.new_card.id])
    value = ncir(route_all(), table, world.new_card.id)

    zeroed = replace(pool.get(world.new_card.id), vector=np.zeros(64))
    pool = CandidatePool([zeroed if p.model_id == zeroed.model_id else p for p in pool.profiles()])
    zero_decisions = route_all()
    zero_value = ncir(zero_decisions, table, world.new_card.id)
    zero_picks = sum(1 for d in zero_decisions if d.chosen == world.new_card.id)

    ok = value > 0.0 and blob_before == blob_after and zero_value == 0.0 and zero_picks == 0
    elapsed = time.perf_counter() - start
    _report(
        7,
        "integration directional",
        ok,
        f"NCIR {value:.4f} > 0; checkpoint bytes unchanged: {blob_before == blob_after}; "
        f"zero-profile selections {zero_picks} (NCIR {zero_value:.1f})",
        elapsed,
        60.0,
    )


def test_criterion_08_cli_determinism(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(ENV_CONFIG, raising=False)
    start = time.perf_counter()
    commands = {
        "eval coldstart": ["eval", "coldstart", "--config", str(FIXTURE_DIR / "coldstart.json")],
        "eval integrate": ["eval", "integrate", "--config", str(FIXTURE_DIR / "integrate.json")],
    }
    stable = True
    for name, argv in commands.items():
        outputs = []
        for run in ("first", "second"):
            base = tmp_path / f"{name.replace(' ', '_')}_{run}"
            assert main(argv + ["--out", str(base)]) == 0
            outputs.append(
                base.with_suffix(".json").read_bytes() + base.with_suffix(".csv").read_bytes()
            )
        stable = stable and outputs[0] == outputs[1]
    capsys.readouterr()  # drop the subcommand chatter; keep only the report line
    elapsed = time.perf_counter() - start
    _report(
        8,
        "CLI determinism",
        stable,
        "eval coldstart + eval integrate byte-identical across repeat runs",
        elapsed,
    )


def test_criterion_09_textgnn_reachability(fixture_graph):
    start = time.perf_counter()
    model_ids = ["model_00_00", "model_00_01", "model_01_00", "model_01_01"]
    all_ids = set(fixture_graph.node_ids)
    exact = True
    for depth in (1, 2):
        texts = textgnn_run(fixture_graph, depth, EchoSummarizer(), fixture_graph.node_ids)
        for mid in model_ids:
            mentioned = {nid for nid in all_ids if nid in texts[mid]}
            if mentioned != bfs_ball(fixture_graph, mid, depth):
                exact = False
    elapsed = time.perf_counter() - start
    _report(
        9,
        "text propagation reachability",
        exact,
        "hop-K echo profiles mention exactly the distance-K ball for K in {1, 2}, all 4 models",
        elapsed,
    )


def test_criterion_10_service_contract(tmp_path):
    start = time.perf_counter()
    cfg = AppConfig(
        base_dir=FIXTURE_DIR,
        cards_dir=FIXTURE_DIR / "cards",
        dim=64,
        spec="emb:2",
        router="mlp",
        interactions=FIXTURE_DIR / "interactions.jsonl",
        tasks=FIXTURE_DIR / "tasks.jsonl",
        hidden=16,
        port=0,
    )
    httpd = make_server(cfg)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = httpd.server_address[:2]
        base = f"http://{host}:{port}"
        queries = [
            json.loads(line)["text"]
            for line in (FIXTURE_DIR / "cards" / "queries.jsonl").read_text().splitlines()
            if line.strip()
        ][:20]
        catalog = ["model_00_00", "model_00_01", "model_01_00", "model_01_01"]
        card = json.loads((FIXTURE_DIR / "new_model.json").read_text())

        checksum_before = requests.get(f"{base}/pool").json()["checksum"]
        before = [requests.post(f"{base}/route", json={"query_text": q}) for q in queries]
        registered = requests.post(f"{base}/models", json=card)
        duplicate = requests.post(f"{base}/models", json=card)
        after = [requests.post(f"{base}/route", json={"query_text": q}) for q in queries]
        pool_after = requests.get(f"{base}/pool").json()

        ok = (
            all(r.status_code == 200 for r in before + after)
            and all(sorted(r.json()["scores"]) == catalog for r in before)
            and registered.status_code == 200
            and registered.json()["models"] == catalog + [card["id"]]
            and duplicate.status_code == 409
            and all(sorted(r.json()["scores"]) == sorted(catalog + [card["id"]]) for r in after)
            and pool_after["models"] == catalog + [card["id"]]
            and pool_after["checksum"] == checksum_before
        )
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
    elapsed = time.perf_counter() - start
    _report(
        10,
        "service contract",
        ok,
        f"20 queries replayed around registration; pool {len(catalog)} -> {len(catalog) + 1}; "
        "duplicate 409; checksum unchanged",
        elapsed,
    )
