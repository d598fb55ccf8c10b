"""Reward tables, metrics against independent brute-force oracles, synthetic
worlds, and the two evaluation protocols."""

import json

import numpy as np
import pytest

from coldroute.errors import (
    ColdRouteError,
    ConfigError,
    EmptyTable,
    LeakedInteraction,
    MissingReward,
    UninitializedEmbedding,
)
from coldroute.config import build_world_graph
from coldroute.evaluation import (
    EvalReport,
    RewardTable,
    SynthWorldConfig,
    average_performance,
    integration_world,
    ncir,
    oracle,
    random_baseline,
    run_coldstart,
    run_integration,
    single_best,
    synth_world,
)
from coldroute.profiles import ProfileSpec
from coldroute.providers import Providers
from coldroute.routers import InteractionRecord, RoutingDecision


def _decision(qid: str, chosen: str) -> RoutingDecision:
    return RoutingDecision(qid, chosen, {chosen: 1.0})


def _random_table(rng: np.random.Generator, nq: int, nm: int) -> RewardTable:
    entries = {
        (f"q_{i:04d}", f"model_{j:02d}"): float(rng.integers(0, 101)) / 100.0
        for i in range(nq)
        for j in range(nm)
    }
    return RewardTable(entries)


# --- reward tables ---------------------------------------------------------

def test_table_validates_and_sorts_axes():
    table = RewardTable({("q_b", "m_b"): 0.5, ("q_a", "m_a"): 1.0, ("q_a", "m_b"): 0.0, ("q_b", "m_a"): 0.25})
    assert table.query_ids == ["q_a", "q_b"]
    assert table.model_ids == ["m_a", "m_b"]
    assert len(table) == 4
    with pytest.raises(ConfigError):
        RewardTable({("q", "m"): 1.5})
    with pytest.raises(ConfigError):
        RewardTable({("q", "m"): float("nan")})


def test_table_missing_pair_raises():
    table = RewardTable({("q_a", "m_a"): 1.0})
    with pytest.raises(MissingReward):
        table.reward("q_a", "m_b")
    with pytest.raises(MissingReward):
        table.restrict(["q_a"], ["m_a", "m_b"])


def test_table_restrict_is_complete_subtable():
    rng = np.random.default_rng(0)
    table = _random_table(rng, 6, 4)
    sub = table.restrict(["q_0001", "q_0004"], ["model_00", "model_03"])
    assert sub.query_ids == ["q_0001", "q_0004"]
    assert sub.model_ids == ["model_00", "model_03"]
    for qid in sub.query_ids:
        for mid in sub.model_ids:
            assert sub.reward(qid, mid) == table.reward(qid, mid)


def test_table_records_and_file_round_trips(tmp_path):
    rng = np.random.default_rng(1)
    table = _random_table(rng, 5, 3)
    back = RewardTable.from_records(table.to_records())
    assert len(back) == len(table)
    path = tmp_path / "rewards.jsonl"
    table.save(path)
    loaded = RewardTable.load(path)
    for qid in table.query_ids:
        for mid in table.model_ids:
            assert loaded.reward(qid, mid) == table.reward(qid, mid)
    with pytest.raises(ConfigError):
        RewardTable.from_records(
            [InteractionRecord("q", "m", 0.5), InteractionRecord("q", "m", 0.5)]
        )


# --- metric hand values ----------------------------------------------------

def test_average_performance_hand_value():
    table = RewardTable(
        {("q_0", "m_a"): 1.0, ("q_1", "m_a"): 0.0, ("q_2", "m_a"): 1.0}
    )
    decisions = [_decision(f"q_{i}", "m_a") for i in range(3)]
    assert average_performance(decisions, table) == pytest.approx(2.0 / 3.0)
    with pytest.raises(EmptyTable):
        average_performance([], table)


def test_oracle_and_single_best_hand_values():
    table = RewardTable(
        {("q_0", "m_a"): 1.0, ("q_0", "m_b"): 0.0, ("q_1", "m_a"): 0.0, ("q_1", "m_b"): 1.0}
    )
    assert oracle(table) == 1.0
    best_id, best_value = single_best(table)
    assert best_id == "m_a"  # equal means 0.5 resolve to the smaller id
    assert best_value == 0.5
    with pytest.raises(EmptyTable):
        oracle(RewardTable({}))
    with pytest.raises(EmptyTable):
        single_best(RewardTable({}))


def test_ncir_threshold_and_denominator():
    table = RewardTable(
        {
            ("q_0", "m_new"): 0.6,
            ("q_1", "m_new"): 1.0,
            ("q_2", "m_new"): 0.0,
            ("q_0", "m_old"): 0.2,
            ("q_1", "m_old"): 0.2,
            ("q_2", "m_old"): 0.2,
        }
    )
    decisions = [_decision("q_0", "m_new"), _decision("q_1", "m_new"), _decision("q_2", "m_old")]
    # default threshold 1.0: only q_1 counts, over all 3 queries
    assert ncir(decisions, table, "m_new") == pytest.approx(1.0 / 3.0)
    # lower threshold admits the 0.6 reward as well
    assert ncir(decisions, table, "m_new", threshold=0.5) == pytest.approx(2.0 / 3.0)
    # never routed to the new model -> exactly zero
    assert ncir([_decision("q_0", "m_old")], table, "m_new") == 0.0
    with pytest.raises(EmptyTable):
        ncir([], table, "m_new")


def test_random_baseline_all_ones_and_bounds():
    entries = {(f"q_{i}", f"m_{j}"): 1.0 for i in range(4) for j in range(3)}
    assert random_baseline(RewardTable(entries)) == 1.0
    rng = np.random.default_rng(2)
    table = _random_table(rng, 8, 4)
    value = random_baseline(table)
    assert 0.0 <= value <= 1.0


def test_random_baseline_converges_to_table_mean():
    rng = np.random.default_rng(3)
    table = _random_table(rng, 40, 5)
    grand_mean = float(
        np.mean([table.reward(q, m) for q in table.query_ids for m in table.model_ids])
    )
    value = random_baseline(table, seeds=range(300))
    assert abs(value - grand_mean) < 0.02


# --- brute-force agreement -------------------------------------------------

def _brute_force(table: RewardTable):
    """Metrics recomputed from the raw grid with plain loops."""
    qs, ms = table.query_ids, table.model_ids
    grid = [[table.reward(q, m) for m in ms] for q in qs]
    oracle_bf = sum(max(row) for row in grid) / len(qs)
    means = []
    for j, m in enumerate(ms):
        means.append(sum(grid[i][j] for i in range(len(qs))) / len(qs))
    best = max(means)
    single_bf = (ms[means.index(best)], best)
    return oracle_bf, single_bf


def test_metrics_match_brute_force_on_random_tables():
    rng = np.random.default_rng(7)
    for _ in range(25):
        table = _random_table(rng, int(rng.integers(1, 15)), int(rng.integers(1, 6)))
        oracle_bf, single_bf = _brute_force(table)
        assert oracle(table) == oracle_bf
        assert single_best(table) == single_bf
        chosen = [
            _decision(q, table.model_ids[int(rng.integers(len(table.model_ids)))])
            for q in table.query_ids
        ]
        avg_bf = sum(table.reward(d.query_id, d.chosen) for d in chosen) / len(chosen)
        assert average_performance(chosen, table) == avg_bf


# --- synthetic worlds ------------------------------------------------------

def test_synth_world_is_deterministic_and_seed_sensitive():
    config = SynthWorldConfig(seed=0, num_domains=2, models_per_specialty=2, queries_per_domain=4)
    a, b = synth_world(config), synth_world(config)
    assert a.cards == b.cards
    assert all(
        a.rewards.reward(q, m) == b.rewards.reward(q, m)
        for q in a.rewards.query_ids
        for m in a.rewards.model_ids
    )
    c = synth_world(SynthWorldConfig(seed=1, num_domains=2, models_per_specialty=2, queries_per_domain=4))
    assert a.cards != c.cards


def test_synth_world_structure_and_noise_free_rewards():
    config = SynthWorldConfig(
        seed=0, num_domains=3, models_per_specialty=2, queries_per_domain=6, noise=0.0
    )
    world = synth_world(config)
    assert len(world.cards.models) == 6
    assert len(world.cards.queries) == 18
    assert len(world.rewards) == 18 * 6
    # model descriptions never leak the planted domain vocabulary
    domain_words = {w for d in world.cards.domains for w in d.description.lower().split()}
    for model in world.cards.models:
        assert model.id not in model.description
        assert not ({w.strip(".,") for w in model.description.lower().split()} & domain_words - {"a", "of", "and"})
    # without noise, reward == planted-specialty indicator
    for qid, d in world.domain_of_query.items():
        for mid, s in world.specialty.items():
            assert world.rewards.reward(qid, mid) == (1.0 if d == s else 0.0)
    # deterministic first-half split per domain
    assert len(world.train_queries) == len(world.eval_queries) == 9
    assert set(world.train_queries).isdisjoint(world.eval_queries)


def test_synth_world_config_guards():
    with pytest.raises(ConfigError):
        SynthWorldConfig(num_domains=0)
    with pytest.raises(ConfigError):
        SynthWorldConfig(num_domains=99)
    with pytest.raises(ConfigError):
        SynthWorldConfig(noise=1.0)
    with pytest.raises(ConfigError):
        SynthWorldConfig(models_per_specialty=0)


def test_integration_world_holds_out_the_new_model():
    config = SynthWorldConfig(
        seed=0, num_domains=2, models_per_specialty=2, queries_per_domain=6, noise=0.0
    )
    world = integration_world(config)
    old_ids = [m.id for m in world.cards.models]
    assert world.new_card.id == "model_01_00"
    assert world.new_card.id not in old_ids
    assert old_ids == ["model_00_00", "model_00_01"]
    # interactions never mention the held-out model and only use train queries
    assert all(r.model_id in old_ids for r in world.interactions)
    assert {r.query_id for r in world.interactions} == set(world.train_queries)
    # rewards cover the expanded pool for every query
    assert world.rewards.model_ids == sorted(old_ids + [world.new_card.id])
    with pytest.raises(ConfigError):
        integration_world(SynthWorldConfig(num_domains=1))


# --- protocols -------------------------------------------------------------

@pytest.fixture()
def small_world():
    config = SynthWorldConfig(
        seed=0, num_domains=2, models_per_specialty=2, queries_per_domain=6, noise=0.0
    )
    world = synth_world(config)
    providers = Providers.deterministic(dim=32, seed=0)
    graph = build_world_graph(world.cards, 32, providers)
    return world, graph, providers


def test_run_coldstart_report_is_consistent_and_deterministic(small_world):
    world, graph, providers = small_world
    pool = sorted(m.id for m in world.cards.models)
    report = run_coldstart(
        graph, ProfileSpec.parse("emb:2"), pool, world.eval_queries, world.rewards, providers
    )
    assert report.protocol == "coldstart" and report.router == "sim"
    assert report.num_queries == len(world.eval_queries)
    assert [r["query_id"] for r in report.decisions] == sorted(world.eval_queries)
    recomputed = sum(r["reward"] for r in report.decisions) / len(report.decisions)
    assert report.average_performance == pytest.approx(recomputed)
    assert 0.0 <= report.average_performance <= report.oracle
    assert report.single_best <= report.oracle
    again = run_coldstart(
        graph, ProfileSpec.parse("emb:2"), pool, world.eval_queries, world.rewards, providers
    )
    assert report.to_dict() == again.to_dict()


def test_run_integration_frozen_router_and_ncir(small_world):
    world_cfg = SynthWorldConfig(
        seed=0, num_domains=2, models_per_specialty=2, queries_per_domain=6, noise=0.0
    )
    world = integration_world(world_cfg)
    providers = Providers.deterministic(dim=32, seed=0)
    graph = build_world_graph(world.cards, 32, providers)
    old_pool = [m.id for m in world.cards.models]
    report = run_integration(
        graph,
        ProfileSpec.parse("emb:2"),
        old_pool,
        world.new_card,
        "graphrouter",
        world.interactions,
        world.eval_queries,
        world.rewards,
        providers,
        tasks=world.tasks,
        hidden=16,
    )
    assert report.protocol == "integration"
    assert report.new_model_id == world.new_card.id
    assert report.router_checksum is not None
    assert report.ncir is not None and report.threshold == 1.0
    assert 0.0 <= report.ncir <= report.average_performance <= report.oracle


def test_run_integration_zero_profile_override_never_selects_new(small_world):
    world_cfg = SynthWorldConfig(
        seed=0, num_domains=2, models_per_specialty=2, queries_per_domain=6, noise=0.0
    )
    world = integration_world(world_cfg)
    providers = Providers.deterministic(dim=32, seed=0)
    graph = build_world_graph(world.cards, 32, providers)
    old_pool = [m.id for m in world.cards.models]
    report = run_integration(
        graph,
        ProfileSpec.parse("emb:2"),
        old_pool,
        world.new_card,
        "graphrouter",
        world.interactions,
        world.eval_queries,
        world.rewards,
        providers,
        tasks=world.tasks,
        hidden=16,
        new_profile_override=np.zeros(32),
    )
    assert report.ncir == 0.0
    assert all(row["chosen"] != world.new_card.id for row in report.decisions)


def test_run_integration_rejects_leaked_interactions(small_world):
    world_cfg = SynthWorldConfig(
        seed=0, num_domains=2, models_per_specialty=2, queries_per_domain=6, noise=0.0
    )
    world = integration_world(world_cfg)
    providers = Providers.deterministic(dim=32, seed=0)
    graph = build_world_graph(world.cards, 32, providers)
    old_pool = [m.id for m in world.cards.models]
    leaked = world.interactions + [
        InteractionRecord(world.train_queries[0], world.new_card.id, 1.0)
    ]
    with pytest.raises(LeakedInteraction):
        run_integration(
            graph,
            ProfileSpec.parse("emb:2"),
            old_pool,
            world.new_card,
            "sim",
            leaked,
            world.eval_queries,
            world.rewards,
            providers,
        )


def test_run_integration_graphrouter_needs_tasks(small_world):
    world_cfg = SynthWorldConfig(
        seed=0, num_domains=2, models_per_specialty=2, queries_per_domain=6, noise=0.0
    )
    world = integration_world(world_cfg)
    providers = Providers.deterministic(dim=32, seed=0)
    graph = build_world_graph(world.cards, 32, providers)
    old_pool = [m.id for m in world.cards.models]
    with pytest.raises(ConfigError):
        run_integration(
            graph,
            ProfileSpec.parse("emb:2"),
            old_pool,
            world.new_card,
            "graphrouter",
            world.interactions,
            world.eval_queries,
            world.rewards,
            providers,
        )


def test_protocols_need_an_encoded_graph():
    world = integration_world(SynthWorldConfig(seed=0, models_per_specialty=2, queries_per_domain=6))
    graph = build_world_graph(world.cards, 32)
    providers = Providers.deterministic(dim=32, seed=0)
    old_pool = [m.id for m in world.cards.models]
    with pytest.raises(UninitializedEmbedding):
        run_coldstart(graph, ProfileSpec.parse("emb:1"), old_pool, world.eval_queries,
                      world.rewards, providers)
    with pytest.raises(UninitializedEmbedding):
        run_integration(graph, ProfileSpec.parse("emb:1"), old_pool, world.new_card, "sim",
                        None, world.eval_queries, world.rewards, providers)


def test_report_file_outputs(small_world, tmp_path):
    world, graph, providers = small_world
    pool = sorted(m.id for m in world.cards.models)
    report = run_coldstart(
        graph, ProfileSpec.parse("flat"), pool, world.eval_queries, world.rewards, providers
    )
    json_path, csv_path = tmp_path / "report.json", tmp_path / "report.csv"
    report.write_json(json_path)
    report.write_csv(csv_path)
    payload = json.loads(json_path.read_text())
    assert payload["protocol"] == "coldstart"
    assert payload["baselines"]["random_seeds"] == [0, 1, 2, 3, 4, 5]
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "query_id,chosen_model_id,reward"
    assert len(lines) == 1 + report.num_queries
