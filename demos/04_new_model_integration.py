"""Integrating a brand-new model into a frozen router.

The scenario: a router was trained on an old candidate pool; later a new
model appears that uniquely dominates one domain no old model covers.
Integration must (a) never touch the trained parameters, and (b) make
the new model immediately routable from its public-signal profile alone.
NCIR — the fraction of evaluation queries both routed to the new model
and answered correctly by it — measures whether that worked.  A control
with a zeroed-out profile shows the router structurally cannot prefer a
model that brings no evidence.

Run from the repository root:  python3 demos/04_new_model_integration.py
"""

import json

import numpy as np

from coldroute.config import build_world_graph
from coldroute.evaluation import (
    SynthWorldConfig,
    integration_world,
    ncir,
)
from coldroute.profiles import ProfileSpec, make_profiles
from coldroute.providers import Providers
from coldroute.routers import (
    CandidatePool,
    graphrouter_fit,
    integrate_new_model,
    router_checksum,
)


def section(title: str) -> None:
    print(f"\n=== {title} ===")


def main() -> None:
    section("A world with a coverage hole")
    config = SynthWorldConfig(
        seed=0, num_domains=3, models_per_specialty=2, queries_per_domain=16, noise=0.0
    )
    world = integration_world(config)
    old_ids = [m.id for m in world.cards.models]
    print(f"old pool: {old_ids}  (no specialist for the third domain)")
    own = {b: s for b, s in sorted(world.new_card.scores.items()) if b.startswith("bench_02")}
    rest = max(s for b, s in world.new_card.scores.items() if not b.startswith("bench_02"))
    print(f"incoming model: {world.new_card.id} — strong on the uncovered domain "
          f"({own}), at most {rest:.3f} elsewhere")
    print(f"{len(world.interactions)} training interactions, all on the old pool")

    section("Train the graph router on the old pool, then freeze it")
    providers = Providers.deterministic(dim=64, seed=0)
    graph = build_world_graph(world.cards, 64, providers)
    spec = ProfileSpec.parse("emb:2")
    profiles = make_profiles(graph, spec, old_ids, providers)
    pool = CandidatePool([profiles[m] for m in old_ids])
    train_q = sorted({r.query_id for r in world.interactions})
    query_vecs = {q: graph.embedding(q) for q in train_q}
    tasks = {q: world.tasks[q] for q in train_q}
    router = graphrouter_fit(tasks, query_vecs, world.interactions, pool, seed=0)
    print(f"training loss {router.loss_trace[0]:.4f} -> {router.loss_trace[-1]:.4f}")
    checksum = router_checksum(router)
    print(f"frozen checkpoint checksum: {checksum[:16]}...")

    section("Integrate: one profile computation, zero parameter updates")
    blob_before = json.dumps(router.to_checkpoint(), sort_keys=True)
    integrate_new_model(router, pool, graph, world.new_card, spec, providers)
    blob_after = json.dumps(router.to_checkpoint(), sort_keys=True)
    print(f"pool: {pool.ids}")
    print(f"checkpoint bytes unchanged: {blob_before == blob_after}")

    section("Evaluate on held-out queries")
    table = world.rewards.restrict(world.eval_queries, pool.ids)

    def route_all():
        return [
            router.route(graph.embedding(q), pool,
                         query_id=q, task_id=world.tasks[q])
            for q in world.eval_queries
        ]

    decisions = route_all()
    picks = sum(1 for d in decisions if d.chosen == world.new_card.id)
    value = ncir(decisions, table, world.new_card.id)
    print(f"queries routed to {world.new_card.id}: {picks}/{len(decisions)}")
    print(f"NCIR = {value:.4f}  (> 0: the frozen router usefully adopts the newcomer)")

    section("Control: a profile with no evidence")
    pool.get(world.new_card.id).vector = np.zeros(64)
    zero_decisions = route_all()
    zero_picks = sum(1 for d in zero_decisions if d.chosen == world.new_card.id)
    floor = min(min(d.scores.values()) for d in zero_decisions)
    zero_score = zero_decisions[0].scores[world.new_card.id]
    print(f"zero-profile score is pinned at sigmoid(0) = {zero_score}; "
          f"lowest score seen anywhere: {floor:.3f}")
    print(f"selections with the zeroed profile: {zero_picks} "
          f"(NCIR {ncir(zero_decisions, table, world.new_card.id):.1f})")
    print("A model that brings no signal can never out-rank one that does — "
          "the read-out is bias-free and non-negative, so zero evidence is the floor.")


if __name__ == "__main__":
    main()
