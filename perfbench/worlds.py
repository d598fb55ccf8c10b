"""Seeded inputs for the three stages of the benchmark.

Every input is derived from the run's ``--seed`` through the program's own
world generators (``synth_world`` / ``integration_world``) and written with
its ``save_*`` writers, so the program only ever sees files on disk.  The
reward tables stay in memory: the output checks score decisions against
them without asking the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from coldroute.evaluation import (
    RewardTable,
    SynthWorldConfig,
    integration_world,
    synth_world,
)
from coldroute.graph import save_cards
from coldroute.routers import InteractionRecord, save_interactions, save_tasks

DIM = 64

# World sizes: (domains, models per specialty, queries per domain).
SERVE_SIZE = (8, 6, 40)  # 400 nodes; graph router over 48 models
SERVE_SAMPLES_PER_QUERY = 8  # interactions sampled per training query
ADMIT_SIZE = (8, 3, 20)  # 216 nodes; 56 of them rewritten per text hop
EVAL_SIZE = (8, 4, 60)  # 544 nodes for the cold-start commands
INTEGRATE_SIZE = (8, 3, 20)  # integration world, a third of its interactions
INTEGRATE_SHARE = 3


@dataclass
class ServeInputs:
    config: Path
    rewards: RewardTable
    queries: list[tuple[str, str, str]]  # (query id, text, task id), in load order


@dataclass
class AdmitInputs:
    config: Path
    state_path: Path
    queries: list[str]  # query texts, in load order
    cards: list[dict]  # new model cards, registered in this order


@dataclass
class EvalInputs:
    coldstart_config: Path
    integrate_config: Path
    coldstart_rewards: RewardTable
    coldstart_pool: list[str]
    integrate_rewards: RewardTable
    integrate_pool: list[str]  # old pool plus the new model, last
    new_model_id: str


def _config(size: tuple[int, int, int], seed: int) -> SynthWorldConfig:
    domains, models, queries = size
    return SynthWorldConfig(
        seed=seed, num_domains=domains, models_per_specialty=models, queries_per_domain=queries
    )


def _write_config(path: Path, payload: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def serve_inputs(seed: int, workdir: Path) -> ServeInputs:
    """Graph-router service over a planted world; load is its eval queries."""
    world = synth_world(_config(SERVE_SIZE, seed))
    rng = random.Random(seed)
    models = sorted(world.specialty)
    interactions = [
        InteractionRecord(q, m, world.rewards.reward(q, m))
        for q in world.train_queries
        for m in sorted(rng.sample(models, SERVE_SAMPLES_PER_QUERY))
    ]
    save_cards(world.cards, workdir / "cards")
    save_interactions(interactions, workdir / "interactions.jsonl")
    save_tasks(world.tasks, workdir / "tasks.jsonl")
    config = _write_config(
        workdir / "serve.json",
        {
            "cards_dir": "cards",
            "dim": DIM,
            "encoder": {"kind": "deterministic", "seed": 0},
            "spec": "emb:2",
            "router": "graphrouter",
            "interactions": "interactions.jsonl",
            "tasks": "tasks.jsonl",
            "seed": 0,
        },
    )
    texts = {q.id: q.text for q in world.cards.queries}
    order = list(world.eval_queries)
    rng.shuffle(order)
    queries = [(q, texts[q], world.tasks[q]) for q in order]
    return ServeInputs(config, world.rewards, queries)


def new_model_cards(seed: int, world, count: int) -> list[dict]:
    """Cards for models the world has never seen, each in an existing family."""
    rng = random.Random(seed * 7919 + 1)
    benches = sorted(b.id for b in world.cards.benchmarks)
    families = sorted(f.id for f in world.cards.families)
    cards = []
    for i in range(count):
        family = rng.choice(families)
        own = [b for b in benches if b.startswith(f"bench_{family[-2:]}_")]
        others = rng.sample([b for b in benches if b not in own], 3)
        scores = {b: round(rng.uniform(0.8, 0.97), 3) for b in own}
        scores.update({b: round(rng.uniform(0.1, 0.35), 3) for b in others})
        cards.append(
            {
                "id": f"model_new_{i:03d}",
                "family_id": family,
                "description": f"A newly released assistant model, release {i:03d}.",
                "scores": dict(sorted(scores.items())),
            }
        )
    return cards


def admit_inputs(seed: int, workdir: Path, stub_url: str, cards: int) -> AdmitInputs:
    """Text-profile service whose embedder and summarizer are the stub."""
    world = synth_world(_config(ADMIT_SIZE, seed))
    save_cards(world.cards, workdir / "cards")
    state_path = workdir / "state.json"
    remote = {"kind": "remote", "retries": 0, "timeout": 30.0}
    config = _write_config(
        workdir / "admit.json",
        {
            "cards_dir": "cards",
            "dim": DIM,
            "encoder": {**remote, "url": f"{stub_url}/v1/embeddings"},
            "summarizer": {**remote, "url": f"{stub_url}/v1/chat/completions"},
            "spec": "text:2",
            "router": "sim",
            "seed": 0,
            "service": {"state_path": state_path.name},
        },
    )
    rng = random.Random(seed)
    texts = [q.text for q in world.cards.queries if q.id in set(world.eval_queries)]
    rng.shuffle(texts)
    return AdmitInputs(config, state_path, texts, new_model_cards(seed, world, cards))


def eval_inputs(seed: int, workdir: Path) -> EvalInputs:
    """One planted world for both cold-start specs, one integration world."""
    world = synth_world(_config(EVAL_SIZE, seed))
    cold = workdir / "coldstart"
    save_cards(world.cards, cold / "cards")
    world.rewards.save(cold / "rewards.jsonl")
    coldstart_config = _write_config(
        cold / "coldstart.json",
        {
            "cards_dir": "cards",
            "dim": DIM,
            "rewards": "rewards.jsonl",
            "eval_queries": world.eval_queries,
            "seed": 0,
        },
    )

    iworld = integration_world(_config(INTEGRATE_SIZE, seed))
    rng = random.Random(seed)
    interactions = sorted(
        rng.sample(iworld.interactions, len(iworld.interactions) // INTEGRATE_SHARE),
        key=lambda r: (r.query_id, r.model_id),
    )
    integ = workdir / "integrate"
    save_cards(iworld.cards, integ / "cards")
    iworld.rewards.save(integ / "rewards.jsonl")
    save_interactions(interactions, integ / "interactions.jsonl")
    save_tasks(iworld.tasks, integ / "tasks.jsonl")
    card = iworld.new_card
    (integ / "new_model.json").write_text(
        json.dumps(
            {"id": card.id, "family_id": card.family_id, "description": card.description,
             "scores": card.scores},
            sort_keys=True,
        )
    )
    integrate_config = _write_config(
        integ / "integrate.json",
        {
            "cards_dir": "cards",
            "dim": DIM,
            "rewards": "rewards.jsonl",
            "interactions": "interactions.jsonl",
            "tasks": "tasks.jsonl",
            "new_model_card": "new_model.json",
            "eval_queries": iworld.eval_queries,
            "threshold": 1.0,
            "seed": 0,
        },
    )
    old_pool = [m.id for m in iworld.cards.models]
    return EvalInputs(
        coldstart_config=coldstart_config,
        integrate_config=integrate_config,
        coldstart_rewards=world.rewards.restrict(world.eval_queries, sorted(world.specialty)),
        coldstart_pool=sorted(world.specialty),
        integrate_rewards=iworld.rewards.restrict(iworld.eval_queries, old_pool + [card.id]),
        integrate_pool=old_pool + [card.id],
        new_model_id=card.id,
    )
