"""Evaluation protocols, metrics, reference baselines, synthetic worlds.

Two protocols:

* cold start — no interaction data exists for anyone; profiles alone drive
  a similarity router over the full pool.
* integration — a router is trained on interactions from the existing
  pool, frozen, and a new model joins afterwards carrying only its
  public-signal profile.

Metrics are Average Performance (mean reward of the chosen model) and
NCIR (fraction of evaluation queries both routed to the new model and
answered correctly by it).  Reference points: Oracle (per-query best),
Single-Best (best single model applied everywhere), Random (uniform
choice averaged over seeds 0-5).

The synthetic worlds plant specialties: domain keywords appear only in
benchmark, domain, and query texts, never in model or family
descriptions — so flat profiles carry no routing signal while structured
propagation picks the keywords up through scored edges.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import records
from .config import Pipeline
from .errors import ColdRouteError, ConfigError, EmptyTable, MissingReward
from .graph import (
    BenchmarkCard,
    CardSet,
    DomainCard,
    FamilyCard,
    ModelCard,
    QueryRecord,
)
from .routers import (
    InteractionRecord,
    RoutingDecision,
    integrate_new_model,
    load_interactions,
    query_vectors,
    router_checksum,
    save_interactions,
    sim_route,
)


DEFAULT_RANDOM_SEEDS = (0, 1, 2, 3, 4, 5)


class RewardTable:
    """Complete (query, model) -> reward map for an evaluation."""

    def __init__(self, entries: dict[tuple[str, str], float]):
        self._rewards: dict[tuple[str, str], float] = {}
        for (qid, mid), value in entries.items():
            value = float(value)
            if not (0.0 <= value <= 1.0):  # NaN fails this too
                raise ConfigError(f"reward {value!r} for ({qid!r}, {mid!r}) outside [0, 1]")
            self._rewards[(qid, mid)] = value
        self.query_ids = sorted({q for q, _ in self._rewards})
        self.model_ids = sorted({m for _, m in self._rewards})

    def reward(self, query_id: str, model_id: str) -> float:
        try:
            return self._rewards[(query_id, model_id)]
        except KeyError:
            raise MissingReward(query_id, model_id) from None

    def __len__(self) -> int:
        return len(self._rewards)

    def restrict(self, queries: list[str], models: list[str]) -> "RewardTable":
        """The complete sub-table over the given axes; raises if any pair is absent."""
        out = {}
        for qid in queries:
            for mid in models:
                out[(qid, mid)] = self.reward(qid, mid)
        return RewardTable(out)

    def to_records(self) -> list[InteractionRecord]:
        return [
            InteractionRecord(q, m, self._rewards[(q, m)])
            for q, m in sorted(self._rewards)
        ]

    @classmethod
    def from_records(cls, records: list[InteractionRecord]) -> "RewardTable":
        entries: dict[tuple[str, str], float] = {}
        for rec in records:
            key = (rec.query_id, rec.model_id)
            if key in entries:
                raise ConfigError(f"duplicate reward entry for {key!r}")
            entries[key] = rec.reward
        return cls(entries)

    def save(self, path: str | Path) -> None:
        rows = sorted(self._rewards.items())
        save_interactions((InteractionRecord(q, m, r) for (q, m), r in rows), path)

    @classmethod
    def load(cls, path: str | Path) -> "RewardTable":
        return cls.from_records(load_interactions(path))


# --- metrics ---------------------------------------------------------------

def average_performance(decisions: list[RoutingDecision], rewards: RewardTable) -> float:
    """Mean reward of the chosen model across queries."""
    if not decisions:
        raise EmptyTable()
    total = sum(rewards.reward(d.query_id, d.chosen) for d in decisions)
    return total / len(decisions)


def ncir(
    decisions: list[RoutingDecision],
    rewards: RewardTable,
    new_model_id: str,
    threshold: float = 1.0,
) -> float:
    """Fraction of queries routed to the new model that it answers correctly.

    A query counts iff the decision chose ``new_model_id`` and the recorded
    reward reaches ``threshold``; the denominator is all evaluation queries.
    """
    if not decisions:
        raise EmptyTable()
    hits = 0
    for d in decisions:
        if d.chosen == new_model_id and rewards.reward(d.query_id, new_model_id) >= threshold:
            hits += 1
    return hits / len(decisions)


def oracle(rewards: RewardTable) -> float:
    """Mean over queries of the best available reward."""
    if not len(rewards):
        raise EmptyTable()
    total = 0.0
    for qid in rewards.query_ids:
        total += max(rewards.reward(qid, mid) for mid in rewards.model_ids)
    return total / len(rewards.query_ids)


def single_best(rewards: RewardTable) -> tuple[str, float]:
    """The one model with the highest mean reward (ties: smallest id)."""
    if not len(rewards):
        raise EmptyTable()
    means = {
        mid: sum(rewards.reward(qid, mid) for qid in rewards.query_ids) / len(rewards.query_ids)
        for mid in rewards.model_ids
    }
    best = max(means.values())
    chosen = min(mid for mid, v in means.items() if v == best)
    return chosen, means[chosen]


def random_baseline(rewards: RewardTable, seeds=DEFAULT_RANDOM_SEEDS) -> float:
    """Mean reward of uniform random selection, averaged over seeds."""
    if not len(rewards):
        raise EmptyTable()
    models = rewards.model_ids
    per_seed = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        total = 0.0
        for qid in rewards.query_ids:
            total += rewards.reward(qid, models[int(rng.integers(len(models)))])
        per_seed.append(total / len(rewards.query_ids))
    return float(np.mean(per_seed))


# --- reports ---------------------------------------------------------------

@dataclass
class EvalReport:
    protocol: str
    spec: str
    router: str
    num_queries: int
    average_performance: float
    oracle: float
    single_best_model: str
    single_best: float
    random_mean: float
    random_seeds: list[int]
    decisions: list[dict]  # {query_id, chosen, reward}, sorted by query id
    ncir: float | None = None
    threshold: float | None = None
    new_model_id: str | None = None
    router_checksum: str | None = None

    def to_dict(self) -> dict:
        out = {
            "protocol": self.protocol,
            "spec": self.spec,
            "router": self.router,
            "num_queries": self.num_queries,
            "average_performance": self.average_performance,
            "baselines": {
                "oracle": self.oracle,
                "single_best": {"model_id": self.single_best_model, "value": self.single_best},
                "random_mean": self.random_mean,
                "random_seeds": list(self.random_seeds),
            },
            "decisions": self.decisions,
        }
        if self.ncir is not None:
            out["ncir"] = self.ncir
            out["threshold"] = self.threshold
        if self.new_model_id is not None:
            out["new_model_id"] = self.new_model_id
        if self.router_checksum is not None:
            out["router_checksum"] = self.router_checksum
        return out

    def write_json(self, path: str | Path) -> None:
        records.write(path, self.to_dict(), "pretty")

    def write_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["query_id", "chosen_model_id", "reward"])
            for row in self.decisions:
                writer.writerow([row["query_id"], row["chosen"], row["reward"]])


def _decision_rows(decisions: list[RoutingDecision], rewards: RewardTable) -> list[dict]:
    rows = [
        {
            "query_id": d.query_id,
            "chosen": d.chosen,
            "reward": rewards.reward(d.query_id, d.chosen),
        }
        for d in decisions
    ]
    return sorted(rows, key=lambda r: r["query_id"])


# --- synthetic worlds ------------------------------------------------------

_KEYWORDS = [
    ("arithmetic", "algebra", "equations"),
    ("compilers", "debugging", "refactoring"),
    ("contracts", "statutes", "litigation"),
    ("molecules", "enzymes", "genomes"),
    ("ledgers", "auditing", "valuation"),
    ("sonnets", "metaphors", "narrative"),
    ("circuits", "voltage", "capacitors"),
    ("glaciers", "monsoons", "sediment"),
]


@dataclass(frozen=True)
class SynthWorldConfig:
    seed: int = 0
    num_domains: int = 2
    models_per_specialty: int = 3
    queries_per_domain: int = 20
    noise: float = 0.1

    def __post_init__(self) -> None:
        if self.num_domains < 1 or self.num_domains > len(_KEYWORDS):
            raise ConfigError(f"num_domains must be in [1, {len(_KEYWORDS)}]")
        if self.models_per_specialty < 1 or self.queries_per_domain < 1:
            raise ConfigError("all world counts must be >= 1")
        if not (0.0 <= self.noise < 1.0):
            raise ConfigError("noise must lie in [0, 1)")


@dataclass
class SynthWorld:
    cards: CardSet
    rewards: RewardTable
    tasks: dict[str, str]  # query id -> task id
    specialty: dict[str, int]  # model id -> domain index
    domain_of_query: dict[str, int]
    train_queries: list[str]  # deterministic first-half split per domain
    eval_queries: list[str]


def synth_world(config: SynthWorldConfig) -> SynthWorld:
    """Planted-specialty world with neutral ids and keyword-free model cards."""
    rng = np.random.default_rng(config.seed)
    cards = CardSet()
    specialty: dict[str, int] = {}
    domain_of_query: dict[str, int] = {}
    tasks: dict[str, str] = {}
    bench_ids: dict[int, list[str]] = {}

    for d in range(config.num_domains):
        k1, k2, k3 = _KEYWORDS[d]
        cards.domains.append(
            DomainCard(f"dom_{d:02d}", f"Tasks about {k1}, {k2}, and {k3}.")
        )
        cards.families.append(
            FamilyCard(
                f"fam_{d:02d}",
                f"A family of general purpose assistant models, generation {d:02d}.",
            )
        )
        bench_ids[d] = []
        for suffix, kws in (("a", (k1, k2)), ("b", (k2, k3))):
            bid = f"bench_{d:02d}_{suffix}"
            bench_ids[d].append(bid)
            cards.benchmarks.append(
                BenchmarkCard(
                    bid,
                    f"dom_{d:02d}",
                    f"A benchmark suite probing {kws[0]} and {kws[1]} problems.",
                )
            )

    all_bench = [b for d in range(config.num_domains) for b in bench_ids[d]]
    for d in range(config.num_domains):
        for i in range(config.models_per_specialty):
            mid = f"model_{d:02d}_{i:02d}"
            specialty[mid] = d
            scores = {}
            for bid in all_bench:
                own = bid in bench_ids[d]
                low, span = (0.82, 0.15) if own else (0.10, 0.25)
                scores[bid] = round(low + span * rng.random(), 3)
            cards.models.append(
                ModelCard(
                    mid,
                    f"fam_{d:02d}",
                    f"An instruction tuned assistant model, build {i:02d}.",
                    scores,
                )
            )

    train_queries: list[str] = []
    eval_queries: list[str] = []
    for d in range(config.num_domains):
        k1, k2, k3 = _KEYWORDS[d]
        prompts = (
            f"Please handle this {k1} assignment about {k2}",
            f"Need help with a {k2} exercise covering {k3}",
            f"Work through a {k3} problem that uses {k1}",
        )
        for i in range(config.queries_per_domain):
            qid = f"q_{d:02d}_{i:04d}"
            text = f"{prompts[i % 3]}, item {i:04d}."
            cards.queries.append(QueryRecord(qid, bench_ids[d][i % 2], text))
            domain_of_query[qid] = d
            tasks[qid] = f"task_{d:02d}"
            if i < config.queries_per_domain // 2:
                train_queries.append(qid)
            else:
                eval_queries.append(qid)

    entries: dict[tuple[str, str], float] = {}
    for qid in sorted(domain_of_query):
        for mid in sorted(specialty):
            match = domain_of_query[qid] == specialty[mid]
            value = 1.0 if match else 0.0
            if rng.random() < config.noise:
                value = 1.0 - value
            entries[(qid, mid)] = value
    rewards = RewardTable(entries)

    return SynthWorld(
        cards, rewards, tasks, specialty, domain_of_query, train_queries, eval_queries
    )


@dataclass
class IntegrationWorld:
    cards: CardSet  # old models only; last domain has no specialist
    new_card: ModelCard
    rewards: RewardTable  # complete over all queries x (old + new)
    tasks: dict[str, str]
    interactions: list[InteractionRecord]  # train queries x old models
    train_queries: list[str]
    eval_queries: list[str]
    specialty: dict[str, int]
    domain_of_query: dict[str, int]


def integration_world(config: SynthWorldConfig) -> IntegrationWorld:
    """A world where the new model uniquely dominates the last domain.

    The base world is generated, then every specialist of the final domain
    is removed from the card set; a single new-model card takes that slot.
    Rewards cover the expanded pool, so integration runs can score the new
    model without touching training data.
    """
    if config.num_domains < 2:
        raise ConfigError("integration worlds need at least 2 domains")
    base = synth_world(config)
    last = config.num_domains - 1
    dropped = {m for m, d in base.specialty.items() if d == last}
    new_id = f"model_{last:02d}_00"
    new_card = next(m for m in base.cards.models if m.id == new_id)

    cards = CardSet(
        families=base.cards.families,
        models=[m for m in base.cards.models if m.id not in dropped],
        benchmarks=base.cards.benchmarks,
        domains=base.cards.domains,
        queries=base.cards.queries,
    )
    old_models = [m.id for m in cards.models]
    keep = set(old_models) | {new_id}
    entries = {
        (q, m): base.rewards.reward(q, m)
        for q in base.rewards.query_ids
        for m in base.rewards.model_ids
        if m in keep
    }
    interactions = [
        InteractionRecord(q, m, base.rewards.reward(q, m))
        for q in base.train_queries
        for m in old_models
    ]
    specialty = {m: d for m, d in base.specialty.items() if m in keep}
    return IntegrationWorld(
        cards=cards,
        new_card=new_card,
        rewards=RewardTable(entries),
        tasks=base.tasks,
        interactions=interactions,
        train_queries=base.train_queries,
        eval_queries=base.eval_queries,
        specialty=specialty,
        domain_of_query=base.domain_of_query,
    )


# --- protocols -------------------------------------------------------------

def _report(
    protocol: str,
    pipe: Pipeline,
    router: str,
    decisions: list[RoutingDecision],
    table: RewardTable,
    **integration,
) -> EvalReport:
    """The report of one protocol run: its metrics and the reference baselines."""
    best_id, best_value = single_best(table)
    random_seeds = pipe.cfg.random_seeds
    return EvalReport(
        protocol=protocol,
        spec=pipe.spec.short(),
        router=router,
        num_queries=len(decisions),
        average_performance=average_performance(decisions, table),
        oracle=oracle(table),
        single_best_model=best_id,
        single_best=best_value,
        random_mean=random_baseline(table, random_seeds),
        random_seeds=list(random_seeds),
        decisions=_decision_rows(decisions, table),
        **integration,
    )


def run_coldstart(pipe: Pipeline, queries: list[str], rewards: RewardTable) -> EvalReport:
    """Training-free protocol: the pipeline's pool + similarity routing, no interactions."""
    ids = pipe.pool_ids()
    pool = pipe.pool(ids)
    vecs = query_vectors(pipe.graph, queries)
    decisions = [sim_route(vecs[qid], pool, qid) for qid in queries]
    return _report("coldstart", pipe, "sim", decisions, rewards.restrict(queries, ids))


def run_integration(
    pipe: Pipeline, router_kind: str, queries: list[str], rewards: RewardTable
) -> EvalReport:
    """Frozen-router protocol: train on the old pool, freeze, integrate, route.

    The old pool is the configured one without the configured new model,
    which joins it through the pipeline's aggregator once the router is
    frozen.
    """
    new_card = pipe.new_card
    if new_card is None:
        raise ConfigError("integration needs a new_model_card in the config")
    old_pool = pipe.pool_ids(without=new_card.id)
    pool = pipe.pool(old_pool)
    router = pipe.router(router_kind, pool)
    checksum_before = router_checksum(router)

    pool = integrate_new_model(pool, pipe.graph, new_card, pipe.spec, pipe.providers,
                               trained=pipe.aggregator)

    tasks = pipe.tasks
    vecs = query_vectors(pipe.graph, queries)
    decisions = [
        router.route(vecs[qid], pool, qid, tasks.get(qid) if tasks else None) for qid in queries
    ]

    checksum_after = router_checksum(router)
    if checksum_after != checksum_before:
        raise ColdRouteError("frozen-router contract violated: checkpoint changed")

    table = rewards.restrict(queries, old_pool + [new_card.id])
    threshold = pipe.cfg.threshold
    return _report(
        "integration",
        pipe,
        router_kind,
        decisions,
        table,
        ncir=ncir(decisions, table, new_card.id, threshold),
        threshold=threshold,
        new_model_id=new_card.id,
        router_checksum=checksum_after,
    )
