"""Output checks that hold for any correct program, not a snapshot of today's.

Each check recomputes what it needs from the benchmark's own data (the
reward table, the stub's embeddings, the state file) with code written
here, never with the program's functions, and raises ``CheckFailed`` with
the reason when an output disagrees.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from stub import stub_embedding

RANDOM_SEEDS = (0, 1, 2, 3, 4, 5)
TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def expected_choice(scores: dict[str, float]) -> str:
    """Arg-max of the scores, ties to the smallest id."""
    best = max(scores.values())
    return min(m for m, s in scores.items() if s == best)


# --- serve_graph -------------------------------------------------------------

def check_graph_route(reply: dict, pool_ids: list[str]) -> None:
    """A graph-router reply: pool ids scored, floor at 0.5, chosen is the arg-max."""
    scores = reply["scores"]
    _require(sorted(scores) == sorted(pool_ids), "scored ids differ from the /pool ids")
    low = min(scores.values())
    high = max(scores.values())
    _require(0.5 <= low and high <= 1.0, f"a score lies outside [0.5, 1]: {low}..{high}")
    _require(reply["model_id"] == expected_choice(scores),
             f"chosen {reply['model_id']} is not the arg-max {expected_choice(scores)}")


def check_repeat(first: dict, again: dict, query_id: str) -> None:
    _require(first == again, f"repeated query {query_id} got different scores")


def check_checksum(first: str, now: str) -> None:
    _require(first == now, "the router checksum changed while serving")


def check_same_pool(first: list[str], now: list[str]) -> None:
    _require(first == now, "the /pool ids changed while serving")


def check_beats_random(chosen: list[tuple[str, str]], rewards: dict, pool: list[str]) -> tuple:
    """Mean reward of (query, chosen) pairs against uniform choice over the pool."""
    routed = sum(rewards[(q, m)] for q, m in chosen) / len(chosen)
    uniform = sum(sum(rewards[(q, m)] for m in pool) / len(pool) for q, _ in chosen) / len(chosen)
    _require(routed > uniform, f"chosen models average {routed:.3f}, uniform {uniform:.3f}")
    return routed, uniform


# --- admit_text --------------------------------------------------------------

def check_pool_growth(before: list[str], after: list[str], new_id: str) -> None:
    _require(after == before + [new_id], f"pool after registering {new_id} is not pool + id")


def check_hop1_prompt(card: dict, neighbors: list[str] | None) -> None:
    """The round-1 prompt for a new model lists exactly its family and benchmarks."""
    expected = sorted([card["family_id"], *card["scores"]])
    _require(neighbors is not None and sorted(neighbors) == expected,
             f"hop-1 prompt of {card['id']} lists {neighbors}, expected {expected}")


def unit(vec: np.ndarray) -> np.ndarray:
    norm = float(np.sqrt(np.sum(vec * vec)))
    return vec / norm if norm > 0 else np.zeros_like(vec)


def read_state_profiles(state_path: Path) -> dict[str, dict]:
    state = json.loads(Path(state_path).read_text())
    return {entry["model_id"]: entry for entry in state["pool"]["models"]}


def check_new_profile(entry: dict, summary: str | None, dim: int, seed: int) -> None:
    """The stored profile is the stub's normalized embedding of its last summary."""
    _require(summary is not None, f"the stub never summarized {entry['model_id']}")
    _require(entry.get("text") == summary, f"profile text of {entry['model_id']} is not the summary")
    want = unit(stub_embedding(summary, dim, seed))
    got = np.asarray(entry["vector"], dtype=np.float64)
    _require(got.shape == want.shape and float(np.max(np.abs(got - want))) <= TOL,
             f"profile of {entry['model_id']} is not the embedding of its summary")


def check_sim_route(reply: dict, profiles: dict[str, dict], query_text: str,
                    dim: int, seed: int) -> None:
    """Scores are the cosines of the query embedding with every stored profile."""
    scores = reply["scores"]
    _require(sorted(scores) == sorted(profiles), "scored ids differ from the state-file pool")
    query = unit(stub_embedding(query_text, dim, seed))
    for model_id, entry in profiles.items():
        vec = np.asarray(entry["vector"], dtype=np.float64)
        denom = math.sqrt(float(query @ query)) * math.sqrt(float(vec @ vec))
        want = float(query @ vec) / denom if denom > 0 else 0.0
        _require(abs(scores[model_id] - want) <= TOL,
                 f"score of {model_id} is {scores[model_id]}, cosine is {want}")
    _require(reply["model_id"] == expected_choice(scores), "chosen is not the arg-max")


# --- eval --------------------------------------------------------------------

def read_decisions(csv_path: Path) -> list[tuple[str, str, float]]:
    with Path(csv_path).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [(r["query_id"], r["chosen_model_id"], float(r["reward"])) for r in rows]


def random_mean(rewards: dict, queries: list[str], pool: list[str], seeds=RANDOM_SEEDS) -> float:
    """Uniform choice over the sorted pool, one draw per sorted query, averaged over seeds."""
    models = sorted(pool)
    per_seed = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        picks = [models[int(rng.integers(len(models)))] for _ in sorted(queries)]
        per_seed.append(sum(rewards[(q, m)] for q, m in zip(sorted(queries), picks)) / len(queries))
    return sum(per_seed) / len(per_seed)


def check_report(report: dict, decisions: list[tuple[str, str, float]], rewards: dict,
                 queries: list[str], pool: list[str], new_model_id: str | None = None,
                 threshold: float = 1.0) -> dict:
    """Recompute the report's figures from its CSV and the reward table."""
    _require(sorted(q for q, _, _ in decisions) == sorted(queries),
             "report CSV does not cover exactly the eval queries")
    for q, m, r in decisions:
        _require(m in pool, f"query {q} routed to {m}, outside the pool")
        _require(r == rewards[(q, m)], f"CSV reward of ({q}, {m}) is not the table's")
    n = len(decisions)
    expected = {
        "average_performance": sum(rewards[(q, m)] for q, m, _ in decisions) / n,
        "oracle": sum(max(rewards[(q, m)] for m in pool) for q in queries) / len(queries),
        "random_mean": random_mean(rewards, queries, pool),
    }
    got = {
        "average_performance": report["average_performance"],
        "oracle": report["baselines"]["oracle"],
        "random_mean": report["baselines"]["random_mean"],
    }
    if new_model_id is not None:
        hits = sum(1 for q, m, _ in decisions
                   if m == new_model_id and rewards[(q, m)] >= threshold)
        expected["ncir"] = hits / n
        got["ncir"] = report.get("ncir")
    for key, want in expected.items():
        _require(got[key] is not None and abs(got[key] - want) <= TOL,
                 f"report {key} is {got[key]}, recomputed {want}")
    return expected


def check_eval_beats_random(figures: dict, label: str) -> None:
    _require(figures["average_performance"] > figures["random_mean"],
             f"{label}: average performance {figures['average_performance']:.3f} "
             f"does not beat random {figures['random_mean']:.3f}")
