#!/usr/bin/env python3
"""Regenerate the shipped fixture under fixtures/.

The fixture is a small, fully deterministic routing world used by the
tests, the demos, and the README walk-through:

* two domains (math, code), three benchmarks (one percent-graded),
* two families and four catalogued models — one of which publishes no
  benchmark scores at all,
* 24 queries with task assignments, a complete reward table, and the
  training interactions implied by it,
* one extra model card (``new_model.json``) that is *not* in the catalog,
  for the integration / registration paths,
* ready-to-run configs for the eval and serve commands.

Hand-maintained invariants (several tests lean on them):

* node ids never appear inside any description or query text, and no id
  is a substring of another id (hop-text reachability checks),
* ``model_01_01`` has no score edges, so it sits 4 hops from
  ``model_00_00`` and its family 3 hops — the 2-hop ball around
  ``model_00_00`` is a proper subset of the graph,
* ``bench_00_b`` is percent-graded: a model-card score of 85.0 must load
  as an edge weight of 0.85,
* rewards are binary and the interactions file agrees with the reward
  table on every (query, model) pair it contains.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXDIR = ROOT / "fixtures"
sys.path.insert(0, str(ROOT / "src"))

from coldroute.records import write  # noqa: E402

DOMAINS = [
    {
        "id": "dom_00",
        "description": (
            "Mathematical problem solving: arithmetic drills, algebra word "
            "problems, and careful equation manipulation."
        ),
    },
    {
        "id": "dom_01",
        "description": (
            "Software engineering assistance: compilers, debugging sessions, "
            "and refactoring of legacy code."
        ),
    },
]

BENCHMARKS = [
    {
        "id": "bench_00_a",
        "domain_id": "dom_00",
        "description": (
            "A benchmark of multi step arithmetic and algebra word problems "
            "graded for exact numeric answers."
        ),
        "score_scale": "unit",
    },
    {
        "id": "bench_00_b",
        "domain_id": "dom_00",
        "description": (
            "A percent graded suite of symbolic equation rewriting and "
            "simplification exercises."
        ),
        "score_scale": "percent",
    },
    {
        "id": "bench_01_a",
        "domain_id": "dom_01",
        "description": (
            "A benchmark of debugging and refactoring tasks drawn from real "
            "compiler error logs."
        ),
        "score_scale": "unit",
    },
]

FAMILIES = [
    {
        "id": "fam_00",
        "description": (
            "A family of assistants tuned for quantitative reasoning and "
            "careful step by step arithmetic."
        ),
    },
    {
        "id": "fam_01",
        "description": (
            "A family of assistants tuned for software maintenance, from "
            "compilers to large scale refactoring."
        ),
    },
]

MODELS = [
    {
        "id": "model_00_00",
        "family_id": "fam_00",
        "description": (
            "The flagship quantitative assistant of its family, strongest on "
            "algebra and equation rewriting."
        ),
        "scores": {"bench_00_a": 0.88, "bench_00_b": 85.0, "bench_01_a": 0.20},
    },
    {
        "id": "model_00_01",
        "family_id": "fam_00",
        "description": (
            "A compact quantitative assistant that trades a little accuracy "
            "for much faster answers."
        ),
        "scores": {"bench_00_a": 0.81, "bench_00_b": 74.0, "bench_01_a": 0.24},
    },
    {
        "id": "model_01_00",
        "family_id": "fam_01",
        "description": (
            "A code oriented assistant that excels at debugging and at "
            "refactoring long source files."
        ),
        "scores": {"bench_00_a": 0.31, "bench_00_b": 28.0, "bench_01_a": 0.90},
    },
    {
        # Deliberately scoreless: only a family edge.  Keeps a 4-hop node in
        # the graph and exercises the sparse-signal path.
        "id": "model_01_01",
        "family_id": "fam_01",
        "description": (
            "A freshly announced coding assistant whose benchmark results "
            "are not yet published."
        ),
        "scores": {},
    },
]

NEW_MODEL = {
    "id": "model_01_02",
    "family_id": "fam_01",
    "description": (
        "A newly released coding assistant focused on compiler diagnostics "
        "and automated refactoring."
    ),
    "scores": {"bench_00_a": 0.27, "bench_00_b": 24.0, "bench_01_a": 0.93},
}

MATH_TEXTS = [
    "Solve for x: 3x + 7 = 22, showing each algebra step.",
    "What is the sum of the first twelve odd numbers?",
    "Rewrite the equation 2(y - 4) = 10 in slope intercept form.",
    "A train travels 180 miles in 3 hours; find its average speed.",
    "Factor the quadratic x squared minus 5x plus 6.",
    "Compute 17 times 24 without a calculator, explaining the arithmetic.",
    "If 4a - 9 = 3a + 5, what is the value of a?",
    "Simplify the fraction 84 over 126 to lowest terms.",
    "Two numbers sum to 30 and differ by 4; set up and solve the equations.",
    "Evaluate the expression 5 + 2 times (8 - 3) squared.",
    "Convert the repeating decimal 0.727272... into a fraction.",
    "Solve the system: x + y = 11 and x - y = 3.",
]

CODE_TEXTS = [
    "Why does this loop segfault after the compiler unrolls it?",
    "Explain how to refactor a five hundred line function into smaller units.",
    "The compiler reports an undefined symbol; walk me through debugging it.",
    "How do I set a conditional breakpoint that fires only on the tenth call?",
    "Suggest a refactoring that removes this duplicated error handling block.",
    "What does a use after free look like in a debugger backtrace?",
    "My build fails with a linker error about duplicate symbols; what next?",
    "Describe a safe plan for renaming a public API across a large codebase.",
    "Why would enabling optimizations change the observed debugging output?",
    "How can I bisect which commit introduced this crash?",
    "Explain the difference between a segmentation fault and a bus error.",
    "Outline the steps to migrate this module off a deprecated compiler flag.",
]


def _queries() -> list[dict]:
    rows = []
    for i, text in enumerate(MATH_TEXTS):
        bench = "bench_00_a" if i % 2 == 0 else "bench_00_b"
        rows.append({"id": f"q_00_{i:04d}", "benchmark_id": bench, "text": text})
    for i, text in enumerate(CODE_TEXTS):
        rows.append({"id": f"q_01_{i:04d}", "benchmark_id": "bench_01_a", "text": text})
    return rows


# Binary rewards: specialists succeed on their own domain with a few
# hand-placed misses; the scoreless rookie model_01_01 only lands two wins.
_MISSES = {
    "model_00_00": {"q_00_0007"},
    "model_00_01": {"q_00_0003", "q_00_0010"},
    "model_01_00": {"q_01_0009"},
    "model_01_02": {"q_01_0004"},
}
_EXTRA_WINS = {
    "model_00_01": {"q_01_0002"},
    "model_01_01": {"q_01_0000", "q_01_0005"},
}
_HOME_DOMAIN = {
    "model_00_00": "00",
    "model_00_01": "00",
    "model_01_00": "01",
    "model_01_01": None,  # no home turf until the results land
    "model_01_02": "01",
}


def _reward(query_id: str, model_id: str) -> float:
    domain = query_id.split("_")[1]
    if query_id in _EXTRA_WINS.get(model_id, ()):
        return 1.0
    if _HOME_DOMAIN[model_id] == domain and query_id not in _MISSES.get(model_id, ()):
        return 1.0
    return 0.0


def main() -> None:
    cards_dir = FIXDIR / "cards"
    cards_dir.mkdir(parents=True, exist_ok=True)

    queries = _queries()
    write(cards_dir / "domains.json", DOMAINS, "pretty")
    write(cards_dir / "benchmarks.json", BENCHMARKS, "pretty")
    write(cards_dir / "families.json", FAMILIES, "pretty")
    write(cards_dir / "models.json", MODELS, "pretty")
    write(cards_dir / "queries.jsonl", queries, "jsonl")
    write(FIXDIR / "new_model.json", NEW_MODEL, "pretty")

    all_models = [m["id"] for m in MODELS] + [NEW_MODEL["id"]]
    rewards = [
        {"query_id": q["id"], "model_id": m, "reward": _reward(q["id"], m)}
        for q in queries
        for m in all_models
    ]
    write(FIXDIR / "rewards.jsonl", rewards, "jsonl")

    tasks = [{"query_id": q["id"], "task_id": f"task_{q['id'].split('_')[1]}"} for q in queries]
    write(FIXDIR / "tasks.jsonl", tasks, "jsonl")

    train_queries = [f"q_00_{i:04d}" for i in range(6)] + [f"q_01_{i:04d}" for i in range(6)]
    interactions = [
        {"query_id": q, "model_id": m["id"], "reward": _reward(q, m["id"])}
        for q in train_queries
        for m in MODELS
    ]
    write(FIXDIR / "interactions.jsonl", interactions, "jsonl")

    eval_queries = [q["id"] for q in queries if q["id"] not in train_queries]

    write(
        FIXDIR / "coldstart.json",
        {
            "cards_dir": "cards",
            "dim": 64,
            "encoder": {"kind": "deterministic", "seed": 0},
            "summarizer": {"kind": "echo"},
            "spec": "emb:2",
            "router": "sim",
            "rewards": "rewards.jsonl",
            "pool": [m["id"] for m in MODELS],
            "eval_queries": [q["id"] for q in queries],
            "seed": 0,
            "out": "report_coldstart",
        },
        "pretty",
    )
    write(
        FIXDIR / "integrate.json",
        {
            "cards_dir": "cards",
            "dim": 64,
            "encoder": {"kind": "deterministic", "seed": 0},
            "summarizer": {"kind": "echo"},
            "spec": "emb:2",
            "router": "graphrouter",
            "interactions": "interactions.jsonl",
            "tasks": "tasks.jsonl",
            "rewards": "rewards.jsonl",
            "new_model_card": "new_model.json",
            "eval_queries": eval_queries,
            "seed": 0,
            "threshold": 1.0,
            "hidden": 64,
            "out": "report_integrate",
        },
        "pretty",
    )
    write(
        FIXDIR / "serve.json",
        {
            "cards_dir": "cards",
            "dim": 64,
            "encoder": {"kind": "deterministic", "seed": 0},
            "summarizer": {"kind": "echo"},
            "spec": "emb:2",
            "router": "mlp",
            "interactions": "interactions.jsonl",
            "tasks": "tasks.jsonl",
            "seed": 0,
            "hidden": 64,
            "service": {"host": "127.0.0.1", "port": 8777},
        },
        "pretty",
    )
    print(f"fixture written under {FIXDIR}")


if __name__ == "__main__":
    main()
