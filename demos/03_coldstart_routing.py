"""Training-free cold-start routing: profiles + cosine similarity only.

No query-response-reward interactions exist yet, so the router can rely
on nothing but the public-signal profiles.  On a planted two-specialty
world, structured (propagated) profiles route far above the random
baseline while flat text profiles hover at chance — the gap is the whole
point of building the evidence graph.

Run from the repository root:  python3 demos/03_coldstart_routing.py
"""

import tempfile
from pathlib import Path

from coldroute.config import AppConfig, Pipeline
from coldroute.evaluation import SynthWorldConfig, run_coldstart, synth_world
from coldroute.graph import save_cards
from coldroute.routers import sim_route


def section(title: str) -> None:
    print(f"\n=== {title} ===")


def main(workdir: Path) -> None:
    section("A planted two-specialty world")
    world = synth_world(SynthWorldConfig(seed=0))  # 2 domains x 3 models, noise 0.1
    print(f"models: {sorted(world.specialty)}")
    print(f"queries: {len(world.domain_of_query)} total, "
          f"{len(world.eval_queries)} held out for evaluation")
    print("Rewards are 1 when a query lands on a model of its own specialty "
          "(with 10% label noise). Model cards never mention the domain "
          "vocabulary — the only bridge is the benchmark/domain structure.")

    save_cards(world.cards, workdir / "cards")
    pool_ids = sorted(world.specialty)

    def pipeline(spec: str) -> Pipeline:
        """The pipeline of a config over the written cards, with this profile spec."""
        return Pipeline(AppConfig(workdir, workdir / "cards", spec=spec, pool=pool_ids))

    section("Routing a single query by hand")
    pipe = pipeline("emb:2")
    graph, pool = pipe.graph, pipe.pool(pool_ids)
    qid = world.eval_queries[0]
    decision = sim_route(graph.embedding(qid), pool, query_id=qid)
    print(f"query {qid} ({graph.node(qid).text[:40]}...)")
    for mid in pool_ids:
        marker = " <- chosen" if mid == decision.chosen else ""
        print(f"  cos({qid}, {mid}) = {decision.scores[mid]:+.4f}{marker}")

    section("Full protocol: flat vs structured profiles")
    results = {}
    for short in ("flat", "text:1", "emb:1", "emb:2"):
        report = run_coldstart(pipeline(short), world.eval_queries, world.rewards)
        results[short] = report
        print(f"  {short:6s} average_performance = {report.average_performance:.3f}")

    report = results["emb:2"]
    print(f"\nbaselines on the same table:")
    print(f"  oracle       {report.oracle:.3f}   (per-query best model)")
    print(f"  single best  {report.single_best:.3f}   ({report.single_best_model} everywhere)")
    print(f"  random mean  {report.random_mean:.3f}   (seeds {report.random_seeds})")

    margin = results["emb:2"].average_performance - report.random_mean
    drift = abs(results["flat"].average_performance - report.random_mean)
    print(f"\nemb:2 beats random by {margin:+.3f}; flat sits {drift:.3f} from random.")
    print("Flat profiles cannot see past the deliberately bland card text; "
          "two propagation hops pull benchmark and domain evidence into the vector.")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:  # the config's cards are written here
        main(Path(tmp))
