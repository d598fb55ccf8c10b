"""Build the evidence graph from public model-card signals.

The graph has five node kinds — models, model families, benchmarks,
benchmark domains, and sampled queries — linked by family membership,
benchmark scores (normalized to [0, 1]), benchmark-domain ties, and
query provenance.  Everything downstream (profiles, routing, evaluation)
reads from this one structure.

Run from the repository root:  python3 demos/01_build_evidence_graph.py
"""

import json
from pathlib import Path
from tempfile import TemporaryDirectory

from coldroute.graph import (
    NodeKind,
    build_graph,
    load_cards,
    propagation_coefficient,
)
from coldroute.providers import DeterministicEmbedder, encode_all

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def section(title: str) -> None:
    print(f"\n=== {title} ===")


def main() -> None:
    section("Loading the card corpus")
    cards = load_cards(FIXTURES / "cards")
    print(f"families:   {len(cards.families)}")
    print(f"models:     {len(cards.models)}")
    print(f"benchmarks: {len(cards.benchmarks)}")
    print(f"domains:    {len(cards.domains)}")
    print(f"queries:    {len(cards.queries)}")

    section("Building the graph")
    graph = build_graph(
        cards.families, cards.models, cards.benchmarks, cards.domains, cards.queries, dim=64
    )
    print(f"{len(graph)} nodes, {len(graph.edges)} edges, feature dim {graph.dim}")
    for kind in NodeKind:
        ids = [n.id for n in graph.nodes_of_kind(kind)]
        preview = ", ".join(ids[:4]) + (", ..." if len(ids) > 4 else "")
        print(f"  {kind.value:>13}: {len(ids):2d}  ({preview})")

    section("Score normalization")
    # bench_00_b is reported on a 0-100 scale; the graph stores rewards in [0, 1]
    edge = graph.edge_between("model_00_00", "bench_00_b")
    print(f"model_00_00 scored 85.0 on bench_00_b (percent scale)")
    print(f"stored edge weight: {edge.weight}  (scale recorded: {graph.score_scales['bench_00_b']})")

    section("A model's evidence neighborhood")
    for nid in graph.neighbors("model_00_00"):
        e = graph.edge_between("model_00_00", nid)
        weight = "" if e.weight is None else f"  weight {e.weight:.3f}"
        print(f"  model_00_00 -- {e.kind.value} -- {nid}{weight}")
    print("model_01_01 published no scores; its only evidence is the family tie:")
    print(f"  neighbors: {graph.neighbors('model_01_01')}")

    section("Propagation coefficients")
    # coefficient(v, u) = w_uv / sqrt(|N(v) u {v}| * |N(u) u {u}|)
    for v, u in [("model_00_00", "bench_00_a"), ("model_01_01", "fam_01")]:
        print(f"  c({v}, {u}) = {propagation_coefficient(graph, v, u):.4f}")
        print(f"  self term c({v}, {v}) = {propagation_coefficient(graph, v, v):.4f}")

    section("Embedding node features")
    encode_all(graph, DeterministicEmbedder(dim=64, seed=0))
    vec = graph.embedding("model_00_00")
    print(f"every node now carries a unit-norm 64-d feature vector")
    print(f"model_00_00 embedding head: {[round(float(x), 4) for x in vec[:4]]}")

    section("Snapshot")
    with TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        graph.save(path)
        doc = json.loads(path.read_text())
        print(f"saved {path.stat().st_size} bytes: {len(doc['nodes'])} nodes, "
              f"{len(doc['edges'])} edges — same as the graph: {doc == graph.to_snapshot()}")


if __name__ == "__main__":
    main()
