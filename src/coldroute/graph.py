"""Heterogeneous evidence graph built from public model-card signals.

Five node kinds (model, model family, benchmark, domain, query) and four
edge kinds connect the signals found in technical reports and model cards:
a model links to its family, to every benchmark it reports a score on
(edge weight = the score normalized into [0, 1]), benchmarks link to their
domain, and sampled queries link to the benchmark they came from.

The graph is undirected for propagation.  The symmetric normalization
coefficient between adjacent nodes u and v is

    coeff(u, v) = w_uv / sqrt(|N(v) ∪ {v}| · |N(u) ∪ {u}|)

with w_uv the score on scored edges and 1 on everything else, including
the implicit self loop.  Missing scores create no edge; no imputation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import records
from .errors import (
    DanglingReference,
    DuplicateId,
    InvalidGraph,
    NotAdjacent,
    ScoreOutOfRange,
    UnknownNode,
)

__all__ = [
    "NodeKind",
    "EdgeKind",
    "Node",
    "Edge",
    "EvidenceGraph",
    "FamilyCard",
    "ModelCard",
    "BenchmarkCard",
    "DomainCard",
    "QueryRecord",
    "CardSet",
    "build_graph",
    "closed_neighborhood",
    "propagation_coefficient",
    "Propagation",
    "add_model_node",
    "remove_node",
    "load_cards",
    "parse_card",
    "read_card",
    "normalize_score",
]


class NodeKind(str, Enum):
    MODEL = "model"
    MODEL_FAMILY = "model_family"
    BENCHMARK = "benchmark"
    DOMAIN = "domain"
    QUERY = "query"


class EdgeKind(str, Enum):
    MODEL_FAMILY = "model_family_link"
    MODEL_BENCHMARK = "model_benchmark_score"
    BENCHMARK_DOMAIN = "benchmark_domain_link"
    QUERY_BENCHMARK = "query_benchmark_link"


# Allowed endpoint kinds per edge kind, in stored (src, dst) order.
_EDGE_ENDPOINTS: dict[EdgeKind, tuple[NodeKind, NodeKind]] = {
    EdgeKind.MODEL_FAMILY: (NodeKind.MODEL, NodeKind.MODEL_FAMILY),
    EdgeKind.MODEL_BENCHMARK: (NodeKind.MODEL, NodeKind.BENCHMARK),
    EdgeKind.BENCHMARK_DOMAIN: (NodeKind.BENCHMARK, NodeKind.DOMAIN),
    EdgeKind.QUERY_BENCHMARK: (NodeKind.QUERY, NodeKind.BENCHMARK),
}


@dataclass
class Node:
    id: str
    kind: NodeKind
    text: str = ""
    embedding: np.ndarray | None = None


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    kind: EdgeKind
    weight: float | None = None


# --- card schemas ----------------------------------------------------------

@dataclass(frozen=True)
class FamilyCard:
    id: str
    description: str


@dataclass(frozen=True)
class ModelCard:
    id: str
    family_id: str
    description: str
    scores: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class BenchmarkCard:
    id: str
    domain_id: str
    description: str
    score_scale: str = "unit"  # "unit" for [0,1], "percent" for [0,100]


@dataclass(frozen=True)
class DomainCard:
    id: str
    description: str


@dataclass(frozen=True)
class QueryRecord:
    id: str
    benchmark_id: str
    text: str


@dataclass
class CardSet:
    """One consistent bundle of card collections."""

    families: list[FamilyCard] = field(default_factory=list)
    models: list[ModelCard] = field(default_factory=list)
    benchmarks: list[BenchmarkCard] = field(default_factory=list)
    domains: list[DomainCard] = field(default_factory=list)
    queries: list[QueryRecord] = field(default_factory=list)


def normalize_score(value: float, scale: str, model_id: str, benchmark_id: str) -> float:
    """Map a reported score onto [0, 1] according to the benchmark's scale."""
    if scale == "percent":
        if not (0.0 <= value <= 100.0):
            raise ScoreOutOfRange(model_id, benchmark_id, value)
        return value / 100.0
    if scale == "unit":
        if not (0.0 <= value <= 1.0):
            raise ScoreOutOfRange(model_id, benchmark_id, value)
        return float(value)
    raise InvalidGraph(f"benchmark {benchmark_id!r} has unknown score scale {scale!r}")


class EvidenceGraph:
    """Typed heterogeneous graph with deterministic ordering.

    Nodes are stored by id; edges keep the canonical builder direction
    (model->family, model->benchmark, benchmark->domain, query->benchmark)
    and are undirected for adjacency.  The graph is immutable after
    construction except through :func:`add_model_node` / :func:`remove_node`.
    """

    def __init__(
        self,
        nodes: list[Node],
        edges: list[Edge],
        dim: int,
        score_scales: dict[str, str] | None = None,
    ):
        if dim <= 0:
            raise InvalidGraph(f"embedding dimension must be positive, got {dim}")
        self.dim = int(dim)
        # benchmark id -> "unit" | "percent"; how raw scores map onto [0,1]
        self.score_scales: dict[str, str] = dict(score_scales or {})
        self._nodes: dict[str, Node] = {}
        for node in sorted(nodes, key=lambda n: n.id):
            if node.id in self._nodes:
                raise DuplicateId(node.id)
            self._nodes[node.id] = node
        self._edges: list[Edge] = []
        self._adj: dict[str, dict[str, Edge]] = {nid: {} for nid in self._nodes}
        for edge in sorted(edges, key=lambda e: (e.kind.value, e.src, e.dst)):
            self._insert_edge(edge)
        self.validate()

    # -- construction internals --

    def _insert_edge(self, edge: Edge) -> None:
        for endpoint in (edge.src, edge.dst):
            if endpoint not in self._nodes:
                raise DanglingReference(endpoint, "edge endpoint")
        if edge.src == edge.dst:
            raise InvalidGraph(f"self edge on {edge.src!r}; self loops are implicit")
        want = _EDGE_ENDPOINTS[edge.kind]
        got = (self._nodes[edge.src].kind, self._nodes[edge.dst].kind)
        if got != want:
            raise InvalidGraph(
                f"edge kind {edge.kind.value} cannot connect {got[0].value} to {got[1].value}"
            )
        if edge.dst in self._adj[edge.src]:
            raise InvalidGraph(f"multi-edge between {edge.src!r} and {edge.dst!r}")
        if edge.kind is EdgeKind.MODEL_BENCHMARK:
            if edge.weight is None or not (0.0 <= edge.weight <= 1.0):
                raise ScoreOutOfRange(edge.src, edge.dst, float("nan") if edge.weight is None else edge.weight)
        elif edge.weight is not None:
            raise InvalidGraph(f"edge kind {edge.kind.value} carries no weight")
        self._edges.append(edge)
        self._adj[edge.src][edge.dst] = edge
        self._adj[edge.dst][edge.src] = edge

    def validate(self) -> None:
        """Re-check every structural invariant; raises on the first violation."""
        for node in self._nodes.values():
            if node.embedding is not None:
                emb = np.asarray(node.embedding)
                if emb.shape != (self.dim,):
                    raise InvalidGraph(
                        f"embedding of {node.id!r} has shape {emb.shape}, expected ({self.dim},)"
                    )
                if not np.all(np.isfinite(emb)):
                    raise InvalidGraph(f"embedding of {node.id!r} has non-finite entries")

    # -- read access --

    @property
    def node_ids(self) -> list[str]:
        return sorted(self._nodes)

    @property
    def edges(self) -> list[Edge]:
        return sorted(self._edges, key=lambda e: (e.kind.value, e.src, e.dst))

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNode(node_id) from None

    def nodes_of_kind(self, kind: NodeKind) -> list[Node]:
        return [self._nodes[nid] for nid in self.node_ids if self._nodes[nid].kind is kind]

    def neighbors(self, node_id: str) -> list[str]:
        if node_id not in self._nodes:
            raise UnknownNode(node_id)
        return sorted(self._adj[node_id])

    def edge_between(self, u: str, v: str) -> Edge | None:
        if u not in self._nodes:
            raise UnknownNode(u)
        return self._adj[u].get(v)

    # -- serialization --

    def to_snapshot(self) -> dict:
        nodes = []
        for nid in self.node_ids:
            node = self._nodes[nid]
            entry: dict = {"id": node.id, "kind": node.kind.value, "text": node.text}
            if node.embedding is not None:
                entry["embedding"] = [float(x) for x in node.embedding]
            nodes.append(entry)
        edges = []
        for edge in self.edges:
            entry = {"src": edge.src, "dst": edge.dst, "kind": edge.kind.value}
            if edge.weight is not None:
                entry["weight"] = float(edge.weight)
            edges.append(entry)
        return {
            "nodes": nodes,
            "edges": edges,
            "dim": self.dim,
            "score_scales": dict(sorted(self.score_scales.items())),
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "EvidenceGraph":
        kinds = {"nodes": list, "edges": list, "dim": int, "score_scales": dict[str, str] | None}
        snapshot = records.check(snapshot, kinds)
        nodes = []
        for entry in snapshot["nodes"]:
            e = records.check(entry, {"id": str, "kind": str, "embedding": list[float] | None})
            emb = None if e.get("embedding") is None else np.asarray(e["embedding"])
            nodes.append(Node(e["id"], NodeKind(e["kind"]), e.get("text", ""), emb))
        edges = []
        for entry in snapshot["edges"]:
            e = records.check(entry, {"src": str, "dst": str, "kind": str, "weight": float | None})
            edges.append(Edge(e["src"], e["dst"], EdgeKind(e["kind"]), e.get("weight")))
        return cls(nodes, edges, snapshot["dim"], snapshot.get("score_scales"))

    def save(self, path: str | Path) -> None:
        records.write(path, self.to_snapshot())

    @classmethod
    def load(cls, path: str | Path) -> "EvidenceGraph":
        return records.read(path, "doc", None, cls.from_snapshot)


# --- operations ------------------------------------------------------------

def build_graph(
    families: list[FamilyCard],
    models: list[ModelCard],
    benchmarks: list[BenchmarkCard],
    domains: list[DomainCard],
    queries: list[QueryRecord],
    dim: int,
) -> EvidenceGraph:
    """Assemble the evidence graph from consistent card collections.

    Embeddings start unset; run ``providers.encode_all`` afterwards.
    """
    nodes: list[Node] = []
    seen: set[str] = set()

    def push(node: Node) -> None:
        if node.id in seen:
            raise DuplicateId(node.id)
        seen.add(node.id)
        nodes.append(node)

    for fam in families:
        push(Node(fam.id, NodeKind.MODEL_FAMILY, fam.description))
    for dom in domains:
        push(Node(dom.id, NodeKind.DOMAIN, dom.description))
    bench_by_id = {b.id: b for b in benchmarks}
    if len(bench_by_id) != len(benchmarks):
        raise DuplicateId("benchmark collection contains repeated ids")
    for bench in benchmarks:
        push(Node(bench.id, NodeKind.BENCHMARK, bench.description))
    for model in models:
        push(Node(model.id, NodeKind.MODEL, model.description))
    for query in queries:
        push(Node(query.id, NodeKind.QUERY, query.text))

    edges: list[Edge] = []
    fam_ids = {f.id for f in families}
    dom_ids = {d.id for d in domains}
    for bench in benchmarks:
        if bench.domain_id not in dom_ids:
            raise DanglingReference(bench.domain_id, f"domain of benchmark {bench.id!r}")
        edges.append(Edge(bench.id, bench.domain_id, EdgeKind.BENCHMARK_DOMAIN))
    for model in models:
        if model.family_id not in fam_ids:
            raise DanglingReference(model.family_id, f"family of model {model.id!r}")
        edges.append(Edge(model.id, model.family_id, EdgeKind.MODEL_FAMILY))
        for bench_id in sorted(model.scores):
            if bench_id not in bench_by_id:
                raise DanglingReference(bench_id, f"benchmark scored by model {model.id!r}")
            weight = normalize_score(
                model.scores[bench_id], bench_by_id[bench_id].score_scale, model.id, bench_id
            )
            edges.append(Edge(model.id, bench_id, EdgeKind.MODEL_BENCHMARK, weight))
    for query in queries:
        if query.benchmark_id not in bench_by_id:
            raise DanglingReference(query.benchmark_id, f"benchmark of query {query.id!r}")
        edges.append(Edge(query.id, query.benchmark_id, EdgeKind.QUERY_BENCHMARK))

    scales = {b.id: b.score_scale for b in benchmarks}
    return EvidenceGraph(nodes, edges, dim, scales)


def closed_neighborhood(graph: EvidenceGraph, v: str) -> list[str]:
    """All nodes sharing an edge with v, plus v itself, sorted."""
    neighbors = graph.neighbors(v)
    return sorted(set(neighbors) | {v})


def propagation_coefficient(graph: EvidenceGraph, u: str, v: str) -> float:
    """Symmetric normalization coefficient between adjacent nodes (or u = v)."""
    if u == v:
        graph.node(v)
        weight = 1.0
    else:
        edge = graph.edge_between(u, v)
        graph.node(v)
        if edge is None:
            raise NotAdjacent(u, v)
        weight = 1.0 if edge.weight is None else float(edge.weight)
    size_u = len(closed_neighborhood(graph, u))
    size_v = len(closed_neighborhood(graph, v))
    return weight / math.sqrt(size_u * size_v)


@dataclass(frozen=True)
class Propagation:
    """The normalized propagation operator ``S`` of a list of weighted pairs over n nodes.

    ``S[v, v] = 1 / size(v)``, and a pair (u, v) of weight w adds the
    coefficient of the module docstring to ``S[u, v]`` and to ``S[v, u]``.
    ``size(v)`` is 1 plus the number of pairs touching v, so a repeated pair
    counts once per occurrence.  ``s @ h`` runs on the edge arrays;
    ``dense()`` is the n×n ``S``.
    """

    sizes: np.ndarray  # (n,) closed-neighbourhood sizes
    self_coeff: np.ndarray  # (n,) the diagonal of S
    # both directions of every pair, each once: S[rows, cols] += coeff
    rows: np.ndarray
    cols: np.ndarray
    coeff: np.ndarray

    @classmethod
    def of(cls, n: int, pairs: np.ndarray, weights: np.ndarray) -> "Propagation":
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        sizes = 1.0 + np.bincount(pairs.ravel(), minlength=n)
        inv_sqrt = 1.0 / np.sqrt(sizes)
        coeff = np.asarray(weights, dtype=np.float64) * inv_sqrt[pairs[:, 0]] * inv_sqrt[pairs[:, 1]]
        rows, cols = np.concatenate([pairs, pairs[:, ::-1]]).T
        return cls(sizes, inv_sqrt * inv_sqrt, rows, cols, np.concatenate([coeff, coeff]))

    def __matmul__(self, h: np.ndarray) -> np.ndarray:
        out = self.self_coeff[:, None] * h
        for k, column in enumerate(h.T):  # a column at a time: no (edges, d) temporary
            out[:, k] += np.bincount(self.rows, self.coeff * column[self.cols], minlength=len(out))
        return out

    def dense(self) -> np.ndarray:
        s = np.diag(self.self_coeff)
        np.add.at(s, (self.rows, self.cols), self.coeff)
        return s


def add_model_node(graph: EvidenceGraph, card: ModelCard) -> str:
    """Insert a new model node plus its family and score edges.

    Existing nodes and embeddings are untouched; the new node's embedding
    stays unset until encoded.
    """
    if card.id in graph:
        raise DuplicateId(card.id)
    if card.family_id not in graph or graph.node(card.family_id).kind is not NodeKind.MODEL_FAMILY:
        raise DanglingReference(card.family_id, f"family of model {card.id!r}")
    for bench_id in card.scores:
        if bench_id not in graph or graph.node(bench_id).kind is not NodeKind.BENCHMARK:
            raise DanglingReference(bench_id, f"benchmark scored by model {card.id!r}")
    weights = {}
    for bench_id in sorted(card.scores):
        scale = graph.score_scales.get(bench_id, "unit")
        weights[bench_id] = normalize_score(card.scores[bench_id], scale, card.id, bench_id)

    node = Node(card.id, NodeKind.MODEL, card.description)
    graph._nodes[card.id] = node
    graph._adj[card.id] = {}
    try:
        graph._insert_edge(Edge(card.id, card.family_id, EdgeKind.MODEL_FAMILY))
        for bench_id in sorted(weights):
            graph._insert_edge(
                Edge(card.id, bench_id, EdgeKind.MODEL_BENCHMARK, weights[bench_id])
            )
    except Exception:
        remove_node(graph, card.id)
        raise
    return card.id


def remove_node(graph: EvidenceGraph, node_id: str) -> None:
    """Remove a node and its incident edges (plumbing for rollback/tests)."""
    if node_id not in graph:
        raise UnknownNode(node_id)
    incident = set(graph._adj[node_id])
    graph._edges = [e for e in graph._edges if node_id not in (e.src, e.dst)]
    for other in incident:
        graph._adj[other].pop(node_id, None)
    del graph._adj[node_id]
    del graph._nodes[node_id]


# --- card file IO ----------------------------------------------------------

def parse_card(entry: dict) -> ModelCard:
    """A model card from a JSON object; malformed fields raise ``ConfigError``."""
    return records.check(entry, ModelCard)


def read_card(path: str | Path) -> ModelCard:
    """The model card in a JSON file; an unreadable file raises ``ConfigError``."""
    return records.read(path, "doc", ModelCard)


_CARD_FILES = {
    "families": ("families.json", FamilyCard),
    "models": ("models.json", ModelCard),
    "benchmarks": ("benchmarks.json", BenchmarkCard),
    "domains": ("domains.json", DomainCard),
    "queries": ("queries.jsonl", QueryRecord),
}


def load_cards(directory: str | Path) -> CardSet:
    """Read the card bundle from a directory of JSON / JSONL files; a missing file is empty."""
    cards = CardSet()
    for name, (file, cls) in _CARD_FILES.items():
        path = Path(directory) / file
        if path.exists():
            form = "jsonl" if path.suffix == ".jsonl" else "array"
            setattr(cards, name, records.read(path, form, cls))
    return cards


def save_cards(cards: CardSet, directory: str | Path) -> None:
    Path(directory).mkdir(parents=True, exist_ok=True)
    for name, (file, _) in _CARD_FILES.items():
        form = "jsonl" if file.endswith(".jsonl") else "pretty"
        records.write(Path(directory) / file, [vars(c) for c in getattr(cards, name)], form)
