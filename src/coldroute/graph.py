"""Heterogeneous evidence graph built from public model-card signals.

Five node kinds (model, model family, benchmark, domain, query) and four
edge kinds connect the signals found in technical reports and model cards:
a model links to its family, to every benchmark it reports a score on
(edge weight = the score normalized into [0, 1]), benchmarks link to their
domain, and sampled queries link to the benchmark they came from.

The graph is undirected for propagation.  The symmetric normalization
coefficient between adjacent nodes u and v (``Propagation``) is

    coeff(u, v) = w_uv / sqrt(|N(v) ∪ {v}| · |N(u) ∪ {u}|)

with w_uv the score on scored edges and 1 on everything else, including
the implicit self loop.  Missing scores create no edge; no imputation.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import records
from .errors import (
    ConfigError,
    DanglingReference,
    DuplicateId,
    InvalidGraph,
    ScoreOutOfRange,
    UninitializedEmbedding,
    UnknownNode,
)


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
# The edge kind of each (src, dst) pair of node kinds: the graph stores no edge kind.
_EDGE_KIND = {ends: kind for kind, ends in _EDGE_ENDPOINTS.items()}


@dataclass
class Node:
    id: str
    kind: NodeKind
    text: str = ""


@dataclass
class Edge:  # built on each read from the graph's arrays; the graph stores none
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

    def __post_init__(self) -> None:
        if self.score_scale not in ("unit", "percent"):
            raise ConfigError(f"score_scale must be 'unit' or 'percent': {self.score_scale!r}")


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
    """Typed heterogeneous graph over indexed nodes.

    A node's row is its place in id order at construction, or the next row
    when added later; ``index`` maps id -> row, and ``ids``, ``kinds`` and
    ``texts`` map row -> id, kind and text.  The graph owns ``features``
    (n × dim, NaN until encoded) and, per edge in insertion order, ``pairs``
    (endpoint rows in the canonical builder direction: model->family,
    model->benchmark, benchmark->domain, query->benchmark), ``weights`` (the
    score, else 1) and ``scored``.  These arrays are the only adjacency: an
    edge's kind follows from its endpoints' kinds, and ``incident`` /
    ``neighbors`` scan ``pairs``.  Adjacency is undirected.  A graph is a
    value: :func:`add_model_node` returns a grown copy, and only
    ``providers.encode_all`` writes to a graph, setting its unset rows.
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
        self.ids: list[str] = []
        self.kinds: list[NodeKind] = []
        self.texts: list[str] = []
        self.index: dict[str, int] = {}
        self.features = np.empty((0, self.dim))
        self.pairs = np.empty((0, 2), dtype=np.intp)
        self.weights = np.empty(0)
        self.scored = np.empty(0, dtype=bool)
        self._add(
            sorted(nodes, key=lambda n: n.id),
            sorted(edges, key=lambda e: (e.kind.value, e.src, e.dst)),
        )

    def _add(self, nodes: list[Node], edges: list[Edge]) -> None:
        """Append ``nodes`` as the next rows and ``edges`` after the existing ones.

        Every edge's ``src`` is one of ``nodes``.  Node ids must be new, each
        endpoint a node of the kind its edge kind names, no two edges may
        join one pair, and only a score edge carries a weight, in [0, 1].  A
        rejected call writes nothing.  Each list, dict and array is rebound,
        never extended in place, so a shallow copy taken before the call
        keeps the graph as it was.
        """
        new: dict[str, Node] = {}
        for node in nodes:
            if node.id in self.index or node.id in new:
                raise DuplicateId(node.id)
            new[node.id] = node
        rows = {nid: len(self.ids) + i for i, nid in enumerate(new)}
        kinds = self.kinds + [node.kind for node in new.values()]
        seen: set[tuple[str, str]] = set()
        pairs, weights, scored = [], [], []
        for edge in edges:
            pair = [rows[e] if e in rows else self.index.get(e) for e in (edge.src, edge.dst)]
            for endpoint, row, kind in zip((edge.src, edge.dst), pair, _EDGE_ENDPOINTS[edge.kind]):
                if row is None or kinds[row] is not kind:
                    raise DanglingReference(endpoint, f"{kind.value} of {edge.src!r}")
            # Endpoint kinds fix each edge's direction, so (src, dst) names its pair; and
            # both callers pass only edges whose src is a node of this call, so no earlier
            # edge joins the pair: ``seen`` catches every multi-edge.
            if (edge.src, edge.dst) in seen:
                raise InvalidGraph(f"multi-edge between {edge.src!r} and {edge.dst!r}")
            seen.add((edge.src, edge.dst))
            if edge.kind is EdgeKind.MODEL_BENCHMARK:
                if edge.weight is None or not (0.0 <= edge.weight <= 1.0):
                    raise ScoreOutOfRange(edge.src, edge.dst, float("nan") if edge.weight is None else edge.weight)
            elif edge.weight is not None:
                raise InvalidGraph(f"edge kind {edge.kind.value} carries no weight")
            pairs.append(pair)
            weights.append(1.0 if edge.weight is None else edge.weight)
            scored.append(edge.weight is not None)

        self.index = {**self.index, **rows}
        self.ids = self.ids + list(new)
        self.kinds = kinds
        self.texts = self.texts + [node.text for node in new.values()]
        self.features = np.vstack([self.features, np.full((len(new), self.dim), np.nan)])
        self.pairs = np.concatenate([self.pairs, np.asarray(pairs, dtype=np.intp).reshape(-1, 2)])
        self.weights = np.concatenate([self.weights, np.asarray(weights, dtype=np.float64)])
        self.scored = np.concatenate([self.scored, np.asarray(scored, dtype=bool)])

    # -- read access --

    @property
    def node_ids(self) -> list[str]:
        return sorted(self.ids)

    @property
    def edges(self) -> list[Edge]:
        return sorted(self._edges(slice(None)), key=lambda e: (e.kind.value, e.src, e.dst))

    def _edges(self, at) -> list[Edge]:
        """The edges at positions ``at`` of the edge arrays."""
        ids, kinds = self.ids, self.kinds
        return [
            Edge(ids[src], ids[dst], _EDGE_KIND[kinds[src], kinds[dst]], weight if scored else None)
            for (src, dst), weight, scored in zip(
                self.pairs[at].tolist(), self.weights[at].tolist(), self.scored[at].tolist()
            )
        ]

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.index

    def __len__(self) -> int:
        return len(self.ids)

    def _row(self, node_id: str) -> int:
        if node_id not in self.index:
            raise UnknownNode(node_id)
        return self.index[node_id]

    def node(self, node_id: str) -> Node:
        """A new ``Node`` of the row's id, kind and text; changing it changes nothing."""
        row = self._row(node_id)
        return Node(node_id, self.kinds[row], self.texts[row])

    def embedding(self, node_id: str) -> np.ndarray:
        """A copy of the node's feature row; an unencoded node raises ``UninitializedEmbedding``."""
        row = self.features[self._row(node_id)]
        if np.isnan(row).any():
            raise UninitializedEmbedding(node_id)
        return row.copy()

    def nodes_of_kind(self, kind: NodeKind) -> list[Node]:
        return [self.node(nid) for nid in self.node_ids if self.kinds[self.index[nid]] is kind]

    def _around(self, node_id: str) -> tuple[np.ndarray, list[int]]:
        """The positions of the node's edges in the edge arrays, and each edge's other row."""
        ends = self.pairs.ravel()  # edge i's rows are at 2i and 2i + 1
        at = np.flatnonzero(ends == self._row(node_id))
        return at >> 1, ends[at ^ 1].tolist()

    def neighbors(self, node_id: str) -> list[str]:
        return sorted(self.ids[row] for row in self._around(node_id)[1])

    def incident(self, node_id: str) -> list[tuple[str, Edge]]:
        """(neighbour id, edge) of each of the node's edges, sorted by neighbour id."""
        at, others = self._around(node_id)
        around = zip([self.ids[row] for row in others], self._edges(at))
        return sorted(around, key=lambda pair: pair[0])

    # -- serialization --

    def to_snapshot(self) -> dict:
        nodes = []
        for nid in self.node_ids:
            row = self.index[nid]
            entry: dict = {"id": nid, "kind": self.kinds[row].value, "text": self.texts[row]}
            if not np.isnan(self.features[row]).any():
                entry["embedding"] = [float(x) for x in self.features[row]]
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

    def save(self, path: str | Path) -> None:
        records.write(path, self.to_snapshot())


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
    nodes = [Node(f.id, NodeKind.MODEL_FAMILY, f.description) for f in families]
    nodes += [Node(d.id, NodeKind.DOMAIN, d.description) for d in domains]
    nodes += [Node(b.id, NodeKind.BENCHMARK, b.description) for b in benchmarks]
    nodes += [Node(m.id, NodeKind.MODEL, m.description) for m in models]
    nodes += [Node(q.id, NodeKind.QUERY, q.text) for q in queries]
    scales = {b.id: b.score_scale for b in benchmarks}
    edges = [Edge(b.id, b.domain_id, EdgeKind.BENCHMARK_DOMAIN) for b in benchmarks]
    edges += [Edge(q.id, q.benchmark_id, EdgeKind.QUERY_BENCHMARK) for q in queries]
    edges += [e for m in models for e in _model_edges(m, scales)]
    return EvidenceGraph(nodes, edges, dim, scales)


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


def add_model_node(graph: EvidenceGraph, card: ModelCard) -> EvidenceGraph:
    """A copy of ``graph`` grown by a new model node, as the next row, plus its
    family and score edges.

    ``graph`` is left as it was: the copy shares none of its lists or
    arrays, so encoding the new row, which stays unset until encoded,
    writes only to the copy.  A card the graph rejects raises.
    """
    grown = copy.copy(graph)
    grown._add([Node(card.id, NodeKind.MODEL, card.description)], _model_edges(card, graph.score_scales))
    return grown


def _model_edges(card: ModelCard, scales: dict[str, str]) -> list[Edge]:
    """The family edge of a model card, then its scores as normalized score edges.

    A score on an id with no recorded scale keeps its raw value: the graph
    rejects the edge unless the id names a benchmark, and then reads the
    score on the unit scale.
    """
    edges = [Edge(card.id, card.family_id, EdgeKind.MODEL_FAMILY)]
    for bench_id, score in sorted(card.scores.items()):
        scale = scales.get(bench_id)
        weight = float(score) if scale is None else normalize_score(score, scale, card.id, bench_id)
        edges.append(Edge(card.id, bench_id, EdgeKind.MODEL_BENCHMARK, weight))
    return edges


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
