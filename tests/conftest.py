"""Shared fixtures and independent oracle helpers for the test suite.

The oracle helpers deliberately re-derive expected values from first
principles (dense matrix powers, breadth-first balls, brute-force metric
loops) rather than calling the library's own internals, so the tests can
catch agreement bugs instead of reproducing them.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from coldroute.graph import (
    BenchmarkCard,
    CardSet,
    DomainCard,
    EvidenceGraph,
    FamilyCard,
    ModelCard,
    QueryRecord,
    build_graph,
    load_cards,
)
from coldroute.profiles import ProfileSpec, make_profiles
from coldroute.providers import DeterministicEmbedder, Providers, encode_all
from coldroute.routers import CandidatePool, load_interactions, load_tasks

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture()
def fixture_cards() -> CardSet:
    return load_cards(FIXTURE_DIR / "cards")


@pytest.fixture()
def providers() -> Providers:
    return Providers.deterministic(dim=64, seed=0)


@pytest.fixture()
def fixture_graph(fixture_cards, providers) -> EvidenceGraph:
    graph = build_graph(
        fixture_cards.families,
        fixture_cards.models,
        fixture_cards.benchmarks,
        fixture_cards.domains,
        fixture_cards.queries,
        dim=64,
    )
    encode_all(graph, providers.encoder)
    return graph


@pytest.fixture()
def fixture_world(fixture_graph, providers):
    """Pool, query vectors, tasks, and interactions from the shipped corpus."""
    pool_ids = ["model_00_00", "model_00_01", "model_01_00", "model_01_01"]
    profiles = make_profiles(fixture_graph, ProfileSpec.parse("emb:2"), pool_ids, providers)
    pool = CandidatePool([profiles[m] for m in pool_ids])
    tasks = load_tasks(FIXTURE_DIR / "tasks.jsonl")
    interactions = load_interactions(FIXTURE_DIR / "interactions.jsonl")
    query_vecs = {
        qid: fixture_graph.embedding(qid)
        for qid in tasks
    }
    return pool, query_vecs, tasks, interactions


def tiny_cards() -> CardSet:
    """A 6-node world: 1 family, 2 models, 1 benchmark, 1 domain, 1 query."""
    cards = CardSet()
    cards.families = [FamilyCard("fam_00", "A family of tidy desk testers.")]
    cards.models = [
        ModelCard("model_00", "fam_00", "A careful first model.", {"bench_00": 0.7}),
        ModelCard("model_01", "fam_00", "A quiet second model.", {}),
    ]
    cards.benchmarks = [BenchmarkCard("bench_00", "dom_00", "A bench of small sums.")]
    cards.domains = [DomainCard("dom_00", "Small sums and short proofs.")]
    cards.queries = [QueryRecord("q_0000", "bench_00", "What is three plus four?")]
    return cards


@pytest.fixture()
def tiny_graph() -> EvidenceGraph:
    cards = tiny_cards()
    graph = build_graph(
        cards.families, cards.models, cards.benchmarks, cards.domains, cards.queries, dim=4
    )
    encode_all(graph, DeterministicEmbedder(dim=4, seed=0))
    return graph


def random_cards(rng: np.random.Generator, max_nodes: int = 10) -> CardSet:
    """A random structurally valid card set with at most ``max_nodes`` nodes."""
    cards = CardSet()
    n_dom = int(rng.integers(1, 3))
    n_fam = int(rng.integers(1, 3))
    cards.domains = [DomainCard(f"dom_{i:02d}", f"Domain number {i} of random things.") for i in range(n_dom)]
    cards.families = [FamilyCard(f"fam_{i:02d}", f"Random family number {i}.") for i in range(n_fam)]
    budget = max_nodes - n_dom - n_fam
    n_bench = int(rng.integers(1, min(3, budget - 1) + 1))
    budget -= n_bench
    cards.benchmarks = [
        BenchmarkCard(
            f"bench_{i:02d}",
            f"dom_{int(rng.integers(n_dom)):02d}",
            f"Random benchmark number {i}.",
        )
        for i in range(n_bench)
    ]
    n_model = int(rng.integers(1, budget + 1))
    budget -= n_model
    cards.models = []
    for i in range(n_model):
        scores = {
            b.id: float(np.round(rng.uniform(0.05, 0.95), 3))
            for b in cards.benchmarks
            if rng.random() < 0.6
        }
        cards.models.append(
            ModelCard(f"model_{i:02d}", f"fam_{int(rng.integers(n_fam)):02d}", f"Random model {i}.", scores)
        )
    n_query = int(rng.integers(0, budget + 1))
    cards.queries = [
        QueryRecord(
            f"q_{i:04d}",
            cards.benchmarks[int(rng.integers(n_bench))].id,
            f"Random question number {i}?",
        )
        for i in range(n_query)
    ]
    return cards


def random_graph(rng: np.random.Generator, dim: int = 8, max_nodes: int = 10) -> EvidenceGraph:
    cards = random_cards(rng, max_nodes)
    graph = build_graph(
        cards.families, cards.models, cards.benchmarks, cards.domains, cards.queries, dim
    )
    encode_all(graph, DeterministicEmbedder(dim=dim, seed=int(rng.integers(1 << 30))))
    return graph


# --- independent oracles ---------------------------------------------------

def dense_propagation_matrix(graph: EvidenceGraph) -> np.ndarray:
    """The normalized propagation matrix S, rows and columns in ``graph.node_ids`` order."""
    ids = graph.node_ids
    index = {nid: i for i, nid in enumerate(ids)}
    n = len(ids)
    closed = {nid: set(graph.neighbors(nid)) | {nid} for nid in ids}
    s = np.zeros((n, n))
    for v in ids:
        s[index[v], index[v]] = 1.0 / len(closed[v])
        for u in graph.neighbors(v):
            edge = graph.edge_between(v, u)
            w = 1.0 if edge.weight is None else float(edge.weight)
            s[index[v], index[u]] = w / np.sqrt(len(closed[v]) * len(closed[u]))
    return s


def dense_propagation_oracle(graph: EvidenceGraph, depth: int) -> dict[str, np.ndarray]:
    """S^K X computed densely and independently of the library's code path."""
    ids = graph.node_ids
    s = dense_propagation_matrix(graph)
    x = np.stack([graph.embedding(nid) for nid in ids])
    out = np.linalg.matrix_power(s, depth) @ x
    return {nid: out[i] for i, nid in enumerate(ids)}


def bfs_ball(graph: EvidenceGraph, start: str, radius: int) -> set[str]:
    """All node ids within graph distance ``radius`` of ``start``."""
    seen = {start}
    frontier = [start]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for u in graph.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return seen


def graph_router_oracle(router, pool, query_vec, task_id: str) -> dict[str, float]:
    """GraphRouterLite scores over the whole routing graph with the query attached.

    Rebuilt from the router's public fields alone: every node, every edge
    (duplicates summed, each counted in the degrees) and the dense
    closed-neighbourhood normalization, then both propagation rounds and
    the read-out on every node.
    """
    nodes = (
        [("t", tid) for tid in sorted(router.tasks)]
        + [("q", qid) for qid in sorted(router.query_vecs)]
        + [("m", p.model_id) for p in pool.profiles()]
        + [("x", "routed")]
    )
    pos = {node: i for i, node in enumerate(nodes)}
    feats = []
    for kind, name in nodes:
        if kind == "t":
            member_vecs = [router.query_vecs[q] for q in router.tasks[name]]
            feats.append(np.mean(member_vecs, axis=0) if member_vecs else np.zeros(router.dim))
        elif kind == "q":
            feats.append(router.query_vecs[name])
        elif kind == "m":
            feats.append(pool.get(name).vector)
        else:
            feats.append(query_vec)
    x = np.asarray(feats, dtype=np.float64)

    edges = [(pos[("q", q)], pos[("t", tid)], 1.0) for tid, qs in router.tasks.items() for q in qs]
    edges += [
        (pos[("q", r.query_id)], pos[("m", r.model_id)], r.reward)
        for r in router.interactions
        if ("m", r.model_id) in pos
    ]
    edges.append((pos[("x", "routed")], pos[("t", task_id)], 1.0))
    n = len(nodes)
    adjacency = np.zeros((n, n))
    degree = np.ones(n)
    for i, j, w in edges:
        adjacency[i, j] += w
        adjacency[j, i] += w
        degree[i] += 1
        degree[j] += 1
    s = (adjacency + np.diag(np.ones(n))) / np.sqrt(np.outer(degree, degree))

    def layer(affine, h):
        return np.maximum(h @ affine.W.T + affine.b, 0.0)

    h = layer(router.prop1, s @ x)
    h = layer(router.prop2, s @ h)
    u = layer(router.decoder, h)
    u_x = u[pos[("x", "routed")]]
    return {
        name: float(1.0 / (1.0 + np.exp(-(u[pos[("m", name)]] @ u_x))))
        for kind, name in nodes
        if kind == "m"
    }


# --- full-graph training steps ---------------------------------------------
#
# One minibatch step of each trainer as a plain forward pass over every node
# of its graph followed by its backward pass, from the model's weights alone.
# The trainers compute only the rows their loss reads; these say what those
# rows must add up to.

def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def graph_router_full_step(router, graph, q_idx, m_idx, rewards):
    """Loss and gradients (prop1, prop2, decoder weights) of one graph-router minibatch.

    ``graph`` is a compiled routing graph: its ``s`` and ``p1 = s @ x``.
    """
    (w1, b1), (w2, b2), (w3, b3) = [(l.W, l.b) for l in (router.prop1, router.prop2, router.decoder)]
    a1 = graph.p1 @ w1.T + b1
    p2 = graph.s @ _relu(a1)
    a2 = p2 @ w2.T + b2
    a3 = _relu(a2) @ w3.T + b3
    u = _relu(a3)
    preds = 1.0 / (1.0 + np.exp(-np.sum(u[q_idx] * u[m_idx], axis=1)))
    diff = preds - rewards
    d_dot = 2.0 * diff / diff.size * preds * (1.0 - preds)
    d_u = np.zeros_like(u)
    for q, m, d in zip(q_idx, m_idx, d_dot):
        d_u[q] += d * u[m]
    for q, m, d in zip(q_idx, m_idx, d_dot):
        d_u[m] += d * u[q]
    d_a3 = d_u * (a3 > 0)
    d_a2 = (d_a3 @ w3) * (a2 > 0)
    d_a1 = (graph.s @ (d_a2 @ w2)) * (a1 > 0)
    grads = [d_a1.T @ graph.p1, d_a2.T @ p2, d_a3.T @ _relu(a2)]
    return float(np.mean(diff * diff)), grads


def traingnn_full_step(model, s, x_masked, x_orig, node_batch, edge_pairs, edge_targets):
    """Loss and gradients (every layer's weight, then bias) of one masked-reconstruction
    minibatch: the squared error of the masked nodes' features plus that of the
    masked edges' weights."""
    inputs, pre = [], []
    h = x_masked
    for k, layer in enumerate(model.hop_layers):
        inputs.append(s @ h)
        pre.append(inputs[-1] @ layer.W.T + layer.b)
        h = _relu(pre[-1]) if k < model.depth - 1 else pre[-1]
    node_head, edge_head = model.node_head, model.edge_head
    d_h = np.zeros_like(h)
    loss = 0.0
    head_grads = [np.zeros_like(node_head.W), np.zeros_like(node_head.b),
                  np.zeros_like(edge_head.W), np.zeros_like(edge_head.b)]
    if len(node_batch):
        feats = h[node_batch]
        diff = feats @ node_head.W.T + node_head.b - x_orig[node_batch]
        loss += float(np.mean(diff * diff))
        d_pred = 2.0 * diff / diff.size
        head_grads[0:2] = [d_pred.T @ feats, d_pred.sum(axis=0)]
        d_h[node_batch] += d_pred @ node_head.W
    if len(edge_pairs):
        left = np.asarray([int(p[0]) for p in edge_pairs])
        right = np.asarray([int(p[1]) for p in edge_pairs])
        feats = np.concatenate([h[left], h[right]], axis=1)
        diff = (feats @ edge_head.W.T + edge_head.b).ravel() - edge_targets
        loss += float(np.mean(diff * diff))
        d_pred = (2.0 * diff / diff.size)[:, None]
        head_grads[2:4] = [d_pred.T @ feats, d_pred.sum(axis=0)]
        d_feats = d_pred @ edge_head.W
        for i, j, d in zip(left, right, d_feats):
            d_h[i] += d[: model.dim]
            d_h[j] += d[model.dim :]
    hop_grads = []
    for k in range(model.depth - 1, -1, -1):
        d_a = d_h if k == model.depth - 1 else d_h * (pre[k] > 0)
        hop_grads[:0] = [d_a.T @ inputs[k], d_a.sum(axis=0)]
        d_h = s @ (d_a @ model.hop_layers[k].W)
    return loss, hop_grads + head_grads


# --- remote provider stub --------------------------------------------------

class StubHandler(BaseHTTPRequestHandler):
    """OpenAI-shaped embeddings and chat replies, steered by ``server.stub``.

    It speaks HTTP/1.0, so every connection closes after its reply.  As a
    proxy it answers a request for an absolute URL itself and records
    ``CONNECT`` targets.
    """

    def log_message(self, fmt, *args):
        pass

    def do_CONNECT(self):
        self.server.stub["connects"].append(self.path)
        self.send_response(200)
        self.end_headers()
        self.close_connection = True

    def do_POST(self):
        cfg = self.server.stub
        with cfg["lock"]:
            cfg["calls"] += 1
            cfg["in_flight"] += 1
            cfg["peak"] = max(cfg["peak"], cfg["in_flight"])
            slow = cfg["slow_first"] > 0
            cfg["slow_first"] -= slow
        try:
            time.sleep(cfg["delay"] + (cfg["slow"] if slow else 0.0))
            length = int(self.headers.get("Content-Length") or 0)
            body = json.loads(self.rfile.read(length))
        finally:
            with cfg["lock"]:
                cfg["in_flight"] -= 1
        cfg["last_body"] = body
        cfg["last_path"] = self.path
        cfg["proxy_auth"] = self.headers.get("Proxy-Authorization")
        if cfg["fail_first"] > 0:
            cfg["fail_first"] -= 1
            self.send_response(cfg["fail_status"])
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if cfg["raw"] is not None:
            raw = cfg["raw"]
        elif self.path.endswith("/v1/embeddings"):
            dim = cfg["dim"]
            data = [
                {"index": i, "embedding": [float(i + 1)] * dim}
                for i in range(len(body["input"]))
            ]
            # deliberately shuffled to prove the client re-sorts by index
            data = list(reversed(data))
            raw = json.dumps({"data": data}).encode()
        else:
            reply = body["messages"][-1]["content"] if cfg["echo"] else cfg["reply"]
            raw = json.dumps({"choices": [{"message": {"content": reply}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)


class _QuietServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        pass  # a client that gave up on a slow reply is expected here


@pytest.fixture()
def stub_server():
    server = _QuietServer(("127.0.0.1", 0), StubHandler)
    server.stub = {
        "calls": 0, "fail_first": 0, "fail_status": 500, "dim": 4, "reply": "a short summary",
        "last_body": None, "last_path": None, "proxy_auth": None, "echo": False, "raw": None,
        "delay": 0.0, "slow_first": 0, "slow": 0.0, "in_flight": 0, "peak": 0, "connects": [],
        "lock": threading.Lock(),
    }
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def stub_url(server, path: str) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"
