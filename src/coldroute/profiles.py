"""Model profiles over the evidence graph.

A profile spec fixes four choices: organizational form (flat vs
structured), representation space (text vs embedding), aggregation depth
K, and whether aggregation is learned.  The four shipped instantiations:

* ``flat``      — concatenate the model's own card signals into one text,
                  then encode it.  No graph structure, K = 0.
* ``text:K``    — message passing in text space: round k rewrites a
                  non-query node's text from one fixed prompt over
                  its neighbors' previous texts, via a summarizer, for the
                  nodes within distance K − k of the profiled models (the
                  only texts the profiles depend on).
* ``emb:K``     — parameter-free propagation of node embeddings with
                  symmetric normalization and edge-score weighting.
* ``train:K``   — the same propagation interleaved with trained affine
                  layers, fit by masked reconstruction of node features
                  and edge scores.

All four return a vector per model; text forms keep the text alongside.
``make_profiles`` is the one way from graph rows to profiles, for a pool
and for a newly admitted model alike: it encodes the graph's unset rows
too, and takes the ``train:K`` aggregator fitted elsewhere.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn, records
from .errors import (
    DimensionMismatch,
    EmptyText,
    InvalidSpec,
    NonFiniteLoss,
    QueryNodeUpdateAttempt,
    SummarizerFailure,
    UninitializedEmbedding,
    UnknownNode,
)
from .graph import EdgeKind, EvidenceGraph, NodeKind, Propagation
from .providers import Providers, Summarizer, encode_all


MAX_DEPTH = 4


@dataclass(frozen=True)
class ProfileSpec:
    """The (form, representation, depth, learning) point being instantiated."""

    form: str  # "flat" | "structured"
    representation: str  # "text" | "embedding"
    depth: int
    learning: str  # "training_free" | "trainable"

    def __post_init__(self) -> None:
        if self.form not in ("flat", "structured"):
            raise InvalidSpec(f"unknown form {self.form!r}")
        if self.representation not in ("text", "embedding"):
            raise InvalidSpec(f"unknown representation {self.representation!r}")
        if self.learning not in ("training_free", "trainable"):
            raise InvalidSpec(f"unknown learning mode {self.learning!r}")
        if not (0 <= self.depth <= MAX_DEPTH):
            raise InvalidSpec(f"depth {self.depth} outside [0, {MAX_DEPTH}]")
        if self.form == "flat":
            if self.depth != 0 or self.learning != "training_free" or self.representation != "text":
                raise InvalidSpec("flat profiles are text-based, depth 0, training-free")
        else:
            if self.depth < 1:
                raise InvalidSpec("structured profiles need depth >= 1")
        if self.learning == "trainable" and (
            self.representation != "embedding" or self.form != "structured"
        ):
            raise InvalidSpec("trainable aggregation requires structured embedding profiles")

    @classmethod
    def parse(cls, short: str) -> "ProfileSpec":
        """Parse the compact form: ``flat``, ``text:K``, ``emb:K``, ``train:K``."""
        short = short.strip().lower()
        if short == "flat":
            return cls("flat", "text", 0, "training_free")
        head, sep, tail = short.partition(":")
        if not sep or not tail.isdigit():
            raise InvalidSpec(f"cannot parse profile spec {short!r}")
        depth = int(tail)
        if head == "text":
            return cls("structured", "text", depth, "training_free")
        if head == "emb":
            return cls("structured", "embedding", depth, "training_free")
        if head == "train":
            return cls("structured", "embedding", depth, "trainable")
        raise InvalidSpec(f"cannot parse profile spec {short!r}")

    def short(self) -> str:
        if self.form == "flat":
            return "flat"
        if self.representation == "text":
            return f"text:{self.depth}"
        if self.learning == "trainable":
            return f"train:{self.depth}"
        return f"emb:{self.depth}"


@dataclass(frozen=True)
class Profile:
    model_id: str
    spec: ProfileSpec
    vector: np.ndarray  # a read-only copy, never the caller's array: a profile never changes
    text: str | None = None

    def __post_init__(self) -> None:
        vector = np.array(self.vector, dtype=np.float64)
        vector.flags.writeable = False
        object.__setattr__(self, "vector", vector)
        if not np.all(np.isfinite(vector)):
            raise InvalidSpec(f"profile for {self.model_id!r} has non-finite entries")

    def to_dict(self) -> dict:
        entry: dict = {
            "model_id": self.model_id,
            "spec": self.spec.short(),
            "vector": [float(x) for x in self.vector],
        }
        if self.text is not None:
            entry["text"] = self.text
        return entry

    @classmethod
    def from_dict(cls, entry: dict) -> "Profile":
        kinds = {"model_id": str, "spec": str, "vector": list[float], "text": str | None}
        entry = records.check(entry, kinds)
        spec = ProfileSpec.parse(entry["spec"])
        return cls(entry["model_id"], spec, np.asarray(entry["vector"]), entry.get("text"))


def save_profiles(profiles: dict[str, Profile], path: str | Path) -> None:
    records.write(path, [profiles[m].to_dict() for m in sorted(profiles)], "jsonl")


def load_profiles(path: str | Path) -> dict[str, Profile]:
    """One profile per line, no model twice."""
    return records.read_unique(path, "model_id", None, Profile.from_dict)


# --- flat ------------------------------------------------------------------

def flat_text(graph: EvidenceGraph, model_id: str) -> str:
    """Family description, model description, then one sorted line per score."""
    node = graph.node(model_id)
    if node.kind is not NodeKind.MODEL:
        raise UnknownNode(model_id)
    family_text = ""
    score_lines = []
    for nb, edge in graph.incident(model_id):
        if edge.kind is EdgeKind.MODEL_FAMILY:
            family_text = graph.node(nb).text
        else:  # a score edge
            domain_id = next(
                (d for d in graph.neighbors(nb) if graph.kinds[graph.index[d]] is NodeKind.DOMAIN), ""
            )
            score_lines.append(f"{nb} - {domain_id} - {edge.weight:.3f}")
    parts = [family_text, node.text, *score_lines]
    return "\n".join(p for p in parts if p)


# --- embedding propagation -------------------------------------------------

def _encoded(graph: EvidenceGraph) -> np.ndarray:
    """The graph's feature matrix; a node not yet encoded raises ``UninitializedEmbedding``."""
    unset = np.flatnonzero(np.isnan(graph.features).any(axis=1))
    if len(unset):
        raise UninitializedEmbedding(graph.ids[unset[0]])
    return graph.features


def embgnn_propagate(graph: EvidenceGraph, depth: int) -> np.ndarray:
    """Parameter-free propagation: K rounds of normalized weighted averaging.

    Each round every node (queries included) becomes the coefficient-weighted
    sum of its closed neighborhood's previous states: ``h ← S h``.  The self
    term uses weight 1; scored edges use their score.  Returns the (n, d)
    states, a row per node in ``graph.index`` order.
    """
    if depth < 1:
        raise InvalidSpec(f"propagation depth must be >= 1, got {depth}")
    h = _encoded(graph)
    s = Propagation.of(len(graph), graph.pairs, graph.weights)
    for _ in range(depth):
        h = s @ h
    return h


# --- text propagation ------------------------------------------------------

_PROMPT = string.Template("""\
[input] Capability card refresh for ${node_id} (kind: ${kind}, round ${hop}).
Current summary of ${node_id}:
${self_text}
Evidence from directly connected graph neighbors:
${neighbor_block}
[instruction] Rewrite the summary of ${node_id} in ${sentence_range} sentences, \
merging the current summary with the neighbor evidence above. Keep concrete \
strengths, domains, and scores; drop repetition.
[output] The rewritten summary text only.
""")

_SENTENCE_RANGE = {
    NodeKind.MODEL: "3-5",
    NodeKind.MODEL_FAMILY: "2-4",
    NodeKind.BENCHMARK: "2-4",
    NodeKind.DOMAIN: "2-4",
}


def render_prompt(graph: EvidenceGraph, node_id: str, texts: dict[str, str], hop: int) -> str:
    """Deterministic prompt: self text plus one line per neighbor, sorted by id."""
    node = graph.node(node_id)
    if node.kind is NodeKind.QUERY:
        raise QueryNodeUpdateAttempt(node_id)
    lines = []
    for nb, edge in graph.incident(node_id):
        score = "" if edge.weight is None else f", score {edge.weight:.3f}"
        lines.append(f"- {nb} ({graph.kinds[graph.index[nb]].value}{score}): {texts[nb]}")
    neighbor_block = "\n".join(lines) if lines else "(no connected neighbors)"
    return _PROMPT.substitute(
        node_id=node_id,
        kind=node.kind.value,
        hop=str(hop),
        sentence_range=_SENTENCE_RANGE[node.kind],
        self_text=texts[node_id],
        neighbor_block=neighbor_block,
    )


def _summarize_round(
    graph: EvidenceGraph,
    node_ids: list[str],
    texts: dict[str, str],
    hop: int,
    summarizer: Summarizer,
) -> list[str]:
    """New texts of ``node_ids`` for one round, through one batch call."""
    prompts = [render_prompt(graph, nid, texts, hop) for nid in node_ids]
    try:
        outs = summarizer.summarize_batch(prompts)
    except SummarizerFailure:
        raise
    except Exception as exc:  # noqa: BLE001 - boundary translation
        label = node_ids[0] if len(node_ids) == 1 else f"{len(node_ids)} nodes of round {hop}"
        raise SummarizerFailure(label, exc) from exc
    if len(outs) != len(node_ids):
        raise SummarizerFailure(f"round {hop}", f"{len(outs)} outputs for {len(node_ids)} prompts")
    for nid, out in zip(node_ids, outs):
        if not isinstance(out, str) or not out.strip():
            raise SummarizerFailure(nid, "summarizer returned empty output")
    return outs


def _distances(graph: EvidenceGraph, sources: list[str], radius: int) -> dict[str, int]:
    """Graph distance from the nearest source, for nodes within ``radius``.

    Query nodes are never expanded: their text is fixed, so nothing behind
    them feeds a source.
    """
    dist = {nid: 0 for nid in sources}
    frontier = list(dist)
    for d in range(1, radius + 1):
        nxt = []
        for v in frontier:
            if graph.node(v).kind is NodeKind.QUERY:
                continue
            for u in graph.neighbors(v):
                if u not in dist:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


def textgnn_run(
    graph: EvidenceGraph, depth: int, summarizer: Summarizer, targets: list[str]
) -> dict[str, str]:
    """K synchronous text rounds; query nodes keep their raw text throughout.

    Only the final texts of ``targets`` are computed: round k rewrites the
    non-query nodes within distance K − k of a target, and reads the texts
    within distance K.  Prompts still list every neighbor from the full
    graph, so each text equals the one a run over every node
    (``targets=graph.node_ids``) gives.  A round's prompts go to the
    summarizer as one batch.  Returns the final texts of ``targets``.
    """
    if not (1 <= depth <= MAX_DEPTH):
        raise InvalidSpec(f"text propagation depth must be in [1, {MAX_DEPTH}], got {depth}")
    # the nodes a rewrite reads; an unknown target raises UnknownNode
    dist = _distances(graph, list(targets), depth)
    ids = sorted(dist)
    texts = {nid: graph.texts[graph.index[nid]] for nid in ids}
    for hop in range(1, depth + 1):
        rewrite = [nid for nid in ids if dist[nid] <= depth - hop
                   and graph.kinds[graph.index[nid]] is not NodeKind.QUERY]
        outs = _summarize_round(graph, rewrite, texts, hop, summarizer)
        texts = {**texts, **dict(zip(rewrite, outs))}
    return {nid: texts[nid] for nid in targets}


# --- trained propagation ---------------------------------------------------

@dataclass
class TrainGnnModel(nn.Layered):
    """Trained aggregator: per-hop affine layers plus reconstruction heads."""

    depth: int
    dim: int
    hop_layers: list[nn.AffineLayer]
    node_head: nn.AffineLayer
    edge_head: nn.AffineLayer
    mask_ratio: float = 0.3
    loss_trace: list[float] = field(default_factory=list)

    @classmethod
    def create(cls, depth: int, dim: int, rng: np.random.Generator, mask_ratio: float = 0.3):
        if not (1 <= depth <= MAX_DEPTH):
            raise InvalidSpec(f"trainable depth must be in [1, {MAX_DEPTH}], got {depth}")
        if not (0.0 <= mask_ratio < 1.0):
            raise InvalidSpec(f"mask ratio must lie in [0, 1), got {mask_ratio}")
        return cls(
            depth=depth,
            dim=dim,
            hop_layers=[nn.AffineLayer.create(dim, dim, rng) for _ in range(depth)],
            node_head=nn.AffineLayer.create(dim, dim, rng),
            edge_head=nn.AffineLayer.create(1, 2 * dim, rng),
            mask_ratio=mask_ratio,
        )

    def named_layers(self) -> list[tuple[str, nn.AffineLayer]]:
        hops = [(f"hop_{k}", layer) for k, layer in enumerate(self.hop_layers)]
        return [*hops, ("node_head", self.node_head), ("edge_head", self.edge_head)]

    # -- forward and gradients --

    def states(self, s: Propagation, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.dim:
            raise DimensionMismatch(self.dim, x.shape[1], "trained aggregator input")
        h = x
        for k, layer in enumerate(self.hop_layers):
            a = layer(s @ h)
            h = nn.relu(a) if k < self.depth - 1 else a
        return h

    def loss_and_grads(
        self,
        s: np.ndarray,
        x_masked: np.ndarray,
        x_orig: np.ndarray,
        node_batch: np.ndarray,
        edge_pairs: np.ndarray,
        edge_targets: np.ndarray,
        first_hop: np.ndarray | None = None,
    ) -> tuple[float, list[np.ndarray]]:
        """Masked-reconstruction loss and its exact gradients.

        ``node_batch`` indexes the masked nodes in this minibatch;
        ``edge_pairs``/``edge_targets`` are the masked scored edges with
        their pre-masking weights.  Total loss is the sum of the node and
        edge reconstruction terms.  ``first_hop`` is ``s @ x_masked``,
        passed where the caller keeps it for a whole epoch.

        Every hop but the last runs on all nodes.  The last hop and its
        backward pass run only on the rows the loss reads: the node batch
        and the ends of the masked edges.
        """
        node_batch = np.asarray(node_batch, dtype=np.intp)
        ends = np.asarray(edge_pairs, dtype=np.intp).reshape(-1, 2)
        rows, at = np.unique(np.concatenate([node_batch, ends.ravel()]), return_inverse=True)
        nodes, (left, right) = at[: len(node_batch)], at[len(node_batch) :].reshape(-1, 2).T
        s_rows = s[rows]
        p = s @ x_masked if first_hop is None else first_hop
        inputs, hidden = [], []  # each hop's input; the ReLU output of every hop but the last
        for k, layer in enumerate(self.hop_layers[:-1]):
            inputs.append(p)
            hidden.append(nn.relu(layer(p)))
            p = (s_rows if k == self.depth - 2 else s) @ hidden[-1]
        inputs.append(p if hidden else p[rows])
        h = self.hop_layers[-1](inputs[-1])
        d_h = np.zeros_like(h)
        loss = 0.0
        grads = {name: (np.zeros_like(layer.W), np.zeros_like(layer.b))
                 for name, layer in self.named_layers()}  # zero for a head no row reads

        if len(nodes):
            node_loss, d_pred = nn.mse(self.node_head(h[nodes]), x_orig[node_batch])
            loss += node_loss
            d_h[nodes] += d_pred @ self.node_head.W
            grads["node_head"] = self.node_head.grads(h[nodes], d_pred)

        if len(ends):
            feats = np.concatenate([h[left], h[right]], axis=1)
            edge_loss, d_pred = nn.mse(self.edge_head(feats).ravel(), edge_targets)
            loss += edge_loss
            d_feats = d_pred.reshape(-1, 1) @ self.edge_head.W
            np.add.at(d_h, left, d_feats[:, : self.dim])
            np.add.at(d_h, right, d_feats[:, self.dim :])
            grads["edge_head"] = self.edge_head.grads(feats, d_pred.reshape(-1, 1))

        d_a = d_h  # the last hop has no ReLU
        for k in range(self.depth - 1, -1, -1):
            grads[f"hop_{k}"] = self.hop_layers[k].grads(inputs[k], d_a)
            if k:  # the input gradient of hop 0 is never read
                s_t = s_rows.T if k == self.depth - 1 else s  # s is symmetric: s.T == s
                d_a = (s_t @ (d_a @ self.hop_layers[k].W)) * nn.relu_grad(hidden[k - 1])
        return loss, self.pack(grads)

    # -- checkpointing --

    def to_checkpoint(self) -> dict:
        return {
            "kind": "traingnn",
            "depth": self.depth,
            "dim": self.dim,
            "mask_ratio": self.mask_ratio,
            "params": self.params_payload(),
        }

    @classmethod
    def from_checkpoint(cls, payload: dict) -> "TrainGnnModel":
        kinds = {"depth": int, "dim": int, "mask_ratio": float, "params": dict}
        payload = records.check(payload, kinds)
        rng = np.random.default_rng(0)
        model = cls.create(payload["depth"], payload["dim"], rng, payload["mask_ratio"])
        model.load_params(payload["params"])
        return model


def traingnn_fit(
    graph: EvidenceGraph,
    spec: ProfileSpec,
    seed: int = 0,
    *,
    mask_ratio: float = 0.3,
    epochs: int = 100,
    lr: float = 1e-3,
    batch_size: int = 64,
) -> TrainGnnModel:
    """Fit the trainable aggregator by masked reconstruction.

    Per epoch: sample masked nodes (features zeroed) and masked scored
    edges (weight replaced by the mean scored weight), then run Adam steps
    over minibatches of the masked nodes.  ``s`` and its first hop are
    built once per epoch; each step's last hop runs on the rows its loss
    reads.  All masked edges contribute to every step of the epoch.
    """
    if spec.learning != "trainable":
        raise InvalidSpec(f"spec {spec.short()!r} is not trainable")
    features = _encoded(graph)
    rng = np.random.default_rng(seed)
    model = TrainGnnModel.create(spec.depth, graph.dim, rng, mask_ratio)
    adam = nn.AdamState.for_params(model.params(), lr=lr)

    n = len(graph)
    scored_idx = np.flatnonzero(graph.scored)
    n_scored = len(scored_idx)
    mean_scored = float(graph.weights[scored_idx].mean()) if n_scored else 0.0
    n_mask_nodes = int(round(mask_ratio * n))
    n_mask_edges = int(round(mask_ratio * n_scored))

    for epoch in range(epochs):
        masked_nodes = np.sort(rng.choice(n, size=n_mask_nodes, replace=False))
        masked_edge_pos = np.sort(rng.choice(n_scored, size=n_mask_edges, replace=False)) if n_scored else np.asarray([], dtype=int)
        masked_edges = scored_idx[masked_edge_pos] if n_mask_edges else np.asarray([], dtype=int)

        x_masked = features.copy()
        x_masked[masked_nodes] = 0.0
        weights = graph.weights.copy()
        weights[masked_edges] = mean_scored
        s = Propagation.of(n, graph.pairs, weights).dense()
        first_hop = s @ x_masked  # the same for every minibatch of the epoch
        edge_pairs = graph.pairs[masked_edges]
        edge_targets = graph.weights[masked_edges]

        order = rng.permutation(masked_nodes)
        batches = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
        if not batches and len(edge_pairs):
            batches = [np.asarray([], dtype=int)]
        losses = []
        for batch in batches:
            loss, grads = model.loss_and_grads(
                s, x_masked, features, np.sort(batch), edge_pairs, edge_targets, first_hop
            )
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"epoch {epoch}")
            nn.adam_step(adam, model.params(), grads)
            losses.append(loss)
        model.loss_trace.append(float(np.mean(losses)) if losses else 0.0)
    return model


def traingnn_states(model: TrainGnnModel, graph: EvidenceGraph) -> np.ndarray:
    """Clean forward pass (no masking): the (n, d) states in ``graph.index`` order."""
    s = Propagation.of(len(graph), graph.pairs, graph.weights)
    return model.states(s, _encoded(graph))


# --- dispatcher ------------------------------------------------------------

def make_profiles(
    graph: EvidenceGraph,
    spec: ProfileSpec,
    ids: list[str],
    providers: Providers,
    *,
    trained: TrainGnnModel | None = None,
) -> dict[str, Profile]:
    """The profile of each model of ``ids`` under ``spec``, keyed by model id.

    The graph's unset rows (a newly added model's) are encoded first, in
    one ``encode_all`` call that, under a text spec, also carries the
    profile texts after the text rounds: one embedding request at most.
    Under a text spec a blank model text raises ``EmptyText`` before any
    provider request.  A trainable spec needs ``trained``, the fitted
    aggregator; none is fitted here.
    """
    for model_id in ids:
        if model_id not in graph or graph.node(model_id).kind is not NodeKind.MODEL:
            raise UnknownNode(model_id)
    if spec.learning == "trainable" and trained is None:
        raise InvalidSpec(f"spec {spec.short()!r} needs the fitted aggregator")
    ids = sorted(ids)

    if spec.representation == "embedding":
        encode_all(graph, providers.encoder)
        states = (traingnn_states(trained, graph) if spec.learning == "trainable"
                  else embgnn_propagate(graph, spec.depth))
        return {m: Profile(m, spec, states[graph.index[m]]) for m in ids}

    if blank := [m for m in ids if not graph.texts[graph.index[m]].strip()]:
        raise EmptyText(blank[0])
    if spec.form == "flat":
        texts = [flat_text(graph, m) for m in ids]
    else:
        texts = list(textgnn_run(graph, spec.depth, providers.summarizer, targets=ids).values())
    vectors = encode_all(graph, providers.encoder, texts)
    return {m: Profile(m, spec, vec, text) for m, vec, text in zip(ids, vectors, texts)}
