"""Routers over candidate pools, and frozen-router model integration.

Three routers with one calling convention (``route(query_vec, pool, ...)``):

* ``SimRouter``       — training-free cosine between query and profile.
* ``MlpRouter``       — two towers into a shared latent space; predicted
                        reward = sigmoid of the latent dot product; trained
                        by MSE against observed rewards.
* ``GraphRouterLite`` — a small heterogeneous graph of tasks, training
                        queries, and models; two propagation rounds with
                        affine+ReLU; a linear decoder reads the reward from
                        the (query, model) state pair.

``fit_router`` is the one way from a router kind and interactions to a
router; ``profile_pool`` the one way from model ids to a profiled pool.

Integration appends a new model to the pool using only its public-signal
profile; router parameters are never touched, which the checkpoint
checksum makes checkable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn, records
from .errors import (
    ConfigError,
    DanglingReference,
    DimensionMismatch,
    DuplicateId,
    EmptyPool,
    InvalidSpec,
    LeakedInteraction,
    NonFiniteLoss,
    UnassignedQuery,
    UnknownModelInInteractions,
    UnknownTask,
)
from .graph import EvidenceGraph, ModelCard, Propagation, add_model_node, remove_node
from .profiles import Profile, ProfileSpec, TrainGnnModel, make_profiles
from .providers import Providers, encode_all

__all__ = [
    "InteractionRecord",
    "CandidatePool",
    "RoutingDecision",
    "SimRouter",
    "MlpRouter",
    "GraphRouterLite",
    "sim_route",
    "mlp_fit",
    "graphrouter_fit",
    "fit_router",
    "profile_pool",
    "query_vectors",
    "integrate_new_model",
    "router_checksum",
    "save_router",
    "load_router",
    "load_interactions",
    "save_interactions",
    "load_tasks",
    "save_tasks",
]


@dataclass(frozen=True)
class InteractionRecord:
    query_id: str
    model_id: str
    reward: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.reward <= 1.0):
            raise ConfigError(
                f"reward {self.reward!r} for ({self.query_id!r}, {self.model_id!r}) outside [0, 1]"
            )


def load_interactions(path: str | Path) -> list[InteractionRecord]:
    """Interaction rows, one ``{query_id, model_id, reward}`` object per line; no pair twice."""
    rows = records.read(path, "jsonl", InteractionRecord)
    seen: set[tuple[str, str]] = set()
    for rec in rows:
        key = (rec.query_id, rec.model_id)
        if key in seen:
            raise ConfigError(f"{path}: duplicate interaction for {key!r}")
        seen.add(key)
    return rows


def save_interactions(rows: list[InteractionRecord], path: str | Path) -> None:
    records.write(path, (vars(rec) for rec in rows), "jsonl")


def load_tasks(path: str | Path) -> dict[str, str]:
    """Task assignment file: one ``{query_id, task_id}`` object per line."""
    rows = records.read(path, "jsonl", {"query_id": str, "task_id": str})
    return {row["query_id"]: row["task_id"] for row in rows}


def save_tasks(assignment: dict[str, str], path: str | Path) -> None:
    rows = [{"query_id": q, "task_id": assignment[q]} for q in sorted(assignment)]
    records.write(path, rows, "jsonl")


class CandidatePool:
    """Ordered model profiles sharing one dimension."""

    def __init__(self, profiles: list[Profile] | None = None):
        self._profiles: list[Profile] = []
        self._by_id: dict[str, Profile] = {}
        for profile in profiles or []:
            self.add(profile)

    def add(self, profile: Profile) -> None:
        if profile.model_id in self._by_id:
            raise DuplicateId(profile.model_id)
        if self._profiles and profile.vector.shape != self._profiles[0].vector.shape:
            raise DimensionMismatch(
                self._profiles[0].vector.shape[0], profile.vector.shape[0], "pool profile"
            )
        self._profiles.append(profile)
        self._by_id[profile.model_id] = profile

    @property
    def ids(self) -> list[str]:
        return [p.model_id for p in self._profiles]

    @property
    def dim(self) -> int:
        if not self._profiles:
            raise EmptyPool()
        return self._profiles[0].vector.shape[0]

    def remove(self, model_id: str) -> None:
        """Drop a model; the order of the others is kept."""
        del self._by_id[model_id]
        # a new list, so a concurrent ``profiles()`` reads the old one or this one
        self._profiles = [p for p in self._profiles if p.model_id != model_id]

    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, model_id: str) -> bool:
        return model_id in self._by_id

    def get(self, model_id: str) -> Profile:
        return self._by_id[model_id]

    def profiles(self) -> list[Profile]:
        return list(self._profiles)

    def matrix(self) -> np.ndarray:
        if not self._profiles:
            raise EmptyPool()
        return np.stack([p.vector for p in self._profiles])

    def to_dict(self) -> dict:
        return {"models": [p.to_dict() for p in self._profiles]}

    @classmethod
    def from_dict(cls, payload: dict) -> "CandidatePool":
        models = records.check(payload, {"models": list})["models"]
        return cls([Profile.from_dict(entry) for entry in models])

    def save(self, path: str | Path) -> None:
        records.write(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "CandidatePool":
        return records.read(path, "doc", None, cls.from_dict)


@dataclass
class RoutingDecision:
    query_id: str
    chosen: str
    scores: dict[str, float]

    @classmethod
    def from_scores(cls, query_id: str, scores: dict[str, float]) -> "RoutingDecision":
        if not scores:
            raise EmptyPool()
        best = max(scores.values())
        chosen = min(mid for mid, s in scores.items() if s == best)
        return cls(query_id, chosen, scores)

    def to_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "chosen": self.chosen,
            "scores": {m: float(s) for m, s in sorted(self.scores.items())},
        }


def _snapshot(pool: CandidatePool, query_vec, dim: int) -> tuple[list[Profile], np.ndarray]:
    """One snapshot of the pool's profiles, and the routed query checked to width ``dim``."""
    profiles = pool.profiles()
    if not profiles:
        raise EmptyPool()
    query_vec = np.asarray(query_vec, dtype=np.float64)
    if query_vec.shape != (dim,):
        raise DimensionMismatch(dim, query_vec.shape[0], "query vector")
    return profiles, query_vec


def sim_route(query_vec: np.ndarray, pool: CandidatePool, query_id: str = "query") -> RoutingDecision:
    """Training-free cosine routing with smallest-id tie-break; a zero vector scores 0."""
    profiles, query_vec = _snapshot(pool, query_vec, pool.dim)
    matrix = np.stack([p.vector for p in profiles])
    # a row-wise sum, not BLAS: equal profiles must score equal wherever they sit
    dots = (matrix * query_vec).sum(axis=1)
    norms = np.linalg.norm(matrix, axis=1) * np.linalg.norm(query_vec)
    cosines = np.divide(dots, norms, out=np.zeros(len(profiles)), where=norms != 0.0)
    ids = [p.model_id for p in profiles]
    return RoutingDecision.from_scores(query_id, dict(zip(ids, map(float, cosines))))


@dataclass
class SimRouter:
    dim: int

    def route(
        self,
        query_vec: np.ndarray,
        pool: CandidatePool,
        query_id: str = "query",
        task_id: str | None = None,
    ) -> RoutingDecision:
        return sim_route(query_vec, pool, query_id)

    def to_checkpoint(self) -> dict:
        return {"kind": "sim", "dim": self.dim}

    @classmethod
    def from_checkpoint(cls, payload: dict) -> "SimRouter":
        return cls(dim=records.check(payload, {"dim": int})["dim"])


# --- two-tower router ------------------------------------------------------

@dataclass
class MlpRouter(nn.Layered):
    """Two towers, each affine -> ReLU -> affine: ``q1, q2`` on queries, ``p1, p2`` on profiles."""

    dim: int
    hidden: int
    q1: nn.AffineLayer
    q2: nn.AffineLayer
    p1: nn.AffineLayer
    p2: nn.AffineLayer
    loss_trace: list[float] = field(default_factory=list)

    @classmethod
    def create(cls, dim: int, hidden: int, rng: np.random.Generator) -> "MlpRouter":
        q1, q2, p1, p2 = (nn.AffineLayer.create(hidden, d, rng) for d in (dim, hidden) * 2)
        return cls(dim=dim, hidden=hidden, q1=q1, q2=q2, p1=p1, p2=p2)

    def named_layers(self) -> list[tuple[str, nn.AffineLayer]]:
        return [("q1", self.q1), ("q2", self.q2), ("p1", self.p1), ("p2", self.p2)]

    def _towers(self, q: np.ndarray, p: np.ndarray):
        """Hidden states and outputs of both towers: ``(hq, hp, zq, zp)``."""
        hq, hp = nn.relu(self.q1(q)), nn.relu(self.p1(p))
        return hq, hp, self.q2(hq), self.p2(hp)

    def predict(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Predicted rewards of the row pairs ``(q[i], p[i])``; one query vector scores each row."""
        _, _, zq, zp = self._towers(np.atleast_2d(q), p)
        # a row-wise sum, not BLAS: equal profiles must score equal wherever they sit
        return nn.sigmoid((zq * zp).sum(axis=1))

    def loss_and_grads(
        self, q: np.ndarray, p: np.ndarray, rewards: np.ndarray
    ) -> tuple[float, list[np.ndarray]]:
        """Squared error of the predicted rewards of the row pairs ``(q[i], p[i])``,
        and its exact gradients."""
        hq, hp, zq, zp = self._towers(q, p)
        pred = nn.sigmoid((zq * zp).sum(axis=1))
        loss, d_pred = nn.mse(pred, rewards)
        d_s = (d_pred * pred * (1.0 - pred))[:, None]
        d_zq, d_zp = d_s * zp, d_s * zq
        d_aq = (d_zq @ self.q2.W) * nn.relu_grad(hq)  # relu(a) > 0 exactly where a > 0
        d_ap = (d_zp @ self.p2.W) * nn.relu_grad(hp)
        return loss, self.pack({
            "q1": self.q1.grads(q, d_aq), "q2": self.q2.grads(hq, d_zq),
            "p1": self.p1.grads(p, d_ap), "p2": self.p2.grads(hp, d_zp),
        })

    def route(
        self,
        query_vec: np.ndarray,
        pool: CandidatePool,
        query_id: str = "query",
        task_id: str | None = None,
    ) -> RoutingDecision:
        profiles, query_vec = _snapshot(pool, query_vec, self.dim)
        preds = self.predict(query_vec, np.stack([p.vector for p in profiles]))
        scores = {p.model_id: float(s) for p, s in zip(profiles, preds)}
        return RoutingDecision.from_scores(query_id, scores)

    def to_checkpoint(self) -> dict:
        params = self.params_payload()
        return {"kind": "mlp", "dim": self.dim, "hidden": self.hidden, "params": params}

    @classmethod
    def from_checkpoint(cls, payload: dict) -> "MlpRouter":
        payload = records.check(payload, {"dim": int, "hidden": int, "params": dict})
        router = cls.create(payload["dim"], payload["hidden"], np.random.default_rng(0))
        router.load_params(payload["params"])
        return router


def mlp_fit(
    interactions: list[InteractionRecord],
    query_vecs: dict[str, np.ndarray],
    pool: CandidatePool,
    *,
    hidden: int = 64,
    epochs: int = 100,
    lr: float = 1e-3,
    batch_size: int = 64,
    seed: int = 0,
) -> MlpRouter:
    """Fit the two-tower reward regressor on observed interactions."""
    for rec in interactions:
        if rec.model_id not in pool:
            raise UnknownModelInInteractions(rec.model_id)
        if rec.query_id not in query_vecs:
            raise DanglingReference(rec.query_id, "interaction query")
    rng = np.random.default_rng(seed)
    router = MlpRouter.create(pool.dim, hidden, rng)
    if not interactions:
        return router

    q_mat = np.stack([np.asarray(query_vecs[r.query_id], dtype=np.float64) for r in interactions])
    p_mat = np.stack([pool.get(r.model_id).vector for r in interactions])
    rewards = np.asarray([r.reward for r in interactions])
    if q_mat.shape[1] != pool.dim:
        raise DimensionMismatch(pool.dim, q_mat.shape[1], "interaction query vector")

    return _fit(router, (), (q_mat, p_mat), rewards, rng, epochs, lr, batch_size)


def _fit(router, fixed: tuple, pairs: tuple, rewards: np.ndarray, rng, epochs, lr, batch_size):
    """Adam on ``router.loss_and_grads(*fixed, *pairs[batch], rewards[batch])`` over
    shuffled minibatches of the interaction rows.

    The loss of ``router.predict(*fixed, *pairs)`` over every row is traced
    after each epoch's updates, so the curve reflects optimization
    progress, not minibatch shuffling.
    """
    adam = nn.AdamState.for_params(router.params(), lr=lr)
    n = len(rewards)
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            loss, grads = router.loss_and_grads(*fixed, *(a[batch] for a in pairs), rewards[batch])
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"epoch {epoch}")
            nn.adam_step(adam, router.params(), grads)
        epoch_loss, _ = nn.mse(router.predict(*fixed, *pairs), rewards)
        router.loss_trace.append(float(epoch_loss))
    return router


# --- graph router ----------------------------------------------------------

@dataclass(frozen=True)
class _FrozenGraph:
    """A graph router's routing graph for one pool snapshot, without a query.

    ``ids`` and ``vectors`` are the snapshot it was compiled from and the
    key it is reused under.  ``h1`` holds the layer-1 states of the frozen
    router; ``s_models`` are the rows of ``s`` that belong to pool models.
    """

    ids: list[str]
    vectors: np.ndarray
    index: dict[tuple[str, str], int]
    members: dict[str, tuple[np.ndarray, np.ndarray]]  # task id -> member rows, edge counts
    x: np.ndarray
    s: np.ndarray
    degree: np.ndarray
    p1: np.ndarray
    h1: np.ndarray
    s_models: np.ndarray


@dataclass
class GraphRouterLite(nn.Layered):
    """Frozen routing graph (tasks, training queries, reward edges) + GNN.

    Model nodes take their current pool profile as features at every call,
    so integrated models are scoreable with zero parameter updates; they
    simply have no reward edges.  Scoring is multiplicative: both nodes of
    a (query, model) pair pass through a shared bias-free read-out and a
    final ReLU, and the predicted reward is sigmoid(u_q . u_m).  Every
    layer on the path is bias-free, so an all-zero model profile maps to
    the all-zero state, its dot product with any query is exactly 0, and
    — because post-ReLU states are elementwise non-negative — 0 is the
    global floor of the score.  A model that brings no evidence can
    therefore never out-rank one that does.

    Everything but the routed query is compiled once per pool snapshot
    (its ids and profile vectors) and reused while the snapshot holds;
    each request then updates only the rows its query edge changes.
    """

    dim: int
    hidden: int
    prop1: nn.AffineLayer
    prop2: nn.AffineLayer
    decoder: nn.AffineLayer
    tasks: dict[str, list[str]]  # task id -> member training query ids
    query_vecs: dict[str, np.ndarray]  # training query features
    interactions: list[InteractionRecord]
    loss_trace: list[float] = field(default_factory=list)
    # routing graph of the last pool snapshot routed over; never checkpointed
    _compiled: _FrozenGraph | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def create(
        cls,
        dim: int,
        hidden: int,
        rng: np.random.Generator,
        tasks: dict[str, list[str]],
        query_vecs: dict[str, np.ndarray],
        interactions: list[InteractionRecord],
    ) -> "GraphRouterLite":
        return cls(
            dim=dim,
            hidden=hidden,
            prop1=nn.AffineLayer.create(hidden, dim, rng),
            prop2=nn.AffineLayer.create(hidden, hidden, rng),
            decoder=nn.AffineLayer.create(hidden, hidden, rng),
            tasks={t: sorted(qs) for t, qs in sorted(tasks.items())},
            query_vecs=query_vecs,
            interactions=list(interactions),
        )

    # Biases are neither trained nor stored: they stay zero so the zero
    # profile keeps its zero-state guarantee (see class docstring).
    biases = False

    def named_layers(self) -> list[tuple[str, nn.AffineLayer]]:
        return [("prop1", self.prop1), ("prop2", self.prop2), ("decoder", self.decoder)]

    # -- routing graph: compiled once per pool snapshot, query attached locally --

    def _compile(self, profiles: list[Profile]) -> _FrozenGraph:
        """The routing graph of one pool snapshot, before any query is attached.

        Node order: tasks, training queries, then the pool models.  Edges
        join each training query to its task (weight 1) and to every pool
        model it has a reward for (weight = reward); ``s`` is their
        symmetric normalization over closed neighbourhoods.
        """
        ids = [p.model_id for p in profiles]
        keys = [("t", tid) for tid in sorted(self.tasks)]
        feats: list[np.ndarray] = []
        for _, tid in keys:
            member_vecs = [self.query_vecs[q] for q in self.tasks[tid]]
            feats.append(np.mean(member_vecs, axis=0) if member_vecs else np.zeros(self.dim))
        for qid in sorted(self.query_vecs):
            keys.append(("q", qid))
            feats.append(np.asarray(self.query_vecs[qid], dtype=np.float64))
        keys.extend(("m", mid) for mid in ids)
        feats.extend(p.vector for p in profiles)
        index = {k: i for i, k in enumerate(keys)}
        x = np.stack(feats)
        if x.shape[1] != self.dim:
            raise DimensionMismatch(self.dim, x.shape[1], "routing graph features")

        pairs = [
            (index[("q", q)], index[("t", tid)], 1.0) for tid, qs in self.tasks.items() for q in qs
        ]
        pairs.extend(
            (index[("q", r.query_id)], index[("m", r.model_id)], r.reward)
            for r in self.interactions
            if ("m", r.model_id) in index
        )
        edges = np.asarray(pairs, dtype=np.float64).reshape(-1, 3)
        prop = Propagation.of(len(keys), edges[:, :2], edges[:, 2])
        s = prop.dense()
        p1 = s @ x
        first_model = len(keys) - len(ids)
        return _FrozenGraph(
            ids=ids,
            vectors=x[first_model:],
            index=index,
            members={
                tid: np.unique(
                    np.asarray([index[("q", q)] for q in qs], dtype=np.intp), return_counts=True
                )
                for tid, qs in self.tasks.items()
            },
            x=x,
            s=s,
            degree=prop.sizes,
            p1=p1,
            h1=nn.relu(self.prop1(p1)),
            s_models=s[first_model:],
        )

    def _frozen(self, profiles: list[Profile]) -> _FrozenGraph:
        """The compiled graph for this snapshot, compiled again if the pool moved."""
        graph = self._compiled
        if (
            graph is None
            or graph.ids != [p.model_id for p in profiles]
            or not np.array_equal(graph.vectors, np.stack([p.vector for p in profiles]))
        ):
            graph = self._compile(profiles)
            self._compiled = graph
        return graph

    def _attach(
        self, graph: _FrozenGraph, vec: np.ndarray, task_id: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Final states of the routed query and of the pool models.

        Attaching the query ``x`` to task ``t`` adds one edge, which changes
        the degree of ``t`` alone.  Layer 1 therefore changes only in the
        rows of ``t``, of ``t``'s member queries and of ``x``; layer 2 and
        the read-out are needed only for ``x`` and the pool models (models
        neighbour training queries, never ``t`` or ``x``).
        """
        t = graph.index[("t", task_id)]
        members, count = graph.members[task_id]
        rows = np.concatenate(([t], members))
        inv_t = 1.0 / np.sqrt(graph.degree[t] + 1.0)
        inv_x = 1.0 / np.sqrt(2.0)  # x neighbours t alone
        coeff = count / np.sqrt(graph.degree[members]) * inv_t

        # rows of S for t and its members, with every entry of t renormalized
        s_rows = graph.s[rows]
        s_rows[0] = 0.0  # t neighbours its members alone
        s_rows[0, t] = inv_t * inv_t
        s_rows[0, members] = coeff
        s_rows[1:, t] = coeff
        p1_rows = s_rows @ graph.x
        p1_rows[0] += (inv_x * inv_t) * vec
        p1_x = (inv_x * inv_x) * vec + (inv_x * inv_t) * graph.x[t]
        h1_rows = nn.relu(self.prop1(p1_rows))
        h1_x = nn.relu(self.prop1(p1_x[None, :]))

        h1 = graph.h1.copy()
        h1[rows] = h1_rows
        p2 = np.concatenate(
            [(inv_x * inv_x) * h1_x + (inv_x * inv_t) * h1_rows[:1], graph.s_models @ h1]
        )
        u = nn.relu(self.decoder(nn.relu(self.prop2(p2))))
        return u[0], u[1:]

    def predict(self, graph: _FrozenGraph, q_idx: np.ndarray, m_idx: np.ndarray) -> np.ndarray:
        """Predicted rewards of the node pairs ``(q_idx[i], m_idx[i])`` of ``graph``."""
        h1 = nn.relu(self.prop1(graph.p1))
        u = nn.relu(self.decoder(nn.relu(self.prop2(graph.s @ h1))))
        return self._pair_scores(u, q_idx, m_idx)[0]

    def _pair_scores(self, u: np.ndarray, q_idx: np.ndarray, m_idx: np.ndarray):
        u_q, u_m = u[q_idx], u[m_idx]
        return nn.sigmoid(np.sum(u_q * u_m, axis=1)), u_q, u_m

    def loss_and_grads(
        self, graph: _FrozenGraph, q_idx: np.ndarray, m_idx: np.ndarray, rewards: np.ndarray
    ) -> tuple[float, list[np.ndarray]]:
        """Squared error of the predicted rewards of the pairs ``(q_idx[i], m_idx[i])``,
        and its exact gradients.

        Layer 1 runs on every node: the batch's rows of ``s`` reach nearly
        all of them.  Layer 2, the read-out and their backward passes run
        only on the batch's own rows, and layer 1 needs no input gradient.
        """
        rows, at = np.unique(np.concatenate([q_idx, m_idx]), return_inverse=True)
        s_rows = graph.s[rows]
        h1 = nn.relu(self.prop1(graph.p1))
        p2 = s_rows @ h1
        h2 = nn.relu(self.prop2(p2))
        a3 = self.decoder(h2)
        preds, u_q, u_m = self._pair_scores(nn.relu(a3), at[: len(q_idx)], at[len(q_idx) :])
        loss, d_pred = nn.mse(preds, rewards)
        d_dot = (d_pred * preds * (1.0 - preds))[:, None]
        # one flat scatter over both ends of every pair, the query ends first
        flat = (at[:, None] * self.hidden + np.arange(self.hidden)).ravel()
        d_u = np.zeros(a3.size)
        np.add.at(d_u, flat, np.concatenate([d_dot * u_m, d_dot * u_q]).ravel())
        d_a3 = d_u.reshape(a3.shape) * nn.relu_grad(a3)
        d_a2 = (d_a3 @ self.decoder.W) * nn.relu_grad(h2)  # relu(a) > 0 exactly where a > 0
        d_a1 = (s_rows.T @ (d_a2 @ self.prop2.W)) * nn.relu_grad(h1)
        return loss, self.pack({
            "prop1": self.prop1.grads(graph.p1, d_a1),
            "prop2": self.prop2.grads(p2, d_a2),
            "decoder": self.decoder.grads(h2, d_a3),
        })

    def route(
        self,
        query_vec: np.ndarray,
        pool: CandidatePool,
        query_id: str = "query",
        task_id: str | None = None,
    ) -> RoutingDecision:
        if task_id is None:
            raise UnknownTask("<none>")
        if task_id not in self.tasks:
            raise UnknownTask(task_id)
        profiles, query_vec = _snapshot(pool, query_vec, self.dim)
        graph = self._frozen(profiles)
        u_x, u_m = self._attach(graph, query_vec, task_id)
        preds = nn.sigmoid((u_m * u_x).sum(axis=1))  # row-wise, as in ``MlpRouter.predict``
        return RoutingDecision.from_scores(query_id, dict(zip(graph.ids, map(float, preds))))

    def to_checkpoint(self) -> dict:
        return {
            "kind": "graphrouter",
            "dim": self.dim,
            "hidden": self.hidden,
            "tasks": {t: list(qs) for t, qs in sorted(self.tasks.items())},
            "query_vecs": {
                q: nn.array_to_payload(np.asarray(v, dtype=np.float64))
                for q, v in sorted(self.query_vecs.items())
            },
            "interactions": [vars(r) for r in self.interactions],
            "params": self.params_payload(),
        }

    @classmethod
    def from_checkpoint(cls, payload: dict) -> "GraphRouterLite":
        kinds = {"dim": int, "hidden": int, "tasks": dict[str, list[str]],
                 "query_vecs": dict[str, dict], "interactions": list, "params": dict}
        payload = records.check(payload, kinds)
        router = cls.create(
            payload["dim"],
            payload["hidden"],
            np.random.default_rng(0),
            payload["tasks"],
            {q: nn.payload_to_array(v) for q, v in payload["query_vecs"].items()},
            [records.check(e, InteractionRecord) for e in payload["interactions"]],
        )
        router.load_params(payload["params"])
        return router


def graphrouter_fit(
    tasks: dict[str, str],
    query_vecs: dict[str, np.ndarray],
    interactions: list[InteractionRecord],
    pool: CandidatePool,
    *,
    hidden: int = 64,
    epochs: int = 100,
    lr: float = 1e-4,
    batch_size: int = 64,
    seed: int = 0,
) -> GraphRouterLite:
    """Fit the graph router to regress observed rewards.

    ``tasks`` maps each training query id to its task id; every query in
    the interactions must be assigned.
    """
    seen_pairs: set[tuple[str, str]] = set()
    for rec in interactions:
        if rec.model_id not in pool:
            raise UnknownModelInInteractions(rec.model_id)
        if rec.query_id not in query_vecs:
            raise DanglingReference(rec.query_id, "interaction query")
        if rec.query_id not in tasks:
            raise UnassignedQuery(rec.query_id)
        key = (rec.query_id, rec.model_id)
        if key in seen_pairs:
            raise ConfigError(f"duplicate interaction for {key!r}")
        seen_pairs.add(key)
    members: dict[str, list[str]] = {}
    train_vecs = {}
    for qid in sorted(query_vecs):
        if qid not in tasks:
            raise UnassignedQuery(qid)
        members.setdefault(tasks[qid], []).append(qid)
        train_vecs[qid] = np.asarray(query_vecs[qid], dtype=np.float64)

    rng = np.random.default_rng(seed)
    router = GraphRouterLite.create(pool.dim, hidden, rng, members, train_vecs, interactions)
    if not interactions:
        return router

    graph = router._compile(pool.profiles())
    q_all = np.asarray([graph.index[("q", r.query_id)] for r in interactions])
    m_all = np.asarray([graph.index[("m", r.model_id)] for r in interactions])
    rewards = np.asarray([r.reward for r in interactions])

    return _fit(router, (graph,), (q_all, m_all), rewards, rng, epochs, lr, batch_size)


# --- checkpoints and integration -------------------------------------------

_ROUTER_KINDS = {
    "sim": SimRouter,
    "mlp": MlpRouter,
    "graphrouter": GraphRouterLite,
}


def router_checksum(router) -> str:
    """SHA-256 over the canonical checkpoint JSON — the frozen contract."""
    return hashlib.sha256(records.dumps(router.to_checkpoint()).encode("utf-8")).hexdigest()


def save_router(router, path: str | Path) -> None:
    records.write(path, router.to_checkpoint())


def _router_class(kind: str):
    if kind not in _ROUTER_KINDS:
        raise ConfigError(f"unknown router kind {kind!r}")
    return _ROUTER_KINDS[kind]


def load_router(path: str | Path):
    return records.read(
        path, "doc", {"kind": str}, lambda p: _router_class(p["kind"]).from_checkpoint(p)
    )


def query_vectors(graph: EvidenceGraph, query_ids) -> dict[str, np.ndarray]:
    """Encoded features of the given query nodes, each once, in id order."""
    return {qid: graph.embedding(qid) for qid in sorted(set(query_ids))}


def fit_router(
    kind: str,
    interactions: list[InteractionRecord] | None,
    query_vecs: dict[str, np.ndarray],
    pool: CandidatePool,
    *,
    tasks: dict[str, str] | None = None,
    hidden: int = 64,
    seed: int = 0,
    held_out: str | None = None,
):
    """A ``kind`` router over ``pool``, fitted on ``interactions`` unless it is ``sim``.

    Every interaction must name a pool model, and none may name
    ``held_out``, a model kept out of training.  ``None`` interactions
    (no data at all) serve ``sim`` only; the graph router also needs
    ``tasks``, each training query's task id.
    """
    for rec in interactions or []:
        if rec.model_id == held_out:
            raise LeakedInteraction(rec.model_id)
        if rec.model_id not in pool:
            raise UnknownModelInInteractions(rec.model_id)
    if _router_class(kind) is SimRouter:
        return SimRouter(dim=pool.dim)
    if interactions is None:
        raise ConfigError(f"router {kind!r} needs an interactions file in the config")
    if kind == "mlp":
        return mlp_fit(interactions, query_vecs, pool, hidden=hidden, seed=seed)
    if tasks is None:
        raise ConfigError("the graph router needs a tasks file in the config")
    train_tasks = {qid: tasks[qid] for qid in query_vecs if qid in tasks}
    return graphrouter_fit(train_tasks, query_vecs, interactions, pool, hidden=hidden, seed=seed)


def profile_pool(
    graph: EvidenceGraph,
    spec: ProfileSpec,
    ids: list[str],
    providers: Providers,
    *,
    seed: int = 0,
    templates=None,
    trained: TrainGnnModel | None = None,
) -> CandidatePool:
    """The pool of ``ids``, in that order, profiled by ``make_profiles``."""
    profiles = make_profiles(
        graph, spec, ids, providers, seed=seed, templates=templates, trained=trained
    )
    return CandidatePool([profiles[m] for m in ids])


def integrate_new_model(
    router,
    pool: CandidatePool,
    graph: EvidenceGraph,
    card: ModelCard,
    spec: ProfileSpec,
    providers: Providers,
    *,
    trained: TrainGnnModel | None = None,
    templates=None,
) -> Profile:
    """Add a model to the evidence graph and the pool; router untouched.

    The new profile is computed on the expanded graph; existing pool
    profiles are never recomputed.  Trainable specs must pass the frozen
    aggregator that produced the existing profiles.  If encoding or
    profiling fails, the new node is removed again, so the graph and the
    pool are left as they were.
    """
    if card.id in pool:
        raise DuplicateId(card.id)
    if spec.learning == "trainable" and trained is None:
        raise InvalidSpec("integration under a trainable spec requires the frozen aggregator")
    add_model_node(graph, card)
    try:
        encode_all(graph, providers.encoder, only_missing=True)
        profile = make_profiles(
            graph, spec, [card.id], providers, templates=templates, trained=trained
        )[card.id]
        pool.add(profile)
    except BaseException:
        remove_node(graph, card.id)
        raise
    return profile
