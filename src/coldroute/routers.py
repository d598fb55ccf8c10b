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
router.

Integration grows a pool into a new one by a new model's public-signal
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
    LeakedInteraction,
    NonFiniteLoss,
    UnassignedQuery,
    UnknownModelInInteractions,
    UnknownTask,
)
from .graph import EvidenceGraph, ModelCard, Propagation, add_model_node, remove_node
from .profiles import Profile, ProfileSpec, TrainGnnModel, make_profiles
from .providers import Providers


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
    """Ordered model profiles sharing one dimension; a pool never changes once built."""

    def __init__(self, profiles: list[Profile] | None = None):
        self._profiles: tuple[Profile, ...] = tuple(profiles or ())
        self._by_id: dict[str, Profile] = {}
        for profile in self._profiles:
            if profile.model_id in self._by_id:
                raise DuplicateId(profile.model_id)
            if profile.vector.shape != (first := self._profiles[0].vector.shape):
                raise DimensionMismatch(first[0], profile.vector.shape[0], "pool profile")
            self._by_id[profile.model_id] = profile
        # stacked once, read-only: routers read it on every request
        self._matrix = np.stack([p.vector for p in self._profiles] or [np.zeros(0)])
        self._matrix.flags.writeable = False

    @property
    def ids(self) -> list[str]:
        return [p.model_id for p in self._profiles]

    @property
    def dim(self) -> int:
        if not self._profiles:
            raise EmptyPool()
        return self._profiles[0].vector.shape[0]

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
        return self._matrix

    def to_dict(self) -> dict:
        return {"models": [p.to_dict() for p in self._profiles]}

    @classmethod
    def from_dict(cls, payload: dict) -> "CandidatePool":
        models = records.check(payload, {"models": list})["models"]
        return cls([Profile.from_dict(entry) for entry in models])


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
            "scores": dict(sorted(self.scores.items())),
        }


def _query(pool: CandidatePool, query_vec, dim: int) -> np.ndarray:
    """The routed query checked to width ``dim``; an empty pool raises ``EmptyPool``."""
    if not pool:
        raise EmptyPool()
    query_vec = np.asarray(query_vec, dtype=np.float64)
    if query_vec.shape != (dim,):
        raise DimensionMismatch(dim, query_vec.shape[0], "query vector")
    return query_vec


def sim_route(query_vec: np.ndarray, pool: CandidatePool, query_id: str = "query") -> RoutingDecision:
    """Training-free cosine routing with smallest-id tie-break; a zero vector scores 0."""
    query_vec, matrix = _query(pool, query_vec, pool.dim), pool.matrix()
    # a row-wise sum, not BLAS: equal profiles must score equal wherever they sit
    dots = (matrix * query_vec).sum(axis=1)
    norms = np.linalg.norm(matrix, axis=1) * np.linalg.norm(query_vec)
    cosines = np.divide(dots, norms, out=np.zeros(len(pool)), where=norms != 0.0)
    return RoutingDecision.from_scores(query_id, dict(zip(pool.ids, cosines.tolist())))


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
    """Two towers, each affine -> ReLU -> affine: ``q1, q2`` on queries, ``p1, p2`` on profiles.

    A route runs the profile tower over a pool once and reuses its output
    while the same pool object is routed over (a pool never changes).
    """

    dim: int
    hidden: int
    q1: nn.AffineLayer
    q2: nn.AffineLayer
    p1: nn.AffineLayer
    p2: nn.AffineLayer
    loss_trace: list[float] = field(default_factory=list)
    # (pool, profile-tower output) of the last pool routed over; never checkpointed
    _profile_tower: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
        query_vec = _query(pool, query_vec, self.dim)
        tower = self._profile_tower  # read once: a concurrent route may replace it
        if tower is None or tower[0] is not pool:
            self._profile_tower = tower = (pool, self.p2(nn.relu(self.p1(pool.matrix()))))
        zq = self.q2(nn.relu(self.q1(query_vec[None, :])))
        preds = nn.sigmoid((zq * tower[1]).sum(axis=1))  # as in ``predict``
        return RoutingDecision.from_scores(query_id, dict(zip(pool.ids, preds.tolist())))

    def to_checkpoint(self) -> dict:
        params = self.params_payload()
        return {"kind": "mlp", "dim": self.dim, "hidden": self.hidden, "params": params}

    @classmethod
    def from_checkpoint(cls, payload: dict) -> "MlpRouter":
        payload = records.check(payload, {"dim": int, "hidden": int, "params": dict})
        router = cls.create(payload["dim"], payload["hidden"], np.random.default_rng(0))
        router.load_params(payload["params"])
        return router


def _check_interactions(
    interactions: list[InteractionRecord], query_vecs: dict, pool: CandidatePool
) -> None:
    """Each interaction names a pool model and a query with a vector, and no
    (query, model) pair comes twice."""
    seen: set[tuple[str, str]] = set()
    for rec in interactions:
        if rec.model_id not in pool:
            raise UnknownModelInInteractions(rec.model_id)
        if rec.query_id not in query_vecs:
            raise DanglingReference(rec.query_id, "interaction query")
        if (key := (rec.query_id, rec.model_id)) in seen:
            raise ConfigError(f"duplicate interaction for {key!r}")
        seen.add(key)


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
    _check_interactions(interactions, query_vecs, pool)
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
    """A graph router's routing graph for one pool, without a query.

    Its models are the pool's, in its order.  ``h1`` holds the layer-1 states
    of the frozen router; ``s_models`` are the rows of ``s`` that belong to them.
    ``sides`` holds the ``_TaskSide`` of each task routed to, made on its first route.
    """

    index: dict[tuple[str, str], int]
    members: dict[str, tuple[np.ndarray, np.ndarray]]  # task id -> member rows, edge counts
    x: np.ndarray
    s: np.ndarray
    degree: np.ndarray
    p1: np.ndarray
    h1: np.ndarray
    s_models: np.ndarray
    sides: dict[str, _TaskSide] = field(default_factory=dict)


# a routed query neighbours its task alone: a closed neighbourhood of 2
_INV_X = 1.0 / np.sqrt(2.0)
_W_XX = _INV_X * _INV_X


@dataclass(frozen=True)
class _TaskSide:
    """All of a route to one task over one pool but the routed query's own terms.

    Attaching the query ``x`` to task ``t`` adds one edge of weight ``w_tx``,
    which changes the degree of ``t`` alone; ``x`` neighbours ``t`` alone.
    ``p1`` holds the layer-1 inputs of ``t`` and ``x`` without the query's
    term, which is the query times ``w_p1``, the column ``(w_tx, w_xx)``.
    ``u_m`` are the pool models' final states: models neighbour training
    queries, never ``t`` or ``x``, so no query reaches them.
    """

    w_tx: float
    w_p1: np.ndarray
    p1: np.ndarray
    u_m: np.ndarray


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

    Everything but the routed query is compiled once per pool and reused
    while the same pool object is routed over (a pool never changes), and
    each task's side of a route once per pool, on its first route; a
    request then runs layer 1 on the rows of its task and itself and the
    rest of the network on its own row alone.
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
    # (pool, routing graph) of the last pool routed over; never checkpointed
    _compiled: tuple | None = field(default=None, init=False, repr=False, compare=False)

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

    # -- routing graph: compiled once per pool, query attached locally --

    def _compile(self, profiles: list[Profile]) -> _FrozenGraph:
        """The routing graph of one pool's profiles, before any query is attached.

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

    def _frozen(self, pool: CandidatePool) -> _FrozenGraph:
        """The compiled graph of ``pool``, compiled again for another pool object."""
        compiled = self._compiled  # read once: a concurrent route may replace it
        if compiled is None or compiled[0] is not pool:
            self._compiled = compiled = (pool, self._compile(pool.profiles()))
        return compiled[1]

    def _side(self, graph: _FrozenGraph, task_id: str) -> _TaskSide:
        """The side of ``task_id`` in ``graph``, made on its first route.

        A concurrent first route may make it too; both are equal.
        """
        side = graph.sides.get(task_id)
        if side is None:
            graph.sides[task_id] = side = self._task_side(graph, task_id)
        return side

    def _task_side(self, graph: _FrozenGraph, task_id: str) -> _TaskSide:
        """Layer 1 changes in the rows of ``t`` and its member queries once a
        query attaches to ``t``; the pool models read the members' rows."""
        t = graph.index[("t", task_id)]
        members, count = graph.members[task_id]
        rows = np.concatenate(([t], members))
        inv_t = 1.0 / np.sqrt(graph.degree[t] + 1.0)
        coeff = count / np.sqrt(graph.degree[members]) * inv_t

        # rows of S for t and its members, with every entry of t renormalized
        s_rows = graph.s[rows]
        s_rows[0] = 0.0  # t neighbours its members alone
        s_rows[0, t] = inv_t * inv_t
        s_rows[0, members] = coeff
        s_rows[1:, t] = coeff
        p1_rows = s_rows @ graph.x
        h1 = graph.h1.copy()
        h1[rows] = nn.relu(self.prop1(p1_rows))
        u_m = nn.relu(self.decoder(nn.relu(self.prop2(graph.s_models @ h1))))
        w_tx = _INV_X * inv_t
        return _TaskSide(w_tx, np.array([[w_tx], [_W_XX]]),
                         np.stack([p1_rows[0], w_tx * graph.x[t]]), u_m)

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
        query_vec, graph = _query(pool, query_vec, self.dim), self._frozen(pool)
        side = self._side(graph, task_id)
        p1 = side.w_p1 * query_vec  # both rows of layer 1's input in one array
        p1 += side.p1
        h1_t, h1_x = nn.relu(self.prop1(p1))
        p2_x = _W_XX * h1_x + side.w_tx * h1_t
        u_x = nn.relu(self.decoder(nn.relu(self.prop2(p2_x[None, :]))))[0]
        preds = nn.sigmoid((side.u_m * u_x).sum(axis=1))  # row-wise, as in ``MlpRouter.predict``
        return RoutingDecision.from_scores(query_id, dict(zip(pool.ids, preds.tolist())))

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
        query_vecs = {q: nn.payload_to_array(v) for q, v in payload["query_vecs"].items()}
        interactions = [records.check(e, InteractionRecord) for e in payload["interactions"]]
        members = [(q, "task member") for qs in payload["tasks"].values() for q in qs]
        for qid, role in [*members, *((r.query_id, "interaction query") for r in interactions)]:
            if qid not in query_vecs:  # else the first route fails on it
                raise DanglingReference(qid, role)
        router = cls.create(payload["dim"], payload["hidden"], np.random.default_rng(0),
                            payload["tasks"], query_vecs, interactions)
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

    ``tasks`` maps each training query id to its task id; every query of
    ``query_vecs``, so every query in the interactions, must be assigned.
    """
    _check_interactions(interactions, query_vecs, pool)
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

ROUTER_KINDS = {
    "sim": SimRouter,
    "mlp": MlpRouter,
    "graphrouter": GraphRouterLite,
}


def router_checksum(router) -> str:
    """SHA-256 over the canonical checkpoint JSON — the frozen contract."""
    return hashlib.sha256(records.dumps(router.to_checkpoint()).encode("utf-8")).hexdigest()


def save_router(router, path: str | Path) -> None:
    records.write(path, router.to_checkpoint())


def router_class(kind: str):
    if kind not in ROUTER_KINDS:
        raise ConfigError(f"unknown router kind {kind!r}")
    return ROUTER_KINDS[kind]


def load_router(path: str | Path):
    return records.read(
        path, "doc", {"kind": str}, lambda p: router_class(p["kind"]).from_checkpoint(p)
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
    if router_class(kind) is SimRouter:
        return SimRouter(dim=pool.dim)
    if interactions is None:
        raise ConfigError(f"router {kind!r} needs an interactions file in the config")
    if kind == "mlp":
        return mlp_fit(interactions, query_vecs, pool, hidden=hidden, seed=seed)
    if tasks is None:
        raise ConfigError("the graph router needs a tasks file in the config")
    train_tasks = {qid: tasks[qid] for qid in query_vecs if qid in tasks}
    return graphrouter_fit(train_tasks, query_vecs, interactions, pool, hidden=hidden, seed=seed)


def integrate_new_model(
    pool: CandidatePool,
    graph: EvidenceGraph,
    card: ModelCard,
    spec: ProfileSpec,
    providers: Providers,
    *,
    trained: TrainGnnModel | None = None,
) -> CandidatePool:
    """Add a model to the evidence graph; the pool grown by its profile; router untouched.

    ``pool`` is left as it was: the caller publishes the returned pool when
    ready (``grown.get(card.id)`` is the new profile).  The new profile is
    ``make_profiles`` on the grown graph, which encodes the new row too:
    one embedding request.  Existing pool profiles are never recomputed,
    and a trainable spec must pass the frozen aggregator that produced
    them.  If profiling fails, the new node leaves the graph.
    """
    if card.id in pool:
        raise DuplicateId(card.id)
    add_model_node(graph, card)
    try:
        profile = make_profiles(graph, spec, [card.id], providers, trained=trained)[card.id]
        return CandidatePool([*pool.profiles(), profile])
    except BaseException:
        remove_node(graph, card.id)
        raise
