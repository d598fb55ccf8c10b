"""Application configuration shared by the CLI and the routing service.

One JSON document names the card directory, providers, profile spec,
router kind, data files, and output paths.  All paths are resolved
relative to the config file's own directory, so a config can travel with
its data.  Remote provider endpoints and the API key may come from the
environment (``RP_EMBED_URL``, ``RP_LLM_URL``, ``RP_API_KEY``); the
config path itself may come from ``RP_CONFIG``.

``Pipeline`` turns a config into everything routing needs: providers,
spec, templates, the encoded graph, the aggregator, the pool and the
router.  The CLI and the service both build through it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .errors import ConfigError
from .graph import CardSet, EvidenceGraph, ModelCard, NodeKind, build_graph, load_cards, read_card
from .profiles import ProfileSpec, TrainGnnModel, load_templates, traingnn_fit
from .providers import (
    DeterministicEmbedder,
    EchoSummarizer,
    Providers,
    RemoteEmbedder,
    RemoteSummarizer,
    encode_all,
)
from .routers import (
    CandidatePool,
    InteractionRecord,
    fit_router,
    load_interactions,
    load_tasks,
    profile_pool,
    query_vectors,
)

__all__ = [
    "AppConfig",
    "Pipeline",
    "build_world_graph",
    "load_config",
    "make_providers",
    "ENV_CONFIG",
]

ENV_CONFIG = "RP_CONFIG"
ENV_EMBED_URL = "RP_EMBED_URL"
ENV_LLM_URL = "RP_LLM_URL"
ENV_API_KEY = "RP_API_KEY"


@dataclass
class AppConfig:
    base_dir: Path
    cards_dir: Path
    dim: int = 64
    encoder: dict = field(default_factory=lambda: {"kind": "deterministic", "seed": 0})
    summarizer: dict = field(default_factory=lambda: {"kind": "echo"})
    spec: str = "emb:2"
    router: str = "sim"
    pool: list[str] | None = None
    interactions: Path | None = None
    tasks: Path | None = None
    rewards: Path | None = None
    eval_queries: list[str] | None = None
    new_model_card: Path | None = None
    aggregator: Path | None = None
    seed: int = 0
    random_seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4, 5])
    threshold: float = 1.0
    hidden: int = 64
    out: Path = Path("report")
    host: str = "127.0.0.1"
    port: int = 8777
    state_path: Path | None = None
    templates_dir: Path | None = None


def _resolve(base: Path, value: str | None) -> Path | None:
    if value is None:
        return None
    path = Path(value)
    return path if path.is_absolute() else (base / path)


def load_config(path: str | Path) -> AppConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if "cards_dir" not in raw:
        raise ConfigError("config must name a cards_dir")
    base = path.resolve().parent
    service = raw.get("service", {})
    cfg = AppConfig(
        base_dir=base,
        cards_dir=_resolve(base, raw["cards_dir"]),
        dim=int(raw.get("dim", 64)),
        encoder=dict(raw.get("encoder", {"kind": "deterministic", "seed": 0})),
        summarizer=dict(raw.get("summarizer", {"kind": "echo"})),
        spec=raw.get("spec", "emb:2"),
        router=raw.get("router", "sim"),
        pool=raw.get("pool"),
        interactions=_resolve(base, raw.get("interactions")),
        tasks=_resolve(base, raw.get("tasks")),
        rewards=_resolve(base, raw.get("rewards")),
        eval_queries=raw.get("eval_queries"),
        new_model_card=_resolve(base, raw.get("new_model_card")),
        aggregator=_resolve(base, raw.get("aggregator")),
        seed=int(raw.get("seed", 0)),
        random_seeds=list(raw.get("random_seeds", [0, 1, 2, 3, 4, 5])),
        threshold=float(raw.get("threshold", 1.0)),
        hidden=int(raw.get("hidden", 64)),
        out=_resolve(base, raw.get("out", "report")),
        host=service.get("host", "127.0.0.1"),
        port=int(service.get("port", 8777)),
        state_path=_resolve(base, service.get("state_path")),
        templates_dir=_resolve(base, raw.get("templates_dir")),
    )
    if not cfg.cards_dir.exists():
        raise ConfigError(f"cards_dir does not exist: {cfg.cards_dir}")
    return cfg


def make_providers(cfg: AppConfig) -> Providers:
    """Build the encoder/summarizer pair, letting the environment fill URLs."""
    enc_cfg = dict(cfg.encoder)
    kind = enc_cfg.pop("kind", "deterministic")
    if kind == "deterministic":
        encoder = DeterministicEmbedder(dim=cfg.dim, seed=int(enc_cfg.get("seed", 0)))
    elif kind == "remote":
        url = enc_cfg.pop("url", None) or os.environ.get(ENV_EMBED_URL)
        if not url:
            raise ConfigError(f"remote encoder needs a url (config or {ENV_EMBED_URL})")
        api_key = enc_cfg.pop("api_key", None) or os.environ.get(ENV_API_KEY)
        encoder = RemoteEmbedder(url, dim=cfg.dim, api_key=api_key, **enc_cfg)
    else:
        raise ConfigError(f"unknown encoder kind {kind!r}")

    sum_cfg = dict(cfg.summarizer)
    kind = sum_cfg.pop("kind", "echo")
    if kind == "echo":
        summarizer = EchoSummarizer()
    elif kind == "remote":
        url = sum_cfg.pop("url", None) or os.environ.get(ENV_LLM_URL)
        if not url:
            raise ConfigError(f"remote summarizer needs a url (config or {ENV_LLM_URL})")
        api_key = sum_cfg.pop("api_key", None) or os.environ.get(ENV_API_KEY)
        summarizer = RemoteSummarizer(url, api_key=api_key, **sum_cfg)
    else:
        raise ConfigError(f"unknown summarizer kind {kind!r}")
    return Providers(encoder, summarizer)


def build_world_graph(
    cards: CardSet, dim: int, providers: Providers | None = None
) -> EvidenceGraph:
    """The evidence graph of a card set, every node encoded when ``providers`` is given."""
    graph = build_graph(
        cards.families, cards.models, cards.benchmarks, cards.domains, cards.queries, dim
    )
    return graph if providers is None else encode_all(graph, providers.encoder)


class Pipeline:
    """One config's path from model cards to a router.

    Providers, spec and templates are made at once.  Every other stage is
    built on first use and then kept, so a command pays only for what it
    reads, and each stage runs at most once.
    """

    def __init__(self, cfg: AppConfig):
        self.cfg = cfg
        self.providers = make_providers(cfg)
        self.spec = ProfileSpec.parse(cfg.spec)
        self.templates = load_templates(cfg.templates_dir) if cfg.templates_dir else None

    @cached_property
    def graph(self) -> EvidenceGraph:
        return build_world_graph(load_cards(self.cfg.cards_dir), self.cfg.dim, self.providers)

    @cached_property
    def aggregator(self) -> TrainGnnModel | None:
        """The frozen aggregator of a trainable spec, else None.

        A configured ``aggregator`` file that exists is loaded; otherwise
        the aggregator is fitted on the graph.
        """
        if self.spec.learning != "trainable":
            return None
        path = self.cfg.aggregator
        if path is None or not Path(path).exists():
            return traingnn_fit(self.graph, self.spec, self.cfg.seed)
        model = TrainGnnModel.from_checkpoint(json.loads(Path(path).read_text()))
        if (model.depth, model.dim) != (self.spec.depth, self.cfg.dim):
            raise ConfigError(
                f"aggregator {path} has depth {model.depth} and dim {model.dim}, "
                f"but {self.spec.short()} with dim {self.cfg.dim} is configured"
            )
        return model

    @cached_property
    def new_card(self) -> ModelCard | None:
        return read_card(self.cfg.new_model_card) if self.cfg.new_model_card else None

    @cached_property
    def interactions(self) -> list[InteractionRecord] | None:
        return load_interactions(self.cfg.interactions) if self.cfg.interactions else None

    @cached_property
    def tasks(self) -> dict[str, str] | None:
        return load_tasks(self.cfg.tasks) if self.cfg.tasks else None

    def pool_ids(self, without: str | None = None) -> list[str]:
        """The configured pool, else every model of the graph; ``without`` left out."""
        ids = self.cfg.pool or [n.id for n in self.graph.nodes_of_kind(NodeKind.MODEL)]
        return [m for m in ids if m != without]

    def pool(self, ids: list[str]) -> CandidatePool:
        return profile_pool(
            self.graph, self.spec, ids, self.providers,
            seed=self.cfg.seed, templates=self.templates, trained=self.aggregator,
        )

    def router(self, kind: str, pool: CandidatePool):
        """A ``kind`` router over ``pool``, fitted on the configured interactions.

        They may not mention the configured new model.
        """
        interactions = self.interactions
        return fit_router(
            kind,
            interactions,
            query_vectors(self.graph, [r.query_id for r in interactions or []]),
            pool,
            tasks=self.tasks,
            hidden=self.cfg.hidden,
            seed=self.cfg.seed,
            held_out=self.new_card.id if self.new_card else None,
        )
