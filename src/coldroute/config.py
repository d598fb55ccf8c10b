"""Application configuration shared by the CLI and the routing service.

One JSON document names the card directory, providers, profile spec,
router kind, data files, and output paths.  All paths are resolved
relative to the config file's own directory, so a config can travel with
its data.  Remote provider endpoints and the API key may come from the
environment (``RP_EMBED_URL``, ``RP_LLM_URL``, ``RP_API_KEY``); the
config path itself may come from ``RP_CONFIG``.

``Pipeline`` turns a config into everything routing needs: providers,
spec, the encoded graph, the aggregator, the pool and the router.  The
CLI, the eval protocols and the service all build through it; the CLI
and the service recover and grow a pool through ``PoolState``.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

from . import records
from .errors import ConfigError
from .graph import (CardSet, EvidenceGraph, ModelCard, NodeKind, add_model_node, build_graph,
                    load_cards, parse_card, read_card, remove_node)
from .profiles import ProfileSpec, TrainGnnModel, make_profiles, traingnn_fit
from .providers import (
    DeterministicEmbedder,
    EchoSummarizer,
    Providers,
    RemoteEmbedder,
    RemoteSummarizer,
    encode_all,
    remote_options,
)
from .routers import (
    CandidatePool,
    InteractionRecord,
    fit_router,
    integrate_new_model,
    load_interactions,
    load_tasks,
    query_vectors,
    router_class,
)


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


# keys of the config's "service" object; every other field is a top-level key
_SERVICE_FIELDS = ("host", "port", "state_path")


def load_config(path: str | Path) -> AppConfig:
    """The config in a JSON file; every path in it resolves against the file's directory.

    Each field's kind and default is its ``AppConfig`` annotation; other keys are ignored.
    ``hidden`` must be >= 1, ``seed`` and each of the nonempty ``random_seeds`` >= 0.  A
    provider's options are those of its kind: a deterministic encoder's ``seed`` (>= 0),
    none for the echo summarizer, a remote provider's keyword options, each a value its
    constructor accepts.  ``spec`` must parse and ``router`` must name a router kind.
    """
    path = Path(path)
    base = path.resolve().parent

    def build(raw: dict) -> AppConfig:
        service = raw.get("service") or {}
        top = {k: v for k, v in raw.items() if k not in _SERVICE_FIELDS}
        nested = {k: v for k, v in service.items() if k in _SERVICE_FIELDS}
        cfg = records.check({**top, **nested, "base_dir": str(base)}, AppConfig)
        for role, cls, offline in (("encoder", RemoteEmbedder, {"seed"}),
                                   ("summarizer", RemoteSummarizer, set())):
            options = getattr(cfg, role)
            known = remote_options(cls) if options.get("kind") == "remote" else offline
            if unknown := set(options) - {"kind"} - known:
                raise ConfigError(f"unknown {role} option {min(unknown)!r}")
        if not cfg.random_seeds:
            raise ConfigError("random_seeds must not be empty")
        for name, value, least in [("dim", cfg.dim, 1), ("hidden", cfg.hidden, 1),
                                   ("seed", cfg.seed, 0),
                                   ("encoder seed", cfg.encoder.get("seed", 0), 0),
                                   *(("random_seeds", s, 0) for s in cfg.random_seeds)]:
            records.at_least(name, value, least)
        ProfileSpec.parse(cfg.spec)
        router_class(cfg.router)
        make_providers(cfg)  # refuses a provider kind or option value
        for f in fields(cfg):
            if isinstance(getattr(cfg, f.name), Path):
                setattr(cfg, f.name, base / getattr(cfg, f.name))
        return cfg

    cfg = records.read(path, "doc", {"service": dict | None}, build)
    if not cfg.cards_dir.exists():
        raise ConfigError(f"cards_dir does not exist: {cfg.cards_dir}")
    return cfg


def _remote(cls, role: str, url_env: str, options: dict, **fixed):
    """A remote provider from its options; the environment fills a missing url or api key."""
    url = options.pop("url", None) or os.environ.get(url_env)
    if not url:
        raise ConfigError(f"remote {role} needs a url (config or {url_env})")
    api_key = options.pop("api_key", None) or os.environ.get(ENV_API_KEY)
    return cls(url, api_key=api_key, **fixed, **options)


def make_providers(cfg: AppConfig) -> Providers:
    """Build the encoder/summarizer pair, letting the environment fill URLs."""
    enc_cfg = dict(cfg.encoder)
    kind = enc_cfg.pop("kind", "deterministic")
    if kind == "deterministic":
        encoder = DeterministicEmbedder(dim=cfg.dim, seed=enc_cfg.get("seed", 0))
    elif kind == "remote":
        encoder = _remote(RemoteEmbedder, "encoder", ENV_EMBED_URL, enc_cfg, dim=cfg.dim)
    else:
        raise ConfigError(f"unknown encoder kind {kind!r}")

    sum_cfg = dict(cfg.summarizer)
    kind = sum_cfg.pop("kind", "echo")
    if kind == "echo":
        summarizer = EchoSummarizer()
    elif kind == "remote":
        summarizer = _remote(RemoteSummarizer, "summarizer", ENV_LLM_URL, sum_cfg)
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
    if providers is not None:
        encode_all(graph, providers.encoder)
    return graph


class Pipeline:
    """One config's path from model cards to a router.

    Providers and spec are made at once.  Every other stage is
    built on first use and then kept, so a command pays only for what it
    reads, and each stage runs at most once.
    """

    def __init__(self, cfg: AppConfig):
        self.cfg = cfg
        self.providers = make_providers(cfg)
        self.spec = ProfileSpec.parse(cfg.spec)

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
        model = records.read(path, "doc", None, TrainGnnModel.from_checkpoint)
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
        """The pool of ``ids``, in that order, profiled by ``make_profiles``."""
        profiles = make_profiles(self.graph, self.spec, ids, self.providers,
                                 trained=self.aggregator)
        return CandidatePool([profiles[m] for m in ids])

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


@dataclass
class PoolState:
    """A pool, the model cards admitted to it, and the file that keeps both.

    The file holds ``pool`` (``{"models": [profile rows]}``) and ``registered_cards``.
    """

    pipe: Pipeline
    pool: CandidatePool
    path: Path | None = None
    cards: list[ModelCard] = field(default_factory=list)

    @staticmethod
    def read(path: Path) -> tuple[CandidatePool, list[ModelCard]]:
        """The pool and the cards of a state file; a bad file raises ``ConfigError`` naming it."""
        schema = {"pool": dict, "registered_cards": list | None}
        return records.read(path, "doc", schema, lambda doc: (
            CandidatePool.from_dict(doc["pool"]),
            [parse_card(c) for c in doc.get("registered_cards") or []],
        ))

    def write(self) -> None:
        """Write the file whole and durably (``records.write_atomic``)."""
        doc = {"registered_cards": [asdict(c) for c in self.cards], "pool": self.pool.to_dict()}
        records.write_atomic(Path(self.path), records.dumps(doc), durable=True)

    @classmethod
    def recover(cls, pipe: Pipeline, path: Path | None, fresh: Callable[[], CandidatePool]):
        """The state in the file at ``path``, else ``fresh()`` with no cards.

        The profiles must have the configured spec and dim.  A trainable
        spec's aggregator is made first, on the cards directory's graph;
        then the cards join the graph, and each pool model must be a model
        node of it.  Else, or if the file cannot be read, ``ConfigError``.
        """
        if path is None or not Path(path).exists():
            return cls(pipe, fresh(), path)
        pool, cards = cls.read(path)
        want = f"{pipe.spec.short()} with dim {pipe.cfg.dim}"
        for p in pool.profiles():
            if (got := f"{p.spec.short()} with dim {p.vector.shape[0]}") != want:
                raise ConfigError(f"state file {path} holds {p.model_id!r} as {got}, not {want}")
        pipe.aggregator  # noqa: B018 - fitted or loaded before the graph grows
        for card in (c for c in cards if c.id not in pipe.graph):
            add_model_node(pipe.graph, card)
        models = {n.id for n in pipe.graph.nodes_of_kind(NodeKind.MODEL)}
        if stray := [m for m in pool.ids if m not in models]:
            raise ConfigError(f"state file {path} holds {stray[0]!r}, not a model of the graph")
        encode_all(pipe.graph, pipe.providers.encoder)
        return cls(pipe, pool, path, cards)

    def admit(self, card: ModelCard) -> None:
        """Add ``card``'s model and write the file; only then do ``pool`` and ``cards`` hold it.
        A failure leaves all as it was, but ``records.Unsynced``: the file holds it already."""
        pipe = self.pipe
        pool = integrate_new_model(self.pool, pipe.graph, card, pipe.spec, pipe.providers,
                                   trained=pipe.aggregator)
        grown = replace(self, pool=pool, cards=[*self.cards, card])
        try:
            if self.path is not None:
                grown.write()
        except records.Unsynced:
            self.pool, self.cards = grown.pool, grown.cards
            raise
        except BaseException:
            remove_node(pipe.graph, card.id)
            raise
        self.pool, self.cards = grown.pool, grown.cards  # one assignment each: old or grown, whole
