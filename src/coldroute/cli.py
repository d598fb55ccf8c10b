"""Command-line interface.

Subcommands cover the pipeline end to end: build/validate the evidence
graph, compute profiles, train routers, route single queries, run the two
evaluation protocols, integrate a new model into a frozen pool, and serve
the routing API.  ``--json`` switches stdout to machine-readable JSON.

Exit codes: 0 success, 1 domain error (graph/config/protocol violations),
2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, records
from .config import ENV_CONFIG, AppConfig, Pipeline, build_world_graph, load_config, make_providers
from .errors import ColdRouteError, ConfigError
from .evaluation import RewardTable, run_coldstart, run_integration
from .graph import load_cards, read_card
from .profiles import load_profiles, save_profiles
from .routers import (
    CandidatePool,
    SimRouter,
    integrate_new_model,
    load_router,
    router_checksum,
    save_router,
)

__all__ = ["main"]


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(records.dumps(payload, "pretty"), end="")
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _load_cfg(args) -> AppConfig:
    path = getattr(args, "config", None) or os.environ.get(ENV_CONFIG)
    if not path:
        raise ConfigError(f"no config given (use --config or {ENV_CONFIG})")
    return load_config(path)


def _pipeline(args) -> Pipeline:
    """The configured pipeline, with the command's ``--spec`` / ``--seed`` overrides."""
    cfg = _load_cfg(args)
    if getattr(args, "spec", None):
        cfg.spec = args.spec
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return Pipeline(cfg)


# --- subcommands -----------------------------------------------------------

def _cmd_graph(args) -> dict:
    encode = args.action == "build" and args.encode
    cfg = _load_cfg(args) if encode or not args.cards else None
    cards_dir, dim = (Path(args.cards), args.dim) if args.cards else (cfg.cards_dir, cfg.dim)
    graph = build_world_graph(load_cards(cards_dir), dim, make_providers(cfg) if encode else None)
    info = {
        "nodes": len(graph),
        "edges": len(graph.pairs),
        "dim": graph.dim,
        "valid": True,
    }
    if args.action == "build":
        out = Path(args.out or "graph.json")
        graph.save(out)
        info["path"] = str(out)
    return info


def _cmd_profile(args) -> dict:
    pipe = _pipeline(args)
    pool = pipe.pool(list(args.pool) if args.pool else pipe.pool_ids())
    out = Path(args.out) if args.out else pipe.cfg.base_dir / "profiles.jsonl"
    save_profiles({p.model_id: p for p in pool.profiles()}, out)
    info = {"spec": pipe.spec.short(), "models": len(pool), "path": str(out)}
    if pipe.aggregator is not None:
        agg_path = pipe.cfg.aggregator or out.with_suffix(".aggregator.json")
        records.write(agg_path, pipe.aggregator.to_checkpoint())
        info["aggregator"] = str(agg_path)
    return info


def _cmd_router_train(args) -> dict:
    pipe = _pipeline(args)
    pool = pipe.pool(pipe.pool_ids())
    router = pipe.router(args.kind, pool)
    out = Path(args.out) if args.out else pipe.cfg.base_dir / f"router_{args.kind}.json"
    save_router(router, out)
    pool_out = Path(args.pool_out) if args.pool_out else out.with_name(out.stem + "_pool.json")
    pool.save(pool_out)
    return {
        "router": args.kind,
        "path": str(out),
        "pool_path": str(pool_out),
        "checksum": router_checksum(router),
        "interactions": len(pipe.interactions or []),
    }


def _cmd_route(args) -> dict:
    cfg = _load_cfg(args)
    providers = make_providers(cfg)
    router = load_router(args.router) if args.router else SimRouter(dim=cfg.dim)
    if args.pool_state:
        pool = CandidatePool.load(args.pool_state)
    elif args.profiles:
        profiles = load_profiles(args.profiles)
        pool = CandidatePool([profiles[m] for m in sorted(profiles)])
    else:
        raise ConfigError("route needs --pool-state or --profiles")
    vec = providers.encoder.encode(args.query)
    decision = router.route(np.asarray(vec), pool, query_id="cli", task_id=args.task)
    return {"model_id": decision.chosen, "scores": decision.to_dict()["scores"]}


def _eval_common(args):
    pipe = _pipeline(args)
    graph = pipe.graph
    if pipe.cfg.rewards is None:
        raise ConfigError("evaluation needs a rewards file in the config")
    rewards = RewardTable.load(pipe.cfg.rewards)
    queries = pipe.cfg.eval_queries or [q for q in rewards.query_ids if q in graph]
    out_base = Path(args.out) if args.out else pipe.cfg.out
    return pipe, rewards, queries, out_base


def _write_report(report, out_base: Path, as_json: bool) -> dict:
    json_path = out_base.with_suffix(".json")
    csv_path = out_base.with_suffix(".csv")
    report.write_json(json_path)
    report.write_csv(csv_path)
    info = {
        "protocol": report.protocol,
        "spec": report.spec,
        "router": report.router,
        "num_queries": report.num_queries,
        "average_performance": report.average_performance,
        "oracle": report.oracle,
        "single_best": report.single_best,
        "random_mean": report.random_mean,
        "report_json": str(json_path),
        "report_csv": str(csv_path),
    }
    if report.ncir is not None:
        info["ncir"] = report.ncir
    return info


def _cmd_eval_coldstart(args) -> dict:
    pipe, rewards, queries, out_base = _eval_common(args)
    report = run_coldstart(
        pipe.graph,
        pipe.spec,
        pipe.pool_ids(),
        queries,
        rewards,
        pipe.providers,
        seed=pipe.cfg.seed,
        random_seeds=pipe.cfg.random_seeds,
        templates=pipe.templates,
    )
    return _write_report(report, out_base, args.json)


def _cmd_eval_integrate(args) -> dict:
    pipe, rewards, queries, out_base = _eval_common(args)
    cfg = pipe.cfg
    if pipe.new_card is None:
        raise ConfigError("integration needs a new_model_card in the config")
    report = run_integration(
        pipe.graph,
        pipe.spec,
        pipe.pool_ids(without=pipe.new_card.id),
        pipe.new_card,
        args.router or cfg.router,
        pipe.interactions,
        queries,
        rewards,
        pipe.providers,
        cfg.seed,
        tasks=pipe.tasks,
        threshold=cfg.threshold,
        random_seeds=cfg.random_seeds,
        templates=pipe.templates,
        hidden=cfg.hidden,
    )
    return _write_report(report, out_base, args.json)


def _cmd_integrate(args) -> dict:
    pipe = _pipeline(args)
    card = read_card(args.card)
    if args.pool_state and Path(args.pool_state).exists():
        pool = pipe.check_pool(CandidatePool.load(args.pool_state), f"pool state {args.pool_state}")
    else:
        pool = pipe.pool(pipe.pool_ids(without=card.id))
    router = load_router(args.router) if args.router else SimRouter(dim=pipe.cfg.dim)
    before = router_checksum(router)
    integrate_new_model(
        router, pool, pipe.graph, card, pipe.spec, pipe.providers,
        trained=pipe.aggregator, templates=pipe.templates,
    )
    after = router_checksum(router)
    state = Path(args.pool_state) if args.pool_state else pipe.cfg.base_dir / "pool_state.json"
    pool.save(state)
    return {
        "integrated": card.id,
        "pool": pool.ids,
        "pool_state": str(state),
        "checksum_before": before,
        "checksum_after": after,
        "frozen": before == after,
    }


def _cmd_serve(args) -> dict:
    from .service import serve

    cfg = _load_cfg(args)
    if args.port is not None:
        cfg.port = args.port
    serve(cfg)  # blocks until interrupted
    return {"stopped": True}


# --- parser ----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldroute",
        description="Cold-start LLM routing from public model-card signals.",
    )
    parser.add_argument("--version", action="version", version=f"coldroute {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help=f"config file (default: ${ENV_CONFIG})")
        p.add_argument("--json", action="store_true", help="machine-readable JSON on stdout")

    p_graph = sub.add_parser("graph", help="build or validate the evidence graph")
    p_graph.add_argument("action", choices=["build", "validate"])
    p_graph.add_argument("--cards", help="card directory (else taken from config)")
    p_graph.add_argument("--dim", type=int, default=64)
    p_graph.add_argument("--out", help="snapshot path for build")
    p_graph.add_argument("--encode", action="store_true", help="embed node features in the snapshot")
    add_common(p_graph)
    p_graph.set_defaults(func=_cmd_graph)

    p_profile = sub.add_parser("profile", help="compute model profiles under a spec")
    p_profile.add_argument("--spec", help="flat | text:K | emb:K | train:K")
    p_profile.add_argument("--pool", nargs="*", help="model ids (default: all models)")
    p_profile.add_argument("--out", help="profiles JSONL path")
    add_common(p_profile)
    p_profile.set_defaults(func=_cmd_profile)

    p_router = sub.add_parser("router", help="router operations")
    router_sub = p_router.add_subparsers(dest="action", required=True)
    p_train = router_sub.add_parser("train", help="train a router on interactions")
    p_train.add_argument("kind", choices=["sim", "mlp", "graphrouter"])
    p_train.add_argument("--spec", help="profile spec for the pool")
    p_train.add_argument("--out", help="router checkpoint path")
    p_train.add_argument("--pool-out", dest="pool_out", help="pool state output path")
    add_common(p_train)
    p_train.set_defaults(func=_cmd_router_train)

    p_route = sub.add_parser("route", help="route one query")
    p_route.add_argument("--query", required=True)
    p_route.add_argument("--task", help="task id (graph router only)")
    p_route.add_argument("--router", help="router checkpoint path")
    p_route.add_argument("--profiles", help="profiles JSONL path")
    p_route.add_argument("--pool-state", dest="pool_state", help="pool state path")
    add_common(p_route)
    p_route.set_defaults(func=_cmd_route)

    p_eval = sub.add_parser("eval", help="run an evaluation protocol")
    eval_sub = p_eval.add_subparsers(dest="protocol", required=True)
    for name, func in (("coldstart", _cmd_eval_coldstart), ("integrate", _cmd_eval_integrate)):
        p = eval_sub.add_parser(name)
        p.add_argument("--spec", help="profile spec override")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--out", help="report base path (writes .json and .csv)")
        if name == "integrate":
            p.add_argument("--router", choices=["sim", "mlp", "graphrouter"])
        add_common(p)
        p.set_defaults(func=func)

    p_int = sub.add_parser("integrate", help="add a new model to a frozen pool")
    p_int.add_argument("--card", required=True, help="new model card JSON")
    p_int.add_argument("--spec", help="profile spec override")
    p_int.add_argument("--router", help="router checkpoint path")
    p_int.add_argument("--pool-state", dest="pool_state", help="pool state path")
    add_common(p_int)
    p_int.set_defaults(func=_cmd_integrate)

    p_serve = sub.add_parser("serve", help="run the routing service")
    p_serve.add_argument("--port", type=int)
    add_common(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
    except ColdRouteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(payload, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
