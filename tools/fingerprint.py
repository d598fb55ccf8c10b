#!/usr/bin/env python3
"""Fingerprint coldroute's trained parts on the benchmark's worlds.

For each seed this builds the worlds of ``perfbench/worlds.py`` (their
inputs are written to a temporary directory) and records:

* ``serve/graphrouter``: the graph router of the ``serve_graph`` service
  (``emb:2``), with its scores for the serve world's eval queries;
* ``serve/replies``: the SHA-256 of each reply body of an in-process
  ``RoutingService`` on the serve world: ``json.dumps(route(text, task),
  sort_keys=True)`` for each eval query in load order, and ``pool_info()``
  as ``pool``, so a change to how replies are built names the replies it moved;
* ``integrate/graphrouter``: the graph router of ``eval integrate``
  (``emb:2``, old pool), with its scores for the integration world's eval
  queries after the new model is admitted;
* ``integrate/mlp``: the same for the MLP router of ``eval integrate
  --router mlp``;
* ``coldstart/train:2``: the ``train:2`` aggregator of ``eval coldstart``,
  with the profile of every model;
* ``coldstart/emb:2``: the ``emb:2`` profile of every model of ``eval
  coldstart``, hashed as the pool's JSON (there is no checkpoint);
* ``admit/flat``, ``admit/text:2``, ``admit/emb:2``, ``admit/train:2``:
  the profile of the integration world's new model under each spec, after
  ``integrate_new_model`` admits it to the old pool of the ``eval
  integrate`` config, hashed as the profile's JSON, with the provider
  calls the admission made: its encoder batch calls and its summarizer
  prompts;
* ``reports``: the SHA-256 of each file that four eval commands write:
  the benchmark's ``eval coldstart --spec emb:2`` and ``--spec train:2``
  and ``eval integrate --router graphrouter --spec emb:2``, and ``eval
  integrate --router mlp --spec emb:2``;
* ``report fields``: the SHA-256 of each top-level field of those JSON
  reports, so a differing report names the fields that moved.

Each fitted part is printed as the SHA-256 of its checkpoint and its
vector of scores or profile entries, as JSON on stdout::

    python3 tools/fingerprint.py --seeds 1 2 3 > before.json
    python3 tools/fingerprint.py --seeds 1 2 3 --against before.json

With ``--against FILE`` (an earlier output) it prints one line per part
instead: whether the checkpoint is byte-identical and the max |Δ| of its
vector, the provider calls of an admission before and after, and which
reports, report fields and service replies differ.  The exit status is 1 if a vector
moved by more than 1e-12, a vector changed its length, or a report or a
reply differs; a changed call count is printed, not failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from program import PINNED_ENV  # noqa: E402

os.environ.update(PINNED_ENV)  # BLAS on one thread, as in the benchmark; before numpy loads

import numpy as np  # noqa: E402

from coldroute import records  # noqa: E402
from coldroute.cli import main as cli  # noqa: E402
from coldroute.config import Pipeline, load_config  # noqa: E402
from coldroute.providers import Providers, Summarizer, TextEncoder  # noqa: E402
from coldroute.routers import integrate_new_model, query_vectors  # noqa: E402
from coldroute.service import RoutingService  # noqa: E402
from worlds import eval_inputs, serve_inputs  # noqa: E402

TOLERANCE = 1e-12
ADMIT_SPECS = ("flat", "text:2", "emb:2", "train:2")
HASHED_PARTS = ("reports", "report fields", "serve/replies")  # name -> SHA-256 tables


def _sha(payload: dict) -> str:
    return hashlib.sha256(records.dumps(payload).encode("utf-8")).hexdigest()


def _router(config: Path, kind: str, queries: list[str] | None = None) -> dict:
    """The configured ``kind`` router's checksum and its scores for ``queries``.

    ``queries`` default to the config's eval queries, routed after its new
    model is admitted, as ``eval integrate`` does.
    """
    pipe = Pipeline(load_config(config))
    new = pipe.new_card
    pool = pipe.pool(pipe.pool_ids(without=new.id if new else None))
    router = pipe.router(kind, pool)
    sha = _sha(router.to_checkpoint())
    graph = pipe.graph
    if new is not None:
        pool, graph = integrate_new_model(pool, graph, new, pipe.spec, pipe.providers)
    queries = queries or pipe.cfg.eval_queries
    vecs = query_vectors(graph, queries)
    scores = []
    for qid in queries:
        decision = router.route(vecs[qid], pool, qid, pipe.tasks[qid])
        scores.extend(decision.scores[m] for m in pool.ids)
    return {"sha256": sha, "vector": scores}


def _replies(config: Path, queries: list[tuple[str, str, str]]) -> dict:
    """The SHA-256 of the service's reply body to each ``(query id, text, task)``,
    routed in order, and of its ``pool_info()`` as ``pool``."""
    service = RoutingService(load_config(config))
    bodies = {qid: service.route(text, task) for qid, text, task in queries}
    bodies["pool"] = service.pool_info()
    return {key: hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()
            for key, body in bodies.items()}


def _profiles(config: Path, spec: str) -> dict:
    """The profile of every model under ``spec``, with the checksum of its
    trained aggregator, or of the pool's JSON for a training-free spec."""
    cfg = load_config(config)
    cfg.spec = spec
    pipe = Pipeline(cfg)
    pool = pipe.pool(pipe.pool_ids())
    vector = np.concatenate([p.vector for p in pool.profiles()])
    hashed = pool.to_dict() if pipe.aggregator is None else pipe.aggregator.to_checkpoint()
    return {"sha256": _sha(hashed), "vector": vector.tolist()}


class _CountedEncoder(TextEncoder):
    """Counts the encoder calls of ``inner``; a single ``encode`` is a batch of one."""

    def __init__(self, inner: TextEncoder, calls: dict):
        self.inner, self.dim, self.calls = inner, inner.dim, calls

    def encode(self, text):
        self.calls["encoder batches"] += 1
        return self.inner.encode(text)

    def encode_batch(self, texts):
        self.calls["encoder batches"] += 1
        return self.inner.encode_batch(texts)


class _CountedSummarizer(Summarizer):
    """Counts the prompts sent to ``inner``."""

    def __init__(self, inner: Summarizer, calls: dict):
        self.inner, self.calls = inner, calls

    def summarize(self, prompt):
        return self.summarize_batch([prompt])[0]

    def summarize_batch(self, prompts):
        self.calls["summarizer prompts"] += len(prompts)
        return self.inner.summarize_batch(prompts)


def _admitted(config: Path, spec: str) -> dict:
    """The profile of the config's new model under ``spec``, once admitted to the old
    pool, and the provider calls of that admission."""
    cfg = load_config(config)
    cfg.spec = spec
    pipe = Pipeline(cfg)
    new = pipe.new_card
    pool = pipe.pool(pipe.pool_ids(without=new.id))
    trained = pipe.aggregator
    calls = {"encoder batches": 0, "summarizer prompts": 0}
    counted = Providers(_CountedEncoder(pipe.providers.encoder, calls),
                        _CountedSummarizer(pipe.providers.summarizer, calls))
    grown, _ = integrate_new_model(pool, pipe.graph, new, pipe.spec, counted, trained=trained)
    profile = grown.get(new.id)
    return {"sha256": _sha(profile.to_dict()), "vector": profile.vector.tolist(), "calls": calls}


def _reports(config: Path, args: list[str], out: Path) -> tuple[dict, dict]:
    """The SHA-256 of the JSON and CSV report of ``coldroute eval ARGS``, and
    of each top-level field of the JSON report."""
    with contextlib.redirect_stdout(io.StringIO()):  # keep stdout for the fingerprint
        status = cli(["eval", *args, "--config", str(config), "--out", str(out)])
    if status != 0:
        raise SystemExit(f"eval {' '.join(args)} failed")
    paths = [out.with_suffix(".json"), out.with_suffix(".csv")]
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    report = json.loads(paths[0].read_text())
    fields = {f"{paths[0].name}:{key}": _sha({key: value}) for key, value in report.items()}
    return files, fields


def fingerprint(seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        serve = serve_inputs(seed, work / "serve")
        evals = eval_inputs(seed, work / "eval")
        reports, fields = {}, {}
        runs = [(evals.coldstart_config, ["coldstart", "--spec", spec],
                 work / f"coldstart-{spec.replace(':', '')}") for spec in ("emb:2", "train:2")]
        runs += [(evals.integrate_config, ["integrate", "--router", kind, "--spec", "emb:2"],
                  work / name)
                 for kind, name in (("graphrouter", "integrate"), ("mlp", "integrate-mlp"))]
        for run in runs:
            files, keys = _reports(*run)
            reports.update(files)
            fields.update(keys)
        return {
            "serve/graphrouter": _router(serve.config, "graphrouter",
                                         [q for q, _, _ in serve.queries]),
            "serve/replies": _replies(serve.config, serve.queries),
            "integrate/graphrouter": _router(evals.integrate_config, "graphrouter"),
            "integrate/mlp": _router(evals.integrate_config, "mlp"),
            "coldstart/train:2": _profiles(evals.coldstart_config, "train:2"),
            "coldstart/emb:2": _profiles(evals.coldstart_config, "emb:2"),
            **{f"admit/{spec}": _admitted(evals.integrate_config, spec) for spec in ADMIT_SPECS},
            "reports": reports,
            "report fields": fields,
        }


def compare(now: dict, before: dict) -> bool:
    """Print one line per part; True when every part agrees within TOLERANCE."""
    ok = True
    for seed in sorted(now, key=int):
        for part in sorted(now[seed]):
            a, b = now[seed][part], before.get(seed, {}).get(part)
            if b is None:
                print(f"seed {seed} {part}: not in the earlier output")
                ok = False
            elif part in HASHED_PARTS:
                moved = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
                ok = ok and not moved
                print(f"seed {seed} {part}: {'DIFFER: ' + ', '.join(moved) if moved else 'identical'}")
            else:
                va, vb = np.asarray(a["vector"]), np.asarray(b["vector"])
                delta = float(np.max(np.abs(va - vb), initial=0.0)) if va.shape == vb.shape else np.inf
                ok = ok and delta <= TOLERANCE
                same = "byte-identical" if a["sha256"] == b["sha256"] else "hash differs"
                calls = "".join(f"; {name} {b.get('calls', {}).get(name, '?')} -> {count}"
                                for name, count in a.get("calls", {}).items())
                print(f"seed {seed} {part}: {same}, max |Δ| = {delta:.3g} over {va.size} values"
                      f"{calls}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--against", type=Path, help="an earlier output to compare with")
    args = parser.parse_args(argv)
    now = {str(seed): fingerprint(seed) for seed in args.seeds}
    if args.against is None:
        print(json.dumps(now, sort_keys=True))
        return 0
    return 0 if compare(now, json.loads(args.against.read_text())) else 1


if __name__ == "__main__":
    sys.exit(main())
