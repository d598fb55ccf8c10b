"""HTTP routing service.

Endpoints:

* ``POST /route``   ``{"query_text": ..., "task_id"?: ...}`` → the chosen
  model id plus per-candidate scores.
* ``POST /models``  a model-card JSON body → integrates the model into the
  frozen pool (no router parameter change) and returns the new pool.
* ``GET /pool``     current pool ids, profile spec, and router checksum.
* ``GET /healthz``  liveness and version.

Routing is side-effect free; registration is serialized behind a lock and
persists the pool (plus the registered cards) to a JSON snapshot, written
atomically and reloaded on startup for crash recovery.  A snapshot that
cannot be read, or that holds profiles of another spec or dimension than
the config's, stops start-up with ``ConfigError``.  A card is validated
before it touches the graph, and a registration that fails later, the
state write included, leaves the graph and the pool as they were.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from . import __version__, records
from .config import AppConfig, Pipeline
from .errors import (
    ColdRouteError,
    ConfigError,
    DuplicateId,
    ProviderTimeout,
    TransportError,
)
from .graph import ModelCard, add_model_node, parse_card, remove_node
from .providers import encode_all
from .routers import CandidatePool, integrate_new_model, router_checksum

__all__ = ["RoutingService", "make_server", "serve"]

# the largest request body read; a longer declared Content-Length gets 413 unread
MAX_BODY_BYTES = 1 << 20


class RoutingService:
    """In-memory pipeline state behind the HTTP endpoints."""

    def __init__(self, cfg: AppConfig):
        self.cfg = cfg
        pipe = Pipeline(cfg)
        self.providers, self.spec, self.templates = pipe.providers, pipe.spec, pipe.templates
        self.graph = pipe.graph
        self.trained = pipe.aggregator
        self.pool = pipe.pool(pipe.pool_ids())
        # fit on the configured pool, as before the restart: recovery adds to the pool
        self.router = pipe.router(cfg.router, self.pool)
        self._registered: list[dict] = []
        self._recover_state(pipe)
        self._route_ids = itertools.count(1)  # next() on a count is atomic
        self._write_lock = threading.Lock()

    # -- persistence --

    def _recover_state(self, pipe: Pipeline) -> None:
        """Resume the pool and the registered cards of the state file, if there is one.

        A file that cannot be read, or that holds profiles of another spec
        or dimension than the config's, raises ``ConfigError``.
        """
        path = self.cfg.state_path
        if not path or not Path(path).exists():
            return
        pool, entries, cards = records.read(path, "doc", None, _parse_state)
        pipe.check_pool(pool, f"state file {path}")
        for card in cards:
            if card.id not in self.graph:
                add_model_node(self.graph, card)
        encode_all(self.graph, self.providers.encoder, only_missing=True)
        self.pool = pool
        self._registered = entries

    def _persist(self, registered: list[dict]) -> None:
        if not self.cfg.state_path:
            return
        state = {"registered_cards": registered, "pool": self.pool.to_dict()}
        records.write_atomic(Path(self.cfg.state_path), records.dumps(state), durable=True)

    # -- operations --

    def checksum(self) -> str:
        return router_checksum(self.router)

    def route(self, query_text: str, task_id: str | None = None) -> dict:
        if not isinstance(query_text, str) or not query_text.strip():
            raise ConfigError("query_text must be a nonempty string")
        vec = np.asarray(self.providers.encoder.encode(query_text))
        decision = self.router.route(
            vec, self.pool, query_id=f"srv_{next(self._route_ids):06d}", task_id=task_id
        )
        return {"model_id": decision.chosen, "scores": decision.to_dict()["scores"]}

    def register(self, entry: dict) -> dict:
        card = parse_card(entry)
        with self._write_lock:
            integrate_new_model(
                self.router, self.pool, self.graph, card, self.spec, self.providers,
                trained=self.trained, templates=self.templates,
            )
            try:
                self._persist([*self._registered, entry])
            except BaseException:
                self.pool.remove(card.id)
                remove_node(self.graph, card.id)
                raise
            self._registered.append(entry)
        return self.pool_info()

    def pool_info(self) -> dict:
        return {
            "models": self.pool.ids,
            "spec": self.spec.short(),
            "router": self.cfg.router,
            "checksum": self.checksum(),
        }


def _parse_state(state: dict) -> tuple[CandidatePool, list[dict], list[ModelCard]]:
    state = records.check(state, {"pool": dict, "registered_cards": list | None})
    entries = state.get("registered_cards") or []
    return CandidatePool.from_dict(state["pool"]), entries, [parse_card(e) for e in entries]


class _BodyTooLarge(ConfigError):
    pass


def _status_for(exc: Exception) -> int:
    if isinstance(exc, _BodyTooLarge):
        return 413
    seen: Exception | None = exc
    while seen is not None:
        if isinstance(seen, (TransportError, ProviderTimeout)):
            return 503
        if isinstance(seen, DuplicateId):
            return 409
        seen = seen.__cause__
    if isinstance(exc, ColdRouteError):
        return 400
    return 500


class _Handler(BaseHTTPRequestHandler):
    server_version = f"coldroute/{__version__}"

    def log_message(self, fmt, *args):  # quiet by default
        pass

    @property
    def service(self) -> RoutingService:
        return self.server.service  # type: ignore[attr-defined]

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> dict:
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:  # before any read: read(-1) would wait until the client hangs up
            raise ConfigError(f"Content-Length must be a byte count, got {declared!r}")
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(f"request body of {length} bytes is over {MAX_BODY_BYTES}")
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw.decode("utf-8") or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError("request body must be a JSON object")
        return payload

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            if self.path == "/healthz":
                self._reply(200, {"status": "ok", "version": __version__})
            elif self.path == "/pool":
                self._reply(200, self.service.pool_info())
            else:
                self._reply(404, {"error": f"no such path: {self.path}"})
        except Exception as exc:  # noqa: BLE001 - boundary translation
            self._reply(_status_for(exc), {"error": str(exc)})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            if self.path == "/route":
                body = self._body()
                if "query_text" not in body:
                    raise ConfigError("route body needs query_text")
                result = self.service.route(body["query_text"], body.get("task_id"))
                self._reply(200, result)
            elif self.path == "/models":
                result = self.service.register(self._body())
                self._reply(200, result)
            else:
                self._reply(404, {"error": f"no such path: {self.path}"})
        except Exception as exc:  # noqa: BLE001 - boundary translation
            self._reply(_status_for(exc), {"error": str(exc)})


def _one_malloc_arena() -> None:
    """Have glibc serve every thread of this process from one malloc arena.

    ``ThreadingHTTPServer`` starts a thread per request, and under fast
    back-to-back requests the next thread starts while the last is still
    exiting; glibc then opens another per-thread arena, and each one holds
    on to freed memory, so resident memory grows with request speed.  The
    request threads take turns under the interpreter lock anyway, so they
    seldom wait for the one arena's lock.  Does nothing where the C
    library is not glibc.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(-8, 1)  # M_ARENA_MAX from <malloc.h>


def make_server(cfg: AppConfig) -> ThreadingHTTPServer:
    """Bound server with the service attached; call ``serve_forever`` to run."""
    _one_malloc_arena()
    service = RoutingService(cfg)
    httpd = ThreadingHTTPServer((cfg.host, cfg.port), _Handler)
    httpd.service = service  # type: ignore[attr-defined]
    return httpd


def serve(cfg: AppConfig) -> None:
    httpd = make_server(cfg)
    host, port = httpd.server_address[:2]
    print(f"coldroute service on http://{host}:{port} (pool of {len(httpd.service.pool)})")
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
