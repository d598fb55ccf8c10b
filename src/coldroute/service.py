"""HTTP routing service.

Endpoints:

* ``POST /route``   ``{"query_text": ..., "task_id"?: ...}`` → the chosen
  model id plus per-candidate scores.
* ``POST /models``  a model-card JSON body → integrates the model into the
  frozen pool (no router parameter change) and returns the new pool.
* ``GET /pool``     current pool ids, profile spec, and router checksum.
* ``GET /healthz``  liveness and version.

Routing is side-effect free; registration is serialized behind a lock.
Start-up recovery and registration go through ``config.PoolState``, as
``coldroute integrate`` does: the pool and the registered cards persist
atomically and durably to the state file, and a file it refuses stops
start-up with ``ConfigError``.  A pool never changes: registration
publishes the grown pool once the state file names the model, so no
route or ``/pool`` reply names a model not yet admitted, and a
registration refused before that leaves the graph and the pool as they
were.  The router checksum is taken at start and after each registration.

Each connection is served on a request thread, which then waits for the
next connection; a new thread starts only when none is idle, so no
request waits behind a busy one.  A connection that sends nothing for
``READ_TIMEOUT_S`` is closed (408 once its head is read), so a stalled
client holds no thread for long.  The listen backlog is ``SOMAXCONN``.

The service reads each request head itself (``_Handler.parse_request``),
with the request-line rules, refusals and limits of the standard
library's ``BaseHTTPRequestHandler`` but without its ``email`` header
parser; the two header lines that parser tolerates, one without a
``name:`` and a folded continuation line, get 400.  It answers in
HTTP/1.0 and closes each connection after its reply.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import re
import socket
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np

from . import __version__
from .config import AppConfig, Pipeline, PoolState
from .errors import (
    ColdRouteError,
    ConfigError,
    DuplicateId,
    ProviderTimeout,
    TransportError,
)
from .graph import parse_card
from .routers import router_checksum


# the largest request body read; a longer declared Content-Length gets 413 unread
MAX_BODY_BYTES = 1 << 20
# seconds a connection may send nothing before it is closed, as a remote provider's default
READ_TIMEOUT_S = 30.0
# as the standard library's http.client: the longest header line, the most lines in a head
_MAX_LINE = 65536
_MAX_HEADERS = 100
_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})", re.ASCII)
_NAME = re.compile(r"[!-~]+")  # a header name: visible ASCII, as the email parser reads one


class RoutingService:
    """In-memory pipeline state behind the HTTP endpoints."""

    def __init__(self, cfg: AppConfig):
        self.cfg = cfg
        pipe = Pipeline(cfg)
        self.providers, self.spec, self.graph = pipe.providers, pipe.spec, pipe.graph
        pool = pipe.pool(pipe.pool_ids())
        # fit on the configured pool, as before the restart: recovery adds to the pool
        self.router = pipe.router(cfg.router, pool)
        self.state = PoolState.recover(pipe, cfg.state_path, lambda: pool)
        self.checksum = router_checksum(self.router)
        self._route_ids = itertools.count(1)  # next() on a count is atomic
        self._write_lock = threading.Lock()

    def route(self, query_text: str, task_id: str | None = None) -> dict:
        if not isinstance(query_text, str) or not query_text.strip():
            raise ConfigError("query_text must be a nonempty string")
        if task_id is not None and not isinstance(task_id, str):
            raise ConfigError("task_id must be a string")
        vec = np.asarray(self.providers.encoder.encode(query_text))
        decision = self.router.route(
            vec, self.state.pool, query_id=f"srv_{next(self._route_ids):06d}", task_id=task_id
        )
        return {"model_id": decision.chosen, "scores": decision.scores}  # sorted in the reply

    def register(self, entry: dict) -> dict:
        card = parse_card(entry)
        with self._write_lock:
            try:
                self.state.admit(card)
            finally:  # taken again, not carried over: a registration that touched weights shows
                self.checksum = router_checksum(self.router)
            return self.pool_info()

    def pool_info(self) -> dict:
        return {
            "models": self.state.pool.ids,
            "spec": self.spec.short(),
            "router": self.cfg.router,
            "checksum": self.checksum,
        }


class _BodyTooLarge(ConfigError):
    pass


class _BodyTimeout(ConfigError):
    pass


def _status_for(exc: Exception) -> int:
    if isinstance(exc, _BodyTooLarge):
        return 413
    if isinstance(exc, _BodyTimeout):
        return 408
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


class _Headers(dict):
    """Request headers by lower-cased name; of a repeated name the first value
    is kept, as ``email.message.Message.get`` returns it."""

    def get(self, name: str, default=None):
        return super().get(name.lower(), default)


class _Handler(BaseHTTPRequestHandler):
    server_version = f"coldroute/{__version__}"

    def log_message(self, fmt, *args):  # quiet by default
        pass

    def setup(self) -> None:
        self.timeout = READ_TIMEOUT_S  # read per connection
        super().setup()

    def parse_request(self) -> bool:
        """``BaseHTTPRequestHandler.parse_request`` without the ``email`` parser.

        The request line follows the standard library's rules and messages.
        Header lines end in CRLF or LF and are read as ISO-8859-1; one that
        does not start with a name of visible ASCII and a colon (a folded
        line among them) gets 400.  ``Connection`` and ``Expect`` are not read: the service
        answers in HTTP/1.0 and closes every connection.
        """
        self.command = None  # set in case of error on the first line
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = _VERSION.fullmatch(words[-1])
            if version is None:
                self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request version ({words[-1]!r})")
                return False
            if (int(version[1]), int(version[2])) >= (2, 0):
                self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                                f"Invalid HTTP version ({words[-1][5:]})")
                return False
            self.request_version = words[-1]
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request syntax ({self.requestline!r})")
            return False
        self.command, self.path = words[:2]
        if len(words) == 2 and self.command != "GET":
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad HTTP/0.9 request type ({self.command!r})")
            return False
        if self.path.startswith("//"):  # not read as a host, as by the standard library
            self.path = "/" + self.path.lstrip("/")

        self.headers, bad, lines = _Headers(), None, 0
        while True:  # the whole head is read before a bad line is refused, as the stdlib does
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Line too long",
                                f"got more than {_MAX_LINE} bytes when reading header line")
                return False
            lines += 1
            if lines > _MAX_HEADERS:
                self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Too many headers",
                                f"got more than {_MAX_HEADERS} headers")
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.decode("iso-8859-1").partition(":")
            if not colon or not _NAME.fullmatch(name):
                bad = bad or line
            else:
                self.headers.setdefault(name.lower(), value.lstrip(" \t").rstrip("\r\n"))
        if bad is not None:
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad header line ({bad!r})")
            return False
        return True

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
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError as exc:
            raise _BodyTimeout(f"the request body stalled for {READ_TIMEOUT_S} s") from exc
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

    Request threads are reused (``_Server``), but a registration under a
    remote provider still runs its calls on threads that
    ``providers._HttpJson.map`` starts for each batch.  glibc may open a
    new arena for such a thread, and each arena holds on to freed memory,
    so resident memory grows with the registrations served.  The threads
    take turns under the interpreter lock anyway, so they seldom wait for
    the one arena's lock.  Does nothing where the C library is not glibc.
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


class _Server(HTTPServer):
    """An ``HTTPServer`` that serves each connection on an idle request thread.

    A new thread starts only when none is idle, so no request waits behind
    a busy one, as under ``ThreadingHTTPServer``; but a thread is started
    once, not per connection, and ``Thread.start`` waits for the thread it
    starts.  After its connection a thread waits for the next one.
    ``server_close`` ends the idle threads; a busy one ends after its
    connection.  The listen backlog is the system's largest, so a burst
    of connections is not dropped while the threads accept it.
    """

    request_queue_size = socket.SOMAXCONN

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self._lock = threading.Lock()
        self._idle: list[queue.SimpleQueue] = []  # inboxes of the idle threads
        self._closed = False

    def process_request(self, request, client_address):
        with self._lock:  # the thread that went idle last takes the connection
            inbox = self._idle.pop() if self._idle else None
        if inbox is None:
            inbox = queue.SimpleQueue()
            threading.Thread(target=self._serve_inbox, args=(inbox,), daemon=True).start()
        inbox.put((request, client_address))

    def _serve_inbox(self, inbox: queue.SimpleQueue) -> None:
        while (connection := inbox.get()) is not None:
            try:
                try:
                    self.finish_request(*connection)
                except Exception:  # noqa: BLE001 - as socketserver.ThreadingMixIn
                    self.handle_error(*connection)
                with self._lock:  # idle before the client sees its connection close
                    if self._closed:
                        return
                    self._idle.append(inbox)
            finally:
                self.shutdown_request(connection[0])

    def server_close(self):
        super().server_close()
        with self._lock:
            self._closed, idle, self._idle = True, self._idle, []
        for inbox in idle:
            inbox.put(None)


def make_server(cfg: AppConfig) -> HTTPServer:
    """Bound server with the service attached; call ``serve_forever`` to run.

    Connections are served on request threads, each reused for the next
    connection once it is idle (see ``_Server``).
    """
    _one_malloc_arena()
    service = RoutingService(cfg)
    httpd = _Server((cfg.host, cfg.port), _Handler)
    httpd.service = service  # type: ignore[attr-defined]
    return httpd


def serve(cfg: AppConfig) -> None:
    httpd = make_server(cfg)
    host, port = httpd.server_address[:2]
    print(f"coldroute service on http://{host}:{port} (pool of {len(httpd.service.state.pool)})")
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
