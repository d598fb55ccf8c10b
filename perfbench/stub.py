"""Stub remote provider: OpenAI-shaped embeddings and chat completions.

It runs on a thread of the benchmark's own process and answers
deterministically:

* ``POST /v1/embeddings`` returns, for each input text, a Gaussian vector
  drawn from a generator seeded by ``blake2b(seed, text)``;
* ``POST /v1/chat/completions`` returns a summary of bounded length built
  from the heads (id, kind, score) of the prompt's neighbor lines, so
  prompts do not grow hop over hop the way ``EchoSummarizer`` output does.

Every request sleeps ``delay_s`` before answering, so a round trip weighs
as it does against a remote provider.  The stub counts requests, inputs,
prompt bytes and the peak number of requests in flight, and remembers,
per node, the neighbor ids of its round-1 prompt and its last summary:
the output checks read those.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

DELAY_S = 0.002
SUMMARY_HEADS = 12  # neighbor heads kept per summary

_HEADER = re.compile(r"Capability card refresh for (\S+) \(kind: [^,]+, round (\d+)\)\.")
_NEIGHBOR = re.compile(r"^- (\S+) \(([^,)]+)(?:, score ([0-9.]+))?\): ", re.MULTILINE)


def stub_embedding(text: str, dim: int, seed: int) -> np.ndarray:
    """The raw (unnormalized) vector the stub returns for ``text``."""
    digest = hashlib.blake2b(f"{seed}\x1f{text}".encode("utf-8"), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "big")).standard_normal(dim)


def stub_summary(prompt: str) -> tuple[str | None, int, str]:
    """(node id, round, summary) for a text-propagation prompt."""
    header = _HEADER.search(prompt)
    node_id, hop = (header.group(1), int(header.group(2))) if header else (None, 0)
    heads = [
        f"{nb} {kind}" + (f" {score}" if score else "")
        for nb, kind, score in _NEIGHBOR.findall(prompt)
    ]
    shown = heads[:SUMMARY_HEADS]
    more = f" and {len(heads) - len(shown)} more" if len(heads) > len(shown) else ""
    return node_id, hop, f"{node_id} round {hop} draws on {'; '.join(shown)}{more}."


class StubProvider:
    """Threaded stub server plus its counters; use as a context manager."""

    def __init__(self, dim: int, seed: int = 0, delay_s: float = DELAY_S):
        self.dim = dim
        self.seed = seed
        self.delay_s = delay_s
        self._lock = threading.Lock()
        self.counts = {"embed_requests": 0, "embed_inputs": 0, "chat_requests": 0,
                       "prompt_bytes": 0, "in_flight_max": 0}
        self._in_flight = 0
        self.hop1_neighbors: dict[str, list[str]] = {}
        self.last_summary: dict[str, str] = {}
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.counts)

    def forget(self, node_id: str) -> None:
        """Drop what was seen for ``node_id`` and restart the in-flight peak."""
        with self._lock:
            self.hop1_neighbors.pop(node_id, None)
            self.last_summary.pop(node_id, None)
            self.counts["in_flight_max"] = self._in_flight

    def __enter__(self) -> "StubProvider":
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._server.daemon_threads = True
        self._server.stub = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)

    # -- request handling --

    def _enter(self) -> None:
        with self._lock:
            self._in_flight += 1
            self.counts["in_flight_max"] = max(self.counts["in_flight_max"], self._in_flight)

    def _leave(self) -> None:
        with self._lock:
            self._in_flight -= 1

    def embeddings(self, body: dict) -> dict:
        texts = body["input"]
        with self._lock:
            self.counts["embed_requests"] += 1
            self.counts["embed_inputs"] += len(texts)
        data = [
            {"index": i, "embedding": stub_embedding(t, self.dim, self.seed).tolist()}
            for i, t in enumerate(texts)
        ]
        return {"data": data}

    def chat(self, body: dict) -> dict:
        prompt = body["messages"][-1]["content"]
        node_id, hop, summary = stub_summary(prompt)
        with self._lock:
            self.counts["chat_requests"] += 1
            self.counts["prompt_bytes"] += len(prompt.encode("utf-8"))
            if node_id is not None:
                if hop == 1:
                    self.hop1_neighbors[node_id] = [nb for nb, _, _ in _NEIGHBOR.findall(prompt)]
                self.last_summary[node_id] = summary
        return {"choices": [{"message": {"role": "assistant", "content": summary}}]}


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, fmt, *args):  # quiet
        pass

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        stub: StubProvider = self.server.stub  # type: ignore[attr-defined]
        stub._enter()
        try:
            body = json.loads(self.rfile.read(int(self.headers.get("Content-Length") or 0)))
            time.sleep(stub.delay_s)
            if self.path.endswith("/v1/embeddings"):
                payload = stub.embeddings(body)
            elif self.path.endswith("/v1/chat/completions"):
                payload = stub.chat(body)
            else:
                self.send_error(404)
                return
        finally:
            stub._leave()
        raw = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)
