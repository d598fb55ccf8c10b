"""Text feature providers: encoders and summarizers.

Two families of backends share each contract:

* ``DeterministicEmbedder`` / ``EchoSummarizer`` run offline with no
  dependencies and are bitwise reproducible — the default for tests,
  fixtures, and any config that does not name an endpoint.
* ``RemoteEmbedder`` / ``RemoteSummarizer`` speak the common JSON-over-HTTP
  embeddings / chat shapes (``POST /v1/embeddings``, ``POST
  /v1/chat/completions`` at temperature 0) with retry, backoff, an
  in-flight cap, and an optional on-disk response cache, over the
  standard library's ``urllib.request``.  The embedder
  sends ``batch_size`` texts per request and the summarizer one prompt;
  each batch call keeps up to ``max_in_flight`` requests open at once.

Every encoder returns unit-norm vectors (zero vector for empty text) so
cosine scores and linear propagation mix features on a common scale.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import re
import threading
import time
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, TypeVar

import numpy as np

from . import records
from .errors import (
    DimensionMismatch,
    EmptyText,
    EncoderFailure,
    ProviderTimeout,
    SummarizerFailure,
    TransportError,
)
from .graph import EvidenceGraph, NodeKind

if TYPE_CHECKING:  # loaded on the first remote request: offline commands never need it
    import urllib.request


# Inputs are capped at a byte length before encoding/summarizing; the cap is
# generous (model cards are short) and applied at a UTF-8 boundary.
DEFAULT_MAX_BYTES = 1 << 15

T = TypeVar("T")  # what a provider reply parses to


def _truncate_utf8(text: str, max_bytes: int) -> str:
    raw = text.encode("utf-8")
    if len(raw) <= max_bytes:
        return text
    return raw[:max_bytes].decode("utf-8", errors="ignore")


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens: the runs of alphanumeric characters (``str.isalnum``)."""
    return re.findall(r"[^\W_]+", text.lower())


class TextEncoder:
    """Contract: ``encode(text)`` -> unit-norm float64 vector of size ``dim``."""

    dim: int

    def encode(self, text: str) -> np.ndarray:
        raise NotImplementedError

    def encode_batch(self, texts: list[str]) -> list[np.ndarray]:
        return [self.encode(t) for t in texts]


class Summarizer:
    """Contract: ``summarize(prompt)`` -> UTF-8 text, deterministic per prompt."""

    def summarize(self, prompt: str) -> str:
        raise NotImplementedError

    def summarize_batch(self, prompts: list[str]) -> list[str]:
        return [self.summarize(p) for p in prompts]


# --- offline backends ------------------------------------------------------

class DeterministicEmbedder(TextEncoder):
    """Hash-seeded pseudorandom projection of token counts.

    Each token maps to a fixed Gaussian direction drawn from a generator
    seeded by blake2b(seed, token), so unseen texts — new model cards — get
    stable embeddings without any lookup table.  The bag-of-tokens sum is
    L2-normalized; empty text maps to the zero vector.
    """

    def __init__(self, dim: int = 64, seed: int = 0, max_bytes: int = DEFAULT_MAX_BYTES):
        self.dim = int(dim)
        self.seed = int(seed)
        self.max_bytes = int(max_bytes)
        self._token_cache: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()

    def _token_vector(self, token: str) -> np.ndarray:
        with self._lock:
            vec = self._token_cache.get(token)
        if vec is not None:
            return vec
        digest = hashlib.blake2b(
            f"{self.seed}\x1f{token}".encode("utf-8"), digest_size=8
        ).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "big"))
        vec = rng.standard_normal(self.dim)
        with self._lock:
            self._token_cache.setdefault(token, vec)
        return vec

    def encode(self, text: str) -> np.ndarray:
        counts = Counter(tokenize(_truncate_utf8(text, self.max_bytes)))
        acc = np.zeros(self.dim)
        for token, count in counts.items():
            acc += count * self._token_vector(token)
        norm = np.linalg.norm(acc)
        if norm == 0.0:
            return np.zeros(self.dim)
        return acc / norm


class EchoSummarizer(Summarizer):
    """Test double and offline default: returns the prompt verbatim.

    Useful because the rendered prompt already contains the self id, every
    neighbor id exactly once, and the neighbors' previous-hop texts — so
    repeated hops gather exactly the reachable ids, which the
    reachability checks inspect.  The output grows hop over hop (each
    text embeds its neighbors' whole previous texts), so it is a test
    double, not a model of what a real summarizer costs.
    """

    def summarize(self, prompt: str) -> str:
        return prompt


# --- remote backends -------------------------------------------------------

@dataclass
class _HttpJson:
    """Shared POST-JSON plumbing: retries, backoff, cap, optional disk cache.

    Each request opens its own connection through ``urllib.request``, with
    the proxies of the environment as they were at the client's first
    request (``http_proxy`` / ``https_proxy`` / ``all_proxy``; ``no_proxy``
    is read at each request).  HTTPS certificates are checked against the
    system's trusted ones.
    """

    api_key: str | None = None
    timeout: float = 30.0
    retries: int = 3
    backoff: float = 0.5
    max_in_flight: int = 4
    cache_dir: str | None = None
    _gate: threading.Semaphore = field(init=False, repr=False)
    _opener: urllib.request.OpenerDirector | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        records.at_least("max_in_flight", self.max_in_flight, 1)
        records.at_least("retries", self.retries, 0)
        records.at_least("timeout", self.timeout, 0.0, above=True)
        records.at_least("backoff", self.backoff, 0.0)
        self._gate = threading.Semaphore(self.max_in_flight)

    def _cache_path(self, url: str, payload: dict) -> Path | None:
        if not self.cache_dir:
            return None
        key = hashlib.sha256(
            records.dumps({"url": url, "payload": payload}).encode()
        ).hexdigest()
        return Path(self.cache_dir) / f"{key}.json"

    def post(self, url: str, payload: dict, parse: Callable[[dict], T]) -> T:
        """``parse`` of the provider's JSON-object reply.  A reply is cached only
        once ``parse`` accepts it, and a cached entry it rejects is a miss."""
        cache = self._cache_path(url, payload)
        if cache is not None and (cached := _read_cache(cache, parse)) is not None:
            return cached

        raw = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                with self._gate:
                    status, data = self._open(url, raw, headers)
            except (ProviderTimeout, TransportError) as exc:
                last = exc
                continue
            if status >= 500 or status == 429:
                last = TransportError(f"status {status}", status)
                continue
            if status != 200:
                raise TransportError(f"status {status}", status)
            try:
                body = json.loads(data)
            except ValueError as exc:
                raise TransportError(f"provider reply is not JSON: {exc}", 200) from exc
            if not isinstance(body, dict):
                raise TransportError("provider reply is not a JSON object", 200)
            result = parse(body)
            if cache is not None:
                try:
                    cache.parent.mkdir(parents=True, exist_ok=True)
                    records.write_atomic(cache, records.dumps(body), durable=False)
                except OSError:
                    pass  # the reply has arrived; an entry not written is a later miss
            return result
        assert last is not None
        raise last

    def map(self, call: Callable, items: list) -> list:
        """``call(item)`` for each item in order, up to ``max_in_flight`` at once; the first
        failure in input order is raised.  One item starts no thread.  Plain threads, since
        ``concurrent.futures`` imports ``logging``, which every process would pay for."""
        width = min(self.max_in_flight, len(items))
        if width < 2:
            return [call(item) for item in items]
        results: list = [None] * len(items)
        failures: dict[int, Exception] = {}
        pending = iter(enumerate(items))
        lock = threading.Lock()

        def work() -> None:
            while not failures:
                with lock:
                    index, item = next(pending, (None, None))
                if index is None:
                    return
                try:
                    results[index] = call(item)
                except Exception as exc:  # noqa: BLE001 - raised below, in input order
                    failures[index] = exc

        workers = [threading.Thread(target=work) for _ in range(width)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        if failures:
            raise failures[min(failures)]
        return results

    def _open(self, url: str, raw: bytes, headers: dict) -> tuple[int, bytes]:
        """(status, body) of one POST on a connection of its own.

        A reply outside 2xx is returned, not raised.  A timeout raises
        ``ProviderTimeout``, any other socket, HTTP or request error
        ``TransportError``.
        """
        import http.client
        import urllib.error
        import urllib.request

        if url.partition("://")[0].lower() not in ("http", "https"):
            raise TransportError(f"provider URL must be http(s)://...: {url!r}")
        if self._opener is None:
            proxies = urllib.request.getproxies()
            if "all" in proxies:  # all_proxy serves a scheme that has no proxy of its own
                proxies = {"http": proxies["all"], "https": proxies["all"], **proxies}
            self._opener = urllib.request.build_opener(urllib.request.ProxyHandler(proxies))
        request = urllib.request.Request(url, raw, headers, method="POST")
        try:
            with self._opener.open(request, timeout=self.timeout) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            return exc.code, b""
        except (OSError, ValueError, http.client.HTTPException) as exc:  # ValueError: a bad header
            reason = exc.reason if isinstance(exc, urllib.error.URLError) else exc
            if isinstance(reason, TimeoutError):
                raise ProviderTimeout(str(reason)) from exc
            raise TransportError(f"{type(exc).__name__}: {exc}") from exc


def _read_cache(path: Path, parse: Callable[[dict], T]) -> T | None:
    """``parse`` of a cached reply, or None when the entry is missing, unreadable or malformed."""
    try:
        return parse(json.loads(path.read_text()))
    except (OSError, ValueError, TransportError, SummarizerFailure):
        return None


def remote_options(cls) -> set[str]:
    """The keys a ``remote`` provider's config may hold besides its kind: the
    keyword options of ``cls`` (a remote provider class) and of its HTTP client."""
    own = set(inspect.signature(cls).parameters) - {"dim", "http_kwargs"}
    return own | set(inspect.signature(_HttpJson).parameters)


class RemoteEmbedder(TextEncoder):
    """OpenAI-style ``POST /v1/embeddings`` client, renormalized locally."""

    def __init__(
        self,
        url: str,
        dim: int,
        model: str = "default",
        api_key: str | None = None,
        batch_size: int = 64,
        max_bytes: int = DEFAULT_MAX_BYTES,
        **http_kwargs,
    ):
        records.at_least("batch_size", batch_size, 1)
        records.at_least("max_bytes", max_bytes, 1)
        self.url = url.rstrip("/")
        self.dim = int(dim)
        self.model = model
        self.max_bytes = max_bytes
        self.batch_size = batch_size
        self._http = _HttpJson(api_key=api_key, **http_kwargs)

    def encode(self, text: str) -> np.ndarray:
        return self.encode_batch([text])[0]

    def encode_batch(self, texts: list[str]) -> list[np.ndarray]:
        """One request per ``batch_size`` texts, up to ``max_in_flight`` at once."""
        chunks = [texts[i : i + self.batch_size] for i in range(0, len(texts), self.batch_size)]
        return [vec for vectors in self._http.map(self._encode_chunk, chunks) for vec in vectors]

    def _encode_chunk(self, chunk: list[str]) -> list[np.ndarray]:
        """The unit-norm vectors of one request."""
        inputs = [_truncate_utf8(t, self.max_bytes) for t in chunk]
        payload = {"input": inputs, "model": self.model}
        return self._http.post(self.url, payload, lambda body: self._vectors(body, len(inputs)))

    def _vectors(self, body: dict, count: int) -> list[np.ndarray]:
        """The unit-norm vectors of a reply.  A reply that is not one row per
        input, indexed 0..count-1, of ``dim`` finite numbers raises ``TransportError``."""
        try:
            rows = sorted(body["data"], key=lambda row: row["index"])
            if [row["index"] for row in rows] != list(range(count)):
                raise ValueError(f"row indexes for {count} inputs")
            vectors = [np.asarray(row["embedding"], dtype=np.float64) for row in rows]
            if not all(vec.ndim == 1 and np.isfinite(vec).all() for vec in vectors):
                raise ValueError("an embedding that is not a list of finite numbers")
            if wrong := [vec.shape[0] for vec in vectors if vec.shape != (self.dim,)]:
                raise ValueError(f"an embedding of {wrong[0]} numbers, expected {self.dim}")
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError(f"malformed embeddings reply: {exc!r}", 200) from None
        return [vec / n if (n := np.linalg.norm(vec)) > 0 else np.zeros(self.dim) for vec in vectors]


def _chat_text(body: dict) -> str:
    try:
        text = body["choices"][0]["message"]["content"]
        if not isinstance(text, str):
            raise TypeError("content is not text")
    except (KeyError, IndexError, TypeError) as exc:
        cause = TransportError(f"malformed chat reply: {type(exc).__name__}: {exc}", 200)
        raise SummarizerFailure("<remote>", cause) from cause
    return text


class RemoteSummarizer(Summarizer):
    """OpenAI-style ``POST /v1/chat/completions`` client at temperature 0."""

    def __init__(
        self,
        url: str,
        model: str = "default",
        api_key: str | None = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
        **http_kwargs,
    ):
        records.at_least("max_bytes", max_bytes, 1)
        self.url = url.rstrip("/")
        self.model = model
        self.max_bytes = max_bytes
        self._http = _HttpJson(api_key=api_key, **http_kwargs)

    def summarize(self, prompt: str) -> str:
        """The reply's text; a malformed reply is ``SummarizerFailure`` from ``TransportError``."""
        payload = {
            "model": self.model,
            "temperature": 0,
            "messages": [{"role": "user", "content": _truncate_utf8(prompt, self.max_bytes)}],
        }
        return self._http.post(self.url, payload, _chat_text)

    def summarize_batch(self, prompts: list[str]) -> list[str]:
        """One request per prompt, up to ``max_in_flight`` at once; replies in prompt order."""
        return self._http.map(self.summarize, prompts)


# --- bundle and graph encoding --------------------------------------------

@dataclass
class Providers:
    """The encoder + summarizer pair threaded through profile construction."""

    encoder: TextEncoder
    summarizer: Summarizer

    @classmethod
    def deterministic(cls, dim: int = 64, seed: int = 0) -> "Providers":
        return cls(DeterministicEmbedder(dim=dim, seed=seed), EchoSummarizer())


def encode_all(
    graph: EvidenceGraph, encoder: TextEncoder, texts: Sequence[str] = ()
) -> list[np.ndarray]:
    """Set each unset (NaN) row of ``graph.features`` to its node text's ``encoder``
    vector, and return the vectors of ``texts``.

    Non-query nodes must carry text; query nodes use their raw query text
    as-is.  Every unset node is checked before the first request, then
    their texts, ``texts`` last, go through one ``encoder.encode_batch``
    call; with nothing to encode there is no call.  Rows are set only once
    every vector has the graph's dimension and finite entries; rows
    already set are never re-encoded.
    """
    rows = np.flatnonzero(np.isnan(graph.features).any(axis=1))
    nodes = [graph.node(graph.ids[row]) for row in rows]
    for node in nodes:
        if node.kind is not NodeKind.QUERY and not node.text.strip():
            raise EmptyText(node.id)
    names = [node.id for node in nodes] + [f"text {i}" for i in range(len(texts))]
    if not names:
        return []
    try:
        vectors = encoder.encode_batch([node.text for node in nodes] + list(texts))
        if len(vectors) != len(names):
            raise ValueError(f"{len(vectors)} vectors for {len(names)} texts")
    except Exception as exc:  # noqa: BLE001 - boundary translation
        raise EncoderFailure(names[0] if len(names) == 1 else f"{len(names)} texts", exc) from exc
    vectors = [np.asarray(vec, dtype=np.float64) for vec in vectors]
    for name, vec in zip(names, vectors):
        if vec.shape != (graph.dim,):
            raise EncoderFailure(name, DimensionMismatch(graph.dim, int(vec.shape[0]), "encode_all"))
        if not np.isfinite(vec).all():
            raise EncoderFailure(name, "non-finite entries")
    if nodes:
        graph.features[rows] = vectors[: len(nodes)]
    return vectors[len(nodes) :]
