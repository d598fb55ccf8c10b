"""HTTP routing service: endpoints, status codes, frozen-pool registration,
and crash recovery from the persisted state file."""

import contextlib
import http.client
import io
import json
import os
import re
import select
import socket
import stat
import subprocess
import sys
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import numpy as np
import pytest
import requests

import coldroute
from coldroute.config import AppConfig, PoolState
from coldroute.errors import (ConfigError, DuplicateId, EncoderFailure, SummarizerFailure,
                              TransportError)
from coldroute.providers import RemoteEmbedder, RemoteSummarizer, Summarizer, TextEncoder
from coldroute.routers import router_checksum
from coldroute import service as service_module
from coldroute.service import (MAX_BODY_BYTES, RoutingService, _Handler, _Server, _status_for,
                               make_server)

from conftest import FIXTURE_DIR, stub_url

CATALOG = ["model_00_00", "model_00_01", "model_01_00", "model_01_01"]

NEW_CARD = {
    "id": "model_01_02",
    "family_id": "fam_01",
    "description": "A code assistant focused on dependency upgrades and build scripts.",
    "scores": {"bench_01_a": 0.93},
}


def _config(router: str = "mlp", state_path=None, spec: str = "emb:2", dim: int = 64) -> AppConfig:
    return AppConfig(
        base_dir=FIXTURE_DIR,
        cards_dir=FIXTURE_DIR / "cards",
        dim=dim,
        spec=spec,
        router=router,
        interactions=FIXTURE_DIR / "interactions.jsonl",
        tasks=FIXTURE_DIR / "tasks.jsonl",
        hidden=16,
        port=0,  # ephemeral port for tests
        state_path=state_path,
    )


@pytest.fixture()
def server():
    started = []

    def start(cfg: AppConfig, patch=None) -> str:
        httpd = make_server(cfg)
        if patch is not None:
            patch(httpd.service)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        started.append((httpd, thread))
        host, port = httpd.server_address[:2]
        return f"http://{host}:{port}"

    yield start
    for httpd, thread in started:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


def test_healthz_and_pool(server):
    base = server(_config())
    health = requests.get(f"{base}/healthz").json()
    assert health == {"status": "ok", "version": coldroute.__version__}
    pool = requests.get(f"{base}/pool")
    assert pool.status_code == 200
    body = pool.json()
    assert body["models"] == CATALOG
    assert body["spec"] == "emb:2" and body["router"] == "mlp"
    assert len(body["checksum"]) == 64


def test_route_endpoint_and_input_validation(server):
    base = server(_config())
    ok = requests.post(f"{base}/route", json={"query_text": "Trace the segfault in the parser."})
    assert ok.status_code == 200
    body = ok.json()
    assert body["model_id"] in CATALOG and sorted(body["scores"]) == CATALOG

    assert requests.post(f"{base}/route", json={}).status_code == 400
    assert requests.post(f"{base}/route", json={"query_text": "   "}).status_code == 400
    assert requests.post(f"{base}/route", json=["not", "an", "object"]).status_code == 400
    raw = requests.post(f"{base}/route", data=b"{nope", headers={"Content-Type": "application/json"})
    assert raw.status_code == 400
    for task_id in (["task_00"], {"id": "task_00"}):
        bad_task = {"query_text": "Trace the segfault.", "task_id": task_id}
        assert requests.post(f"{base}/route", json=bad_task).status_code == 400


def test_unknown_paths_are_404(server):
    base = server(_config())
    assert requests.get(f"{base}/nothing").status_code == 404
    assert requests.post(f"{base}/nothing", json={}).status_code == 404


def test_graphrouter_service_requires_task(server):
    base = server(_config(router="graphrouter"))
    missing = requests.post(f"{base}/route", json={"query_text": "Sum the squares."})
    assert missing.status_code == 400
    with_task = requests.post(
        f"{base}/route", json={"query_text": "Sum the squares.", "task_id": "task_00"}
    )
    assert with_task.status_code == 200
    assert with_task.json()["model_id"] in CATALOG
    for task_id in (["task_00"], {"id": "task_00"}):
        bad_task = requests.post(
            f"{base}/route", json={"query_text": "Sum the squares.", "task_id": task_id}
        )
        assert bad_task.status_code == 400
        assert "task_id" in bad_task.json()["error"]


def test_routing_never_changes_pool_or_checksum(server):
    services = []
    base = server(_config(), patch=services.append)
    (service,) = services
    before = requests.get(f"{base}/pool").json()
    weights = router_checksum(service.router)
    for i in range(10):
        requests.post(f"{base}/route", json={"query_text": f"probe number {i}"})
    after = requests.get(f"{base}/pool").json()
    assert after == before
    # taken again: ``/pool`` replies with the checksum stored at start
    assert router_checksum(service.router) == weights


def test_register_grows_pool_keeps_router_frozen(server):
    base = server(_config())
    checksum = requests.get(f"{base}/pool").json()["checksum"]
    reply = requests.post(f"{base}/models", json=NEW_CARD)
    assert reply.status_code == 200
    body = reply.json()
    assert body["models"] == CATALOG + ["model_01_02"]
    assert body["checksum"] == checksum  # registration never touches weights
    # the new model is immediately scoreable
    scores = requests.post(
        f"{base}/route", json={"query_text": "Upgrade the lockfile safely."}
    ).json()["scores"]
    assert sorted(scores) == sorted(CATALOG + ["model_01_02"])


def test_register_duplicate_is_409_and_invalid_card_400(server):
    base = server(_config())
    assert requests.post(f"{base}/models", json=NEW_CARD).status_code == 200
    dup = requests.post(f"{base}/models", json=NEW_CARD)
    assert dup.status_code == 409
    missing_keys = requests.post(f"{base}/models", json={"id": "model_x"})
    assert missing_keys.status_code == 400
    unknown_family = dict(NEW_CARD, id="model_09_00", family_id="fam_missing")
    assert requests.post(f"{base}/models", json=unknown_family).status_code == 400


def test_state_file_recovers_registered_models(server, tmp_path):
    for router, hidden in (("mlp", 16), ("graphrouter", 64)):
        state = tmp_path / f"{router}.json"
        cfg = replace(_config(router=router, state_path=state), hidden=hidden)
        base = server(cfg)
        checksum = requests.post(f"{base}/models", json=NEW_CARD).json()["checksum"]
        saved = json.loads(state.read_text())
        assert [c["id"] for c in saved["registered_cards"]] == ["model_01_02"]

        # a fresh service over the same config resumes with the expanded pool and
        # the same router: it is fitted on the configured pool, as the first one was
        revived = RoutingService(cfg)
        assert revived.state.pool.ids == CATALOG + ["model_01_02"]
        assert revived.checksum == checksum, router
        decision = revived.route("Patch the build pipeline.", "task_01")
        assert sorted(decision["scores"]) == sorted(CATALOG + ["model_01_02"])


@pytest.mark.parametrize("spec, dim", [("flat", 64), ("emb:2", 32)])
def test_state_of_another_spec_or_dim_is_refused(tmp_path, spec, dim):
    state = tmp_path / "state.json"
    RoutingService(_config(router="sim", state_path=state)).register(NEW_CARD)
    with pytest.raises(ConfigError, match=str(state)):
        RoutingService(_config(router="sim", state_path=state, spec=spec, dim=dim))


def test_truncated_state_file_is_a_config_error(tmp_path):
    state = tmp_path / "state.json"
    RoutingService(_config(router="sim", state_path=state)).register(NEW_CARD)
    state.write_bytes(state.read_bytes()[: state.stat().st_size // 2])
    with pytest.raises(ConfigError, match=str(state)):
        RoutingService(_config(router="sim", state_path=state))


class _BlankSummarizer(Summarizer):
    def summarize(self, prompt):
        return " \n"


def test_blank_summary_is_refused_and_the_state_file_still_loads(tmp_path):
    state = tmp_path / "state.json"
    service = RoutingService(_config(router="sim", spec="text:2", state_path=state))
    service.register(NEW_CARD)
    service.providers.summarizer = _BlankSummarizer()
    with pytest.raises(SummarizerFailure, match="empty output"):
        service.register(dict(NEW_CARD, id="model_01_03"))
    revived = RoutingService(_config(router="sim", spec="text:2", state_path=state))
    assert revived.state.pool.ids == CATALOG + ["model_01_02"]


# --- failed registrations leave no trace ------------------------------------

class _DownOnceEncoder(TextEncoder):
    """Delegates to ``inner`` except for one batch call that fails like an outage."""

    def __init__(self, inner: TextEncoder):
        self.inner, self.dim, self.failures = inner, inner.dim, 1

    def encode(self, text):
        return self.inner.encode(text)

    def encode_batch(self, texts):
        if self.failures:
            self.failures -= 1
            raise TransportError("embedder is down", 503)
        return self.inner.encode_batch(texts)


class _DownOnceSummarizer(Summarizer):
    def __init__(self, inner: Summarizer):
        self.inner, self.failures = inner, 1

    def summarize(self, prompt):
        if self.failures:
            self.failures -= 1
            raise TransportError("summarizer is down", 503)
        return self.inner.summarize(prompt)


@pytest.mark.parametrize(
    "spec, router, part",
    [("emb:2", "mlp", "encoder"), ("text:2", "sim", "encoder"), ("text:2", "sim", "summarizer")],
)
def test_provider_outage_during_register_is_503_and_rolled_back(server, spec, router, part):
    services = []

    def break_provider(service):
        services.append(service)
        wrap = _DownOnceEncoder if part == "encoder" else _DownOnceSummarizer
        setattr(service.providers, part, wrap(getattr(service.providers, part)))

    base = server(_config(router=router, spec=spec), patch=break_provider)
    (service,) = services
    nodes_before = sorted(service.graph.node_ids)
    edges_before = len(service.graph.edges)

    failed = requests.post(f"{base}/models", json=NEW_CARD)
    assert failed.status_code == 503
    assert sorted(service.graph.node_ids) == nodes_before
    assert len(service.graph.edges) == edges_before
    assert requests.get(f"{base}/pool").json()["models"] == CATALOG

    retried = requests.post(f"{base}/models", json=NEW_CARD)
    assert retried.status_code == 200
    assert retried.json()["models"] == CATALOG + ["model_01_02"]


@pytest.mark.parametrize(
    "field, value",
    [("description", 5), ("description", "   "), ("description", None), ("id", ["x"])],
)
def test_malformed_card_field_is_400_before_touching_graph(server, field, value):
    base = server(_config())
    bad = requests.post(f"{base}/models", json=dict(NEW_CARD, **{field: value}))
    assert bad.status_code == 400
    assert requests.post(f"{base}/models", json=NEW_CARD).status_code == 200
    other = dict(NEW_CARD, id="model_01_03")
    assert requests.post(f"{base}/models", json=other).status_code == 200


def test_non_numeric_score_is_400(server):
    base = server(_config())
    bad = requests.post(f"{base}/models", json=dict(NEW_CARD, scores={"bench_00_a": "high"}))
    assert bad.status_code == 400
    assert "not a number" in bad.json()["error"]
    assert requests.post(f"{base}/models", json=NEW_CARD).status_code == 200


def test_non_object_scores_is_400(server):
    base = server(_config())
    bad = requests.post(f"{base}/models", json=dict(NEW_CARD, scores=[1, 2]))
    assert bad.status_code == 400
    assert requests.post(f"{base}/models", json=NEW_CARD).status_code == 200


# --- state writes, request framing, concurrency -----------------------------

def test_unwritable_state_is_500_and_rolled_back_then_retry_succeeds(server, tmp_path):
    services = []
    state = tmp_path / "later" / "state.json"  # its directory does not exist yet
    base = server(_config(state_path=state), patch=services.append)
    (service,) = services
    nodes_before = sorted(service.graph.node_ids)

    failed = requests.post(f"{base}/models", json=NEW_CARD)
    assert failed.status_code == 500
    assert sorted(service.graph.node_ids) == nodes_before
    assert requests.get(f"{base}/pool").json()["models"] == CATALOG
    assert not state.parent.exists()

    state.parent.mkdir()
    retried = requests.post(f"{base}/models", json=NEW_CARD)
    assert retried.status_code == 200
    assert retried.json()["models"] == CATALOG + ["model_01_02"]
    saved = json.loads(state.read_text())
    assert [c["id"] for c in saved["registered_cards"]] == ["model_01_02"]
    assert [m["model_id"] for m in saved["pool"]["models"]] == CATALOG + ["model_01_02"]
    assert [p.name for p in state.parent.iterdir()] == ["state.json"]  # no stray temp file


def test_failed_directory_sync_is_500_with_the_model_admitted(server, tmp_path, monkeypatch):
    services = []
    state = tmp_path / "state.json"
    base = server(_config(state_path=state), patch=services.append)
    (service,) = services
    real_fsync = os.fsync

    def fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(5, "Input/output error")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    failed = requests.post(f"{base}/models", json=NEW_CARD)
    assert failed.status_code == 500 and "not synced" in failed.json()["error"]
    # the rename happened: pool, cards and graph agree with the state file
    grown = CATALOG + ["model_01_02"]
    saved = json.loads(state.read_text())
    assert [m["model_id"] for m in saved["pool"]["models"]] == grown
    assert requests.get(f"{base}/pool").json()["models"] == grown
    assert [c.id for c in service.state.cards] == ["model_01_02"]
    assert "model_01_02" in service.graph
    route = requests.post(f"{base}/route", json={"query_text": "Upgrade the lockfile safely."})
    assert sorted(route.json()["scores"]) == sorted(grown)
    assert requests.post(f"{base}/models", json=NEW_CARD).status_code == 409
    monkeypatch.setattr(os, "fsync", real_fsync)
    assert RoutingService(_config(state_path=state)).pool_info()["models"] == grown


def _count_thread_starts(monkeypatch) -> list[threading.Thread]:
    started: list[threading.Thread] = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    return started


def _exchange(base: str, raw: bytes) -> bytes:
    """One request on a connection of its own, read until the server closes it."""
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5) as client:
        client.sendall(raw)
        return b"".join(iter(lambda: client.recv(1 << 16), b""))


def _route_request(text: str, task_id: str) -> bytes:
    body = json.dumps({"query_text": text, "task_id": task_id}).encode()
    return b"POST /route HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)


def test_sequential_requests_reuse_one_request_thread(server, monkeypatch):
    base = server(_config(router="graphrouter"))
    started = _count_thread_starts(monkeypatch)
    for i in range(10):
        route = _route_request(f"probe number {i}", "task_01")
        assert _exchange(base, route).startswith(b"HTTP/1.0 200")
        assert _exchange(base, b"GET /healthz HTTP/1.0\r\n\r\n").startswith(b"HTTP/1.0 200")
    assert len(started) <= 1


def test_concurrent_clients_share_request_threads_and_task_sides(monkeypatch):
    expected = RoutingService(_config(router="graphrouter"))
    httpd = make_server(_config(router="graphrouter"))
    serving = threading.Thread(target=httpd.serve_forever, daemon=True)
    serving.start()
    base = "http://{}:{}".format(*httpd.server_address[:2])
    started = _count_thread_starts(monkeypatch)
    probes = [(f"client question {i % 3}", f"task_0{i % 2}") for i in range(6)]
    replies: list[tuple[int, bytes]] = []

    def client(n: int) -> None:
        for text, task_id in probes[n:] + probes[:n]:  # first routes of each task race
            reply = _exchange(base, _route_request(text, task_id))
            replies.append((probes.index((text, task_id)), reply))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clients = [threading.Thread(target=client, args=(n,)) for n in range(len(probes))]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        httpd.shutdown()
        httpd.server_close()
        serving.join(timeout=5)
    assert not any(thread.is_alive() for thread in clients)
    assert len(replies) == len(probes) ** 2
    for at, reply in replies:
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 200")
        assert json.loads(body) == expected.route(*probes[at])
    request_threads = [t for t in started if t not in clients]
    assert len(request_threads) <= len(clients)  # each client waits for its reply
    for thread in request_threads:
        thread.join(timeout=1)
    assert not any(thread.is_alive() for thread in request_threads)


def test_a_held_registration_leaves_routes_and_health_answering(server, tmp_path, monkeypatch):
    base = server(_config(state_path=tmp_path / "state.json"))
    real_write = PoolState.write
    writing, release = threading.Event(), threading.Event()

    def held_write(self):
        writing.set()
        assert release.wait(timeout=30)
        real_write(self)

    monkeypatch.setattr(PoolState, "write", held_write)
    replies = []
    writer = threading.Thread(
        target=lambda: replies.append(requests.post(f"{base}/models", json=NEW_CARD))
    )
    writer.start()
    try:
        assert writing.wait(timeout=30)
        for _ in range(3):  # the thread that served the last request is idle again
            start = time.monotonic()
            route = requests.post(f"{base}/route", json={"query_text": "probe"}, timeout=1)
            health = requests.get(f"{base}/healthz", timeout=1)
            assert route.status_code == health.status_code == 200
            assert time.monotonic() - start < 1.0
            assert CATALOG == sorted(route.json()["scores"])
    finally:
        release.set()
        writer.join(timeout=30)
    assert [reply.status_code for reply in replies] == [200]


def test_closing_the_server_ends_its_request_threads(monkeypatch):
    httpd = make_server(_config())
    serving = threading.Thread(target=httpd.serve_forever, daemon=True)
    serving.start()
    started = _count_thread_starts(monkeypatch)
    host, port = httpd.server_address[:2]
    clients = [socket.create_connection((host, port), timeout=5) for _ in range(3)]
    try:
        deadline = time.monotonic() + 5
        while len(started) < len(clients) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(started) == len(clients)  # a connection in progress holds its thread
        for client in clients:
            client.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            assert client.recv(64).startswith(b"HTTP/1.0 200")
    finally:
        for client in clients:
            client.close()
        httpd.shutdown()
        httpd.server_close()
        serving.join(timeout=5)
    for thread in started:
        thread.join(timeout=1)
    assert not any(thread.is_alive() for thread in started)


@pytest.mark.parametrize("length", ["twelve", "-1", "-40", "3_1", "+31", "-0"])
def test_bad_content_length_is_400_without_reading_the_body(server, length):
    base = server(_config())
    host, port = base.removeprefix("http://").split(":")
    request = (
        f"POST /route HTTP/1.1\r\nHost: {host}\r\nContent-Length: {length}\r\n"
        "Content-Type: application/json\r\n\r\n"
    ).encode()
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(request)  # and keep the connection open: no body follows
        reply = b"".join(iter(lambda: sock.recv(4096), b"")).decode()
    assert reply.startswith("HTTP/1.0 400")
    assert "Content-Length must be a byte count" in reply


def test_concurrent_routes_get_distinct_query_ids():
    service = RoutingService(_config())
    seen: list[str] = []
    route = service.router.route

    def recording_route(vec, pool, query_id, task_id=None):
        seen.append(query_id)
        return route(vec, pool, query_id=query_id, task_id=task_id)

    service.router.route = recording_route
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more thread switches, so a lost update would show
    try:
        threads = [
            threading.Thread(target=lambda: [service.route("count me", None) for _ in range(50)])
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == len(set(seen)) == 400


def test_concurrent_route_and_register_see_whole_pool_states(server):
    base = server(_config(router="graphrouter"))
    cards = [
        dict(NEW_CARD, id=f"model_01_{i:02d}", description=f"A build helper, release {i}.")
        for i in range(2, 6)
    ]
    states = [CATALOG + [c["id"] for c in cards[:k]] for k in range(len(cards) + 1)]
    statuses: list[int] = []
    scored: list[list[str]] = []
    done = threading.Event()

    def router_client(n: int) -> None:
        with requests.Session() as session:
            while not done.is_set():
                reply = session.post(
                    f"{base}/route", json={"query_text": f"client {n}", "task_id": "task_01"}
                )
                statuses.append(reply.status_code)
                if reply.status_code == 200:
                    scored.append(sorted(reply.json()["scores"]))

    def registrar() -> None:
        try:
            for card in cards:
                statuses.append(requests.post(f"{base}/models", json=card).status_code)
        finally:
            done.set()

    threads = [threading.Thread(target=router_client, args=(n,)) for n in range(12)]
    threads.append(threading.Thread(target=registrar))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert all(status < 500 for status in statuses)
    assert statuses.count(200) == len(statuses) and len(scored) > len(cards)
    whole = [sorted(state) for state in states]
    assert all(ids in whole for ids in scored)
    assert requests.get(f"{base}/pool").json()["models"] == states[-1]



@pytest.mark.parametrize("write_fails", [True, False], ids=["write fails", "write succeeds"])
def test_routes_and_pool_read_only_committed_state(tmp_path, monkeypatch, write_fails):
    state = tmp_path / "state.json"
    service = RoutingService(_config(state_path=state))
    real_write = PoolState.write
    writing, release = threading.Event(), threading.Event()

    def held_write(self):
        writing.set()
        assert release.wait(timeout=30)  # in flight until the readers below have looked
        if write_fails:
            raise OSError(28, "No space left on device", str(self.path))
        real_write(self)

    monkeypatch.setattr(PoolState, "write", held_write)
    failures: list[Exception] = []

    def register() -> None:
        try:
            service.register(NEW_CARD)
        except OSError as exc:
            failures.append(exc)

    writer = threading.Thread(target=register)
    writer.start()
    try:
        assert writing.wait(timeout=30)
        named: set[str] = set()
        for i in range(10):
            named.update(service.route(f"probe number {i}")["scores"])
            named.update(service.pool_info()["models"])
    finally:
        release.set()
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert named == set(CATALOG)  # the model in the write was never routed or listed
    committed = CATALOG if write_fails else CATALOG + ["model_01_02"]
    assert len(failures) == int(write_fails)
    assert service.pool_info()["models"] == committed
    assert sorted(service.route("Upgrade the lockfile safely.")["scores"]) == sorted(committed)
    assert state.exists() != write_fails
    assert [c.id for c in service.state.cards] == committed[len(CATALOG):]


def test_one_router_checksum_per_pool(tmp_path, monkeypatch):
    taken: list[str] = []

    def counted(router):
        taken.append(router_checksum(router))
        return taken[-1]

    monkeypatch.setattr("coldroute.service.router_checksum", counted)
    service = RoutingService(_config(state_path=tmp_path / "state.json"))
    assert len(taken) == 1  # at start
    for admitted in (1, 2):
        for i in range(5):
            service.route(f"probe number {i}")
            service.pool_info()
        assert len(taken) == admitted  # routes and /pool take none
        service.register(dict(NEW_CARD, id=f"model_01_{admitted + 1:02d}"))
        assert len(taken) == admitted + 1  # one per admission
    with pytest.raises(DuplicateId):
        service.register(NEW_CARD)
    assert len(taken) == 4  # a refused registration takes one too
    assert len(set(taken)) == 1  # the router stayed frozen

# --- remote providers and the body cap ---------------------------------------

def test_register_whose_provider_times_out_is_503(server, stub_server):
    stub_server.stub.update(dim=64, slow_first=99, slow=1.0)

    def remote_encoder(service):
        service.providers.encoder = RemoteEmbedder(
            stub_url(stub_server, "/v1/embeddings"), dim=64, retries=0, timeout=0.3
        )

    base = server(_config(), patch=remote_encoder)
    reply = requests.post(f"{base}/models", json=NEW_CARD)
    assert reply.status_code == 503
    assert requests.get(f"{base}/pool").json()["models"] == CATALOG


def _rows(*indexes, embedding=(1.0,) * 64) -> dict:
    return {"data": [{"index": i, "embedding": list(embedding)} for i in indexes]}


# a text:2 registration sends one embeddings request with two inputs: the new
# node's text and its profile text
_MALFORMED_REPLIES = {
    "no data list": ("encoder", {"rows": []}),
    "data not a list": ("encoder", {"data": {"0": [1.0] * 64}}),
    "row without index": ("encoder", {"data": [{"embedding": [1.0] * 64}] * 2}),
    "row without embedding": ("encoder", {"data": [{"index": 0}, {"index": 1}]}),
    "non-numeric vector": ("encoder", _rows(0, 1, embedding=["high"] * 64)),
    "one row for two inputs": ("encoder", _rows(0)),
    "index repeated": ("encoder", _rows(1, 1)),
    "vectors of the wrong length": ("encoder", _rows(0, 1, embedding=[1.0] * 8)),
    "chat reply without choices": ("summarizer", {"id": "reply"}),
}


@pytest.mark.parametrize(
    "part, reply", list(_MALFORMED_REPLIES.values()), ids=list(_MALFORMED_REPLIES)
)
def test_malformed_provider_reply_is_503_and_rolled_back(stub_server, tmp_path, part, reply):
    state = tmp_path / "state.json"
    service = RoutingService(_config(router="sim", spec="text:2", state_path=state))
    if part == "encoder":
        service.providers.encoder = RemoteEmbedder(
            stub_url(stub_server, "/v1/embeddings"), dim=64, retries=0
        )
    else:
        service.providers.summarizer = RemoteSummarizer(
            stub_url(stub_server, "/v1/chat/completions"), retries=0
        )
    stub_server.stub["raw"] = json.dumps(reply).encode()
    ids, pairs = list(service.graph.ids), service.graph.pairs.copy()
    with pytest.raises((EncoderFailure, SummarizerFailure)) as info:
        service.register(NEW_CARD)
    assert _status_for(info.value) == 503
    assert stub_server.stub["calls"] >= 1
    assert service.graph.ids == ids and np.array_equal(service.graph.pairs, pairs)
    assert service.graph.features.shape == (len(ids), 64)
    assert service.state.pool.ids == CATALOG
    assert not state.exists()


def test_service_with_remote_providers_does_not_import_requests(stub_server, tmp_path):
    stub_server.stub["dim"] = 64
    script = f"""
import sys
from coldroute.config import AppConfig
from coldroute.service import RoutingService
from pathlib import Path

fixtures = Path({str(FIXTURE_DIR)!r})
service = RoutingService(AppConfig(
    base_dir=fixtures, cards_dir=fixtures / "cards", dim=64, spec="text:2", router="sim",
    encoder={{"kind": "remote", "url": {stub_url(stub_server, "/v1/embeddings")!r}}},
    summarizer={{"kind": "remote", "url": {stub_url(stub_server, "/v1/chat/completions")!r}}},
    interactions=fixtures / "interactions.jsonl", tasks=fixtures / "tasks.jsonl", port=0,
))
service.register({NEW_CARD!r})
print(sorted(name for name in ("requests", "urllib3") if name in sys.modules))
"""
    src = str(Path(coldroute.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert stub_server.stub["calls"] > 0


def test_oversized_body_is_413_before_any_read(server):
    base = server(_config())
    host, port = base.removeprefix("http://").split(":")
    request = (
        f"POST /models HTTP/1.1\r\nHost: {host}\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n"
        "Content-Type: application/json\r\n\r\n"
    ).encode()
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(request)  # and keep the connection open: no body follows
        reply = b"".join(iter(lambda: sock.recv(4096), b"")).decode()
    assert reply.startswith("HTTP/1.0 413")


# --- the request head, read by the service itself ----------------------------------


class _StdlibHead(_Handler):
    """The service's handler with the standard library's head parser restored."""

    parse_request = BaseHTTPRequestHandler.parse_request


@pytest.fixture(scope="module")
def head_servers():
    """Addresses of two servers over one service: the service's handler, and the stdlib's."""
    service = RoutingService(_config())
    servers = [_Server(("127.0.0.1", 0), handler) for handler in (_Handler, _StdlibHead)]
    threads = []
    for httpd in servers:
        httpd.service = service
        threads.append(threading.Thread(target=httpd.serve_forever, daemon=True))
        threads[-1].start()
    yield [httpd.server_address[:2] for httpd in servers]
    for httpd, thread in zip(servers, threads):
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


def _ask(address, raw: bytes) -> bytes:
    """The reply to ``raw`` without its ``Date`` header; a server that refuses a
    request before reading all of it may reset the connection after its reply."""
    with socket.create_connection(address, timeout=5) as client:
        client.sendall(raw)
        client.shutdown(socket.SHUT_WR)  # the request ends here
        reply = b""
        with contextlib.suppress(ConnectionResetError):
            while chunk := client.recv(1 << 16):
                reply += chunk
    return re.sub(rb"\r\nDate: [^\r]*", b"", reply)


_ROUTE = json.dumps({"query_text": "Trace the segfault in the parser."}).encode()
_LONG = b"X-Long: " + b"a" * (65536 - 10) + b"\r\n"  # 65536 bytes, the longest line read


def _post(head: bytes, body: bytes = _ROUTE) -> bytes:
    return b"POST /route HTTP/1.0\r\n" + head.replace(b"%d", b"%d" % len(body)) + body


def _get(head: bytes = b"\r\n", request_line: bytes = b"GET /healthz HTTP/1.0") -> bytes:
    return request_line + b"\r\n" + head


HEAD_ROWS = {  # name -> (raw request, a fragment of the reply)
    "name case": (_post(b"content-LENGTH: %d\r\n\r\n"), b"HTTP/1.0 200 OK"),
    "repeated length, first right": (
        _post(b"Content-Length: %d\r\nContent-Length: 2\r\n\r\n"), b"HTTP/1.0 200 OK"),
    "repeated length, first wrong": (
        _post(b"Content-Length: 2\r\nContent-Length: %d\r\n\r\n"), b"HTTP/1.0 400"),
    "bare LF": (b"POST /route HTTP/1.0\n" + b"Content-Length: %d\n\n" % len(_ROUTE) + _ROUTE,
                b"HTTP/1.0 200 OK"),
    "mixed line ends": (_post(b"X-A: 1\nContent-Length: %d\r\n\n"), b"HTTP/1.0 200 OK"),
    "ISO-8859-1 length": (_post(b"Content-Length: 1\xb2\r\n\r\n"), b"got '1\\u00b2'"),
    "ISO-8859-1 value": (_get(b"X-Note: caf\xe9\r\n\r\n"), b"HTTP/1.0 200 OK"),
    "value spacing": (_post(b"Content-Length:\t  %d  \r\n\r\n"), b"HTTP/1.0 200 OK"),
    "empty value": (_post(b"Content-Length:\r\n\r\n", b""), b"must be a JSON object"),
    "colon in value": (_get(b"Host: localhost:8080\r\n\r\n"), b"HTTP/1.0 200 OK"),
    "blank request line": (b"\r\n", b""),
    "nothing sent": (b"", b""),
    "1-word request line": (b"GET\r\n\r\n", b"Bad request syntax"),
    "4 words, good version": (_get(request_line=b"GET /healthz x HTTP/1.0"),
                              b"HTTP/1.0 400 Bad request syntax"),
    "4 words, bad version": (_get(request_line=b"GET /healthz x y"), b"Bad request version"),
    **{f"version {version!r}": (_get(request_line=b"GET /healthz " + version),
                                b"Bad request version")
       for version in (b"HTTP/1", b"HTTP/1.x", b"HTTP/1.0.1", b"http/1.0", b"HTTP/+1.0",
                       b"HTTP/1.", b"HTTP/\xb2.0", b"HTTP/00000000001.0", b"HTTPS/1.0")},
    **{f"version {version!r}": (_get(request_line=b"GET /healthz " + version),
                                b"Invalid HTTP version")
       for version in (b"HTTP/2.0", b"HTTP/10.3", b"HTTP/0000000002.0")},
    "version 1.1": (_get(request_line=b"GET /healthz HTTP/1.1"), b"HTTP/1.0 200 OK"),
    "version 0001.0000000000": (_get(request_line=b"GET /healthz HTTP/0001.0000000000"),
                                b"HTTP/1.0 200 OK"),
    "HTTP/0.9 GET": (_get(request_line=b"GET /healthz"), b'{"status": "ok"'),
    "HTTP/0.9 POST": (b"POST /route\r\n\r\n", b"Bad HTTP/0.9 request type"),
    "// path": (_get(request_line=b"GET //healthz HTTP/1.0"), b"HTTP/1.0 200 OK"),
    "/// path": (_get(request_line=b"GET ///pool HTTP/1.0"), b"HTTP/1.0 200 OK"),
    "65536-byte header line": (_get(_LONG + b"\r\n"), b"HTTP/1.0 200 OK"),
    "65537-byte header line": (_get(_LONG[:-2] + b"a\r\n\r\n"), b"HTTP/1.0 431 Line too long"),
    "99 headers": (_get(b"X-A: 1\r\n" * 99 + b"\r\n"), b"HTTP/1.0 200 OK"),
    "100 headers": (_get(b"X-A: 1\r\n" * 100 + b"\r\n"), b"HTTP/1.0 431 Too many headers"),
    "101 headers": (_get(b"X-A: 1\r\n" * 101 + b"\r\n"), b"HTTP/1.0 431 Too many headers"),
    "PUT": (_get(request_line=b"PUT /route HTTP/1.0"), b"HTTP/1.0 501"),
    "65537-byte request line": (_get(request_line=b"GET /" + b"a" * 65537 + b" HTTP/1.0"),
                                b"HTTP/1.0 414"),
}


@pytest.mark.parametrize("row", sorted(HEAD_ROWS))
def test_request_head_is_answered_as_by_the_stdlib(head_servers, row):
    raw, fragment = HEAD_ROWS[row]
    ours, stdlib = (_ask(address, raw) for address in head_servers)
    assert ours == stdlib
    assert fragment in ours


@pytest.mark.parametrize("line", [b"X-Broken", b"X-A: 1\r\n continued", b"X-A: 1\r\n\tcontinued",
                                  b"X A: 1", b": 1", b"Caf\xe9: 1"])
def test_header_line_without_a_name_and_colon_is_400(head_servers, line):
    """A line the ``email`` parser took as the end of the head, or folded into
    the header above it."""
    reply = _ask(head_servers[0], _get(line + b"\r\n\r\n"))
    assert reply.startswith(b"HTTP/1.0 400 Bad header line")


@pytest.mark.parametrize("block", [
    b"Content-Length: 12\r\nX-Bench-Id: b-7\r\n\r\n",
    b"content-length: 3\r\nCONTENT-LENGTH: 4\r\nContent-Length: 5\r\n\r\n",
    b"X-A:\r\nX-B:   spaced out  \r\nX-C:\t\ttabbed\r\nHost: a:80\r\n\r\n",
    b"X-Note: caf\xe9 cr\xe8me\nX-Bench-Id: 12\n\n",
    b"\r\n",
])
def test_header_map_gets_as_the_email_parser_does(block):
    handler = _Handler.__new__(_Handler)  # a head parsed off a byte stream, with no socket
    handler.raw_requestline, handler.rfile = b"GET / HTTP/1.0\r\n", io.BytesIO(block)
    assert handler.parse_request()
    reference = http.client.parse_headers(io.BytesIO(block))
    names = {line.partition(b":")[0].decode("iso-8859-1") for line in block.splitlines()}
    for name in names | {n.upper() for n in names} | {n.lower() for n in names} | {"X-None"}:
        assert handler.headers.get(name) == reference.get(name)
        assert handler.headers.get(name, "-") == reference.get(name, "-")


def test_a_stalled_request_is_closed_and_frees_its_thread(monkeypatch):
    monkeypatch.setattr(service_module, "READ_TIMEOUT_S", 0.2)
    httpd = make_server(_config())
    serving = threading.Thread(target=httpd.serve_forever, daemon=True)
    serving.start()
    started = _count_thread_starts(monkeypatch)
    address = httpd.server_address[:2]
    try:
        with socket.create_connection(address, timeout=5) as head, \
                socket.create_connection(address, timeout=5) as body:
            head.sendall(b"GET /healthz HTTP/1.0\r\nHost: x\r\n")  # no blank line follows
            body.sendall(b"POST /route HTTP/1.0\r\nContent-Length: 40\r\n\r\n{\"qu")
            assert head.recv(64) == b""  # closed without a reply
            assert body.recv(64).startswith(b"HTTP/1.0 408")
        assert _exchange("http://{}:{}".format(*address), _get()).startswith(b"HTTP/1.0 200")
    finally:
        httpd.shutdown()
        httpd.server_close()
        serving.join(timeout=5)
    assert 2 <= len(started)
    for thread in started:
        thread.join(timeout=1)
    assert not any(thread.is_alive() for thread in started)


def test_a_burst_of_connections_is_queued_before_any_is_accepted():
    httpd = make_server(_config())  # bound and listening; serve_forever never runs
    clients = [socket.socket() for _ in range(32)]
    try:
        for client in clients:
            client.setblocking(False)
            client.connect_ex(httpd.server_address[:2])
        pending, deadline = set(clients), time.monotonic() + 0.5
        while pending and (left := deadline - time.monotonic()) > 0:
            _, writable, _ = select.select([], list(pending), [], left)
            pending.difference_update(writable)
        connected = [c for c in clients
                     if c not in pending and not c.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)]
        assert len(connected) == len(clients)
    finally:
        for client in clients:
            client.close()
        httpd.server_close()
