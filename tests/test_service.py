"""HTTP routing service: endpoints, status codes, frozen-pool registration,
and crash recovery from the persisted state file."""

import json
import os
import socket
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest
import requests

import coldroute
from coldroute.config import AppConfig
from coldroute.errors import ConfigError, SummarizerFailure, TransportError
from coldroute.providers import RemoteEmbedder, Summarizer, TextEncoder
from coldroute.service import MAX_BODY_BYTES, RoutingService, make_server

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


def test_routing_never_changes_pool_or_checksum(server):
    base = server(_config())
    before = requests.get(f"{base}/pool").json()
    for i in range(10):
        requests.post(f"{base}/route", json={"query_text": f"probe number {i}"})
    after = requests.get(f"{base}/pool").json()
    assert after == before


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
        assert revived.pool.ids == CATALOG + ["model_01_02"]
        assert revived.checksum() == checksum, router
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
    assert revived.pool.ids == CATALOG + ["model_01_02"]


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


@pytest.mark.parametrize("length", ["twelve", "-1", "-40"])
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
