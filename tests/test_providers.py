"""Encoders and summarizers: deterministic local doubles and remote clients."""

import base64
import json
import math
import socket
import sys
import threading
import time

import numpy as np
import pytest

from coldroute.errors import (
    ConfigError,
    EmptyText,
    EncoderFailure,
    ProviderTimeout,
    SummarizerFailure,
    TransportError,
)
from coldroute.graph import NodeKind, build_graph
from coldroute.profiles import ProfileSpec, make_profiles, textgnn_run
from coldroute.providers import (
    DeterministicEmbedder,
    EchoSummarizer,
    Providers,
    RemoteEmbedder,
    RemoteSummarizer,
    _HttpJson,
    encode_all,
    tokenize,
)

from coldroute.service import _status_for

from conftest import stub_url as _url, tiny_cards


# --- tokenizer -------------------------------------------------------------

def test_tokenize_lowercase_alnum_runs():
    assert tokenize("Hello, World 42!") == ["hello", "world", "42"]
    assert tokenize("") == []
    assert tokenize("  --  ") == []
    assert tokenize("eq2solve") == ["eq2solve"]
    # letters and digits of any script; "_" and combining marks separate
    assert tokenize("Straße_ÜBER café-Ω2 x\u0301y") == ["straße", "über", "café", "ω2", "x", "y"]


# --- deterministic embedder ------------------------------------------------

def test_deterministic_embedder_is_deterministic_and_normalized():
    enc = DeterministicEmbedder(dim=16, seed=0)
    a = enc.encode("solve the equation")
    b = enc.encode("solve the equation")
    assert np.array_equal(a, b)
    assert np.asarray(a).shape == (16,)
    assert np.linalg.norm(a) == pytest.approx(1.0)


def test_deterministic_embedder_empty_text_is_zero_vector():
    enc = DeterministicEmbedder(dim=8, seed=0)
    assert np.array_equal(enc.encode(""), np.zeros(8))
    assert np.array_equal(enc.encode("   ,,, "), np.zeros(8))


def test_deterministic_embedder_seed_changes_vectors():
    a = DeterministicEmbedder(dim=16, seed=0).encode("same text")
    b = DeterministicEmbedder(dim=16, seed=1).encode("same text")
    assert not np.allclose(a, b)


def test_deterministic_embedder_reflects_token_counts():
    enc = DeterministicEmbedder(dim=16, seed=0)
    once = enc.encode("алгебра word problem")
    twice = enc.encode("алгебра алгебра word problem")
    assert not np.allclose(once, twice)
    # order does not matter, only counts
    assert np.allclose(enc.encode("alpha beta"), enc.encode("beta alpha"))


def test_deterministic_embedder_truncates_long_text_deterministically():
    enc = DeterministicEmbedder(dim=8, seed=0, max_bytes=64)
    long_text = "word " * 10_000
    a = enc.encode(long_text)
    b = enc.encode(long_text)
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0)


def test_encode_batch_matches_single_calls():
    enc = DeterministicEmbedder(dim=12, seed=0)
    texts = ["one small question", "another", ""]
    batch = enc.encode_batch(texts)
    for text, vec in zip(texts, batch):
        assert np.array_equal(vec, enc.encode(text))


# --- graph encoding --------------------------------------------------------

def test_encode_all_fills_every_node(tiny_graph):
    for nid in tiny_graph.node_ids:
        assert tiny_graph.embedding(nid).shape == (4,)  # an unset row raises


def test_encode_all_rejects_blank_non_query_text():
    from coldroute.graph import ModelCard

    cards = tiny_cards()
    cards.models[0] = ModelCard("model_00", "fam_00", "   ", {"bench_00": 0.7})
    graph = build_graph(
        cards.families, cards.models, cards.benchmarks, cards.domains, cards.queries, 4
    )
    with pytest.raises(EmptyText):
        encode_all(graph, DeterministicEmbedder(dim=4, seed=0))


def test_encode_all_only_missing_preserves_existing(tiny_graph):
    before = tiny_graph.embedding("model_00")
    tiny_graph.texts[tiny_graph.index["model_00"]] = "A very different description now."
    encode_all(tiny_graph, DeterministicEmbedder(dim=4, seed=0))
    assert np.array_equal(tiny_graph.embedding("model_00"), before)


def test_encode_all_rejects_a_non_finite_vector_and_sets_nothing():
    class NanFor(DeterministicEmbedder):
        def encode(self, text):
            vec = super().encode(text)
            return np.full(self.dim, np.nan) if text.startswith("A quiet") else vec

    cards = tiny_cards()
    graph = build_graph(
        cards.families, cards.models, cards.benchmarks, cards.domains, cards.queries, 4
    )
    before = graph.features.copy()
    with pytest.raises(EncoderFailure, match="model_01"):
        encode_all(graph, NanFor(dim=4, seed=1))
    assert np.array_equal(graph.features, before, equal_nan=True)


def test_encode_all_with_no_unset_row_encodes_only_the_texts(tiny_graph):
    before = tiny_graph.features.copy()
    enc = DeterministicEmbedder(dim=4, seed=9)  # not the graph's encoder: a re-encoding would show
    texts = ["What is three plus four?", "A careful first model."]
    vectors = encode_all(tiny_graph, enc, texts)
    assert len(vectors) == 2
    assert all(np.array_equal(vec, enc.encode(text)) for vec, text in zip(vectors, texts))
    assert np.array_equal(tiny_graph.features, before)


def test_providers_deterministic_bundle():
    prov = Providers.deterministic(dim=8, seed=1)
    assert prov.encoder.dim == 8
    assert prov.summarizer.summarize("abc") == "abc"


def test_echo_summarizer_identity():
    assert EchoSummarizer().summarize("whole prompt text") == "whole prompt text"


# --- remote clients (the stub server is in conftest.py) ---------------------

def test_remote_embedder_round_trip_and_sorting(stub_server):
    enc = RemoteEmbedder(_url(stub_server, "/v1/embeddings"), dim=4, retries=1)
    out = enc.encode_batch(["first text", "second text"])
    # rows come back reversed from the stub; the client must restore order
    assert np.allclose(out[0], np.ones(4) / 2.0)  # [1,1,1,1] renormalized
    assert np.allclose(out[1], np.full(4, 2.0) / 4.0)
    assert stub_server.stub["last_body"]["input"] == ["first text", "second text"]


def test_remote_embedder_dimension_mismatch(stub_server):
    # the provider and the config disagree: a server-side fault, not the client's
    enc = RemoteEmbedder(_url(stub_server, "/v1/embeddings"), dim=9, retries=1)
    with pytest.raises(TransportError, match="an embedding of 4 numbers, expected 9"):
        enc.encode("anything")


def test_remote_embedder_retries_then_succeeds(stub_server):
    stub_server.stub["fail_first"] = 2
    enc = RemoteEmbedder(
        _url(stub_server, "/v1/embeddings"), dim=4, retries=3, backoff=0.01
    )
    vec = enc.encode("please work")
    assert np.linalg.norm(vec) == pytest.approx(1.0)
    assert stub_server.stub["calls"] == 3


def test_remote_embedder_exhausts_retries(stub_server):
    stub_server.stub["fail_first"] = 99
    enc = RemoteEmbedder(
        _url(stub_server, "/v1/embeddings"), dim=4, retries=2, backoff=0.01
    )
    with pytest.raises(TransportError):
        enc.encode("never works")
    # one initial attempt plus `retries` retries
    assert stub_server.stub["calls"] == 3


def test_remote_embedder_disk_cache_skips_http(stub_server, tmp_path):
    enc = RemoteEmbedder(
        _url(stub_server, "/v1/embeddings"), dim=4, retries=1, cache_dir=tmp_path
    )
    first = enc.encode("cache me")
    calls_after_first = stub_server.stub["calls"]
    second = enc.encode("cache me")
    assert np.array_equal(first, second)
    assert stub_server.stub["calls"] == calls_after_first  # served from disk


def test_remote_summarizer_returns_message_content(stub_server):
    summ = RemoteSummarizer(_url(stub_server, "/v1/chat/completions"), retries=1)
    assert summ.summarize("prompt body") == "a short summary"
    body = stub_server.stub["last_body"]
    assert body["temperature"] == 0
    assert any("prompt body" in m.get("content", "") for m in body["messages"])


def test_remote_summarizer_malformed_payload(stub_server):
    stub_server.stub["reply"] = None  # content null -> malformed
    summ = RemoteSummarizer(_url(stub_server, "/v1/chat/completions"), retries=1)
    with pytest.raises(SummarizerFailure):
        summ.summarize("prompt body")


# --- batching, overlap and hardening ---------------------------------------

def _embedder(**options):
    return RemoteEmbedder("http://127.0.0.1:9/v1/embeddings", dim=4, **options)


def _summarizer(**options):
    return RemoteSummarizer("http://127.0.0.1:9/v1/chat/completions", **options)


_OUT_OF_RANGE = [
    pytest.param(make, options, id=f"{make.__name__[1:]}-{options}")
    for options in (
        {"max_in_flight": 0},
        {"max_in_flight": -1},
        {"retries": -1},
        {"timeout": 0},
        {"timeout": -1.0},
        {"backoff": -0.5},
        {"max_in_flight": "4"},  # a quoted number in a config
        {"timeout": True},
    )
    for make in (_embedder, _summarizer)
] + [pytest.param(_embedder, options, id=f"embedder-{options}")
      for options in ({"batch_size": 0}, {"batch_size": "8"})]


@pytest.mark.parametrize("make, options", _OUT_OF_RANGE)
def test_remote_provider_refuses_an_option_out_of_range_at_construction(make, options):
    """Construction alone must refuse it; no request is sent, so a regression
    (``max_in_flight: 0`` blocking on its gate forever) fails instead of hanging."""
    with pytest.raises(ConfigError, match=next(iter(options))):
        make(**options)


def _tiny_graph(dim: int = 4):
    cards = tiny_cards()
    return build_graph(
        cards.families, cards.models, cards.benchmarks, cards.domains, cards.queries, dim
    )


@pytest.mark.parametrize("batch_size", [1, 4, 64])
def test_encode_all_sends_one_request_per_batch(stub_server, batch_size):
    graph = _tiny_graph()
    enc = RemoteEmbedder(_url(stub_server, "/v1/embeddings"), dim=4, retries=0,
                         batch_size=batch_size)
    encode_all(graph, enc)
    assert stub_server.stub["calls"] == math.ceil(len(graph) / batch_size)
    for nid in graph.node_ids:
        assert np.linalg.norm(graph.embedding(nid)) == pytest.approx(1.0)


def test_encode_all_checks_every_text_before_any_request(stub_server):
    from coldroute.graph import ModelCard

    cards = tiny_cards()
    cards.models[1] = ModelCard("model_01", "fam_00", "  ", {})
    graph = build_graph(
        cards.families, cards.models, cards.benchmarks, cards.domains, cards.queries, 4
    )
    enc = RemoteEmbedder(_url(stub_server, "/v1/embeddings"), dim=4, retries=0)
    with pytest.raises(EmptyText):
        encode_all(graph, enc)
    assert stub_server.stub["calls"] == 0
    assert np.isnan(graph.features).all()


def test_encode_all_failure_is_encoder_failure_and_sets_nothing(stub_server):
    stub_server.stub["fail_first"] = 99
    graph = _tiny_graph()
    enc = RemoteEmbedder(_url(stub_server, "/v1/embeddings"), dim=4, retries=0)
    with pytest.raises(EncoderFailure) as info:
        encode_all(graph, enc)
    assert isinstance(info.value.__cause__, TransportError)
    assert _status_for(info.value) == 503
    assert np.isnan(graph.features).all()

    # three chunks of two texts: only the last fails, and still no row is set
    stub_server.stub.update(fail_first=0, fail_inputs={graph.node(graph.ids[-1]).text})
    enc = RemoteEmbedder(_url(stub_server, "/v1/embeddings"), dim=4, retries=0, batch_size=2)
    with pytest.raises(EncoderFailure) as info:
        encode_all(graph, enc)
    assert isinstance(info.value.__cause__, TransportError)
    assert _status_for(info.value) == 503
    assert np.isnan(graph.features).all()


def test_encode_batch_keeps_order_and_caps_in_flight(stub_server):
    stub_server.stub.update(echo=True, delay=0.01)
    enc = RemoteEmbedder(_url(stub_server, "/v1/embeddings"), dim=4, retries=0,
                         batch_size=2, max_in_flight=3, timeout=10.0)
    texts = ["x" * length for length in range(1, 25)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches, so a misplaced chunk would show
    try:
        vectors = enc.encode_batch(texts)
    finally:
        sys.setswitchinterval(interval)
    for text, vec in zip(texts, vectors, strict=True):
        want = np.array([len(text), 1.0, 0.0, 0.0])
        assert np.allclose(vec, want / np.linalg.norm(want))
    assert stub_server.stub["calls"] == 12
    assert 1 < stub_server.stub["peak"] <= 3


def test_map_raises_the_first_failure_in_input_order():
    def call(item):
        time.sleep(0.05 if item == 1 else 0.0)  # item 5 fails first in time
        if item in (1, 5):
            raise TransportError(f"item {item}")
        return item

    with pytest.raises(TransportError, match="item 1"):
        _HttpJson(max_in_flight=3).map(call, list(range(8)))
    assert _HttpJson(max_in_flight=3).map(lambda item: 2 * item, [3, 1, 2]) == [6, 2, 4]


def test_map_of_one_item_starts_no_thread():
    caller = threading.get_ident()
    assert _HttpJson(max_in_flight=4).map(lambda _: threading.get_ident(), ["one"]) == [caller]
    assert _HttpJson(max_in_flight=4).map(lambda _: 1, []) == []


def test_flat_pool_profiling_sends_one_request_per_batch(stub_server, fixture_graph):
    stub_server.stub["dim"] = 64
    pool = [n.id for n in fixture_graph.nodes_of_kind(NodeKind.MODEL)]
    enc = RemoteEmbedder(_url(stub_server, "/v1/embeddings"), dim=64, retries=0, batch_size=2)
    profiles = make_profiles(fixture_graph, ProfileSpec.parse("flat"), pool,
                             Providers(enc, EchoSummarizer()))
    assert sorted(profiles) == sorted(pool)
    assert stub_server.stub["calls"] == math.ceil(len(pool) / 2)


def test_summarize_batch_keeps_order_and_caps_in_flight(stub_server):
    stub_server.stub.update(echo=True, delay=0.01)
    summ = RemoteSummarizer(_url(stub_server, "/v1/chat/completions"), retries=0,
                            max_in_flight=3, timeout=10.0)
    prompts = [f"prompt number {i}" for i in range(24)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches, so a lost reply would show
    try:
        replies = summ.summarize_batch(prompts)
    finally:
        sys.setswitchinterval(interval)
    assert replies == prompts
    assert stub_server.stub["calls"] == 24
    assert 1 < stub_server.stub["peak"] <= 3


def test_summarize_batch_default_is_sequential():
    assert EchoSummarizer().summarize_batch(["b", "a", "c"]) == ["b", "a", "c"]
    assert EchoSummarizer().summarize_batch([]) == []


def test_summarize_batch_failure_reaches_text_run_as_503(stub_server):
    stub_server.stub["fail_first"] = 99
    summ = RemoteSummarizer(_url(stub_server, "/v1/chat/completions"), retries=0)
    with pytest.raises(TransportError):
        summ.summarize_batch(["one", "two", "three"])
    graph = _tiny_graph()
    with pytest.raises(SummarizerFailure) as info:
        textgnn_run(graph, 1, summ, graph.node_ids)
    assert isinstance(info.value.__cause__, TransportError)
    assert _status_for(info.value) == 503


def test_non_json_200_is_transport_error(stub_server):
    stub_server.stub["raw"] = b"<html>gateway says hello</html>"
    enc = RemoteEmbedder(_url(stub_server, "/v1/embeddings"), dim=4, retries=2, backoff=0.01)
    with pytest.raises(TransportError):
        enc.encode("anything")
    assert stub_server.stub["calls"] == 1
    stub_server.stub["raw"] = b"[1, 2, 3]"
    summ = RemoteSummarizer(_url(stub_server, "/v1/chat/completions"), retries=0)
    with pytest.raises(TransportError):
        summ.summarize("anything")


def test_corrupt_cache_entry_is_a_miss(stub_server, tmp_path):
    enc = RemoteEmbedder(
        _url(stub_server, "/v1/embeddings"), dim=4, retries=0, cache_dir=tmp_path
    )
    first = enc.encode("cache me")
    (entry,) = tmp_path.glob("*.json")
    entry.write_text('{"data": [{"index": 0, "embe')  # torn write
    again = enc.encode("cache me")
    assert np.array_equal(first, again)
    assert stub_server.stub["calls"] == 2
    assert json.loads(entry.read_text())["data"][0]["index"] == 0  # rewritten whole
    third = enc.encode("cache me")
    assert np.array_equal(first, third) and stub_server.stub["calls"] == 2


def test_malformed_reply_is_not_cached(stub_server, tmp_path):
    enc = RemoteEmbedder(
        _url(stub_server, "/v1/embeddings"), dim=4, retries=0, cache_dir=tmp_path
    )
    stub_server.stub["raw"] = json.dumps({"rows": []}).encode()
    with pytest.raises(TransportError) as info:
        enc.encode("same text")
    assert _status_for(info.value) == 503
    assert list(tmp_path.iterdir()) == []
    stub_server.stub["raw"] = None  # the provider is healthy again
    assert np.allclose(enc.encode("same text"), np.ones(4) / 2.0)
    assert stub_server.stub["calls"] == 2
    # a cached entry that does not parse is a miss, and the good reply replaces it
    (entry,) = tmp_path.glob("*.json")
    entry.write_text(json.dumps({"rows": []}))
    assert np.allclose(enc.encode("same text"), np.ones(4) / 2.0)
    assert stub_server.stub["calls"] == 3
    assert "data" in json.loads(entry.read_text())


def test_cache_write_is_atomic(stub_server, tmp_path, monkeypatch):
    import coldroute.records as records_module

    def crash(src, dst):
        raise OSError("disk went away")

    monkeypatch.setattr(records_module.os, "replace", crash)
    enc = RemoteEmbedder(
        _url(stub_server, "/v1/embeddings"), dim=4, retries=0, cache_dir=tmp_path
    )
    # the reply has arrived, so a cache entry that cannot be written fails nothing
    assert np.allclose(enc.encode("cache me"), np.ones(4) / 2.0)
    assert list(tmp_path.iterdir()) == []  # no torn entry, no stray temp file
    assert np.allclose(enc.encode("cache me"), np.ones(4) / 2.0)
    assert stub_server.stub["calls"] == 2  # nothing was cached: the second call is a miss


# --- transport contract ----------------------------------------------------

def test_slow_reply_is_provider_timeout_and_a_retry_can_succeed(stub_server):
    stub_server.stub.update(slow_first=1, slow=1.0)
    enc = RemoteEmbedder(_url(stub_server, "/v1/embeddings"), dim=4, retries=0, timeout=0.3)
    with pytest.raises(ProviderTimeout):
        enc.encode("too slow")
    stub_server.stub.update(slow_first=1, slow=1.0)
    enc = RemoteEmbedder(_url(stub_server, "/v1/embeddings"), dim=4, retries=1, timeout=0.3,
                         backoff=0.01)
    assert np.allclose(enc.encode("fast the second time"), np.ones(4) / 2.0)
    assert stub_server.stub["calls"] == 3


def test_closed_port_is_transport_error():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    enc = RemoteEmbedder(f"http://127.0.0.1:{port}/v1/embeddings", dim=4, retries=0)
    with pytest.raises(TransportError):
        enc.encode("nobody listens")


@pytest.mark.parametrize("status, calls", [(429, 3), (503, 3), (400, 1), (404, 1)])
def test_429_and_5xx_are_retried_other_statuses_raised_at_once(stub_server, status, calls):
    stub_server.stub.update(fail_first=99, fail_status=status)
    enc = RemoteEmbedder(_url(stub_server, "/v1/embeddings"), dim=4, retries=2, backoff=0.01)
    with pytest.raises(TransportError) as info:
        enc.encode("refused")
    assert info.value.status == status
    assert stub_server.stub["calls"] == calls


@pytest.fixture()
def proxy_env(monkeypatch):
    """A clean proxy environment; returns a setter for it."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch.setenv


def test_http_proxy_gets_absolute_url_and_no_proxy_bypasses_it(stub_server, proxy_env):
    host, port = stub_server.server_address[:2]
    proxy_env("http_proxy", f"http://user:p%40ss@{host}:{port}")
    enc = RemoteEmbedder("http://provider.invalid/v1/embeddings", dim=4, retries=0)
    assert np.allclose(enc.encode("via the proxy"), np.ones(4) / 2.0)
    assert stub_server.stub["last_path"] == "http://provider.invalid/v1/embeddings"
    assert stub_server.stub["proxy_auth"] == "Basic " + base64.b64encode(b"user:p@ss").decode()

    proxy_env("http_proxy", "http://127.0.0.1:9")  # nothing listens there
    proxy_env("no_proxy", "localhost,127.0.0.1")
    direct = RemoteEmbedder(_url(stub_server, "/v1/embeddings"), dim=4, retries=0)
    assert np.allclose(direct.encode("around the proxy"), np.ones(4) / 2.0)
    assert stub_server.stub["last_path"] == "/v1/embeddings"
    assert stub_server.stub["proxy_auth"] is None


def test_all_proxy_serves_a_scheme_without_a_proxy_of_its_own(stub_server, proxy_env):
    host, port = stub_server.server_address[:2]
    proxy_env("all_proxy", f"http://{host}:{port}")
    enc = RemoteEmbedder("http://provider.invalid/v1/embeddings", dim=4, retries=0)
    assert np.allclose(enc.encode("via the proxy"), np.ones(4) / 2.0)
    assert stub_server.stub["last_path"] == "http://provider.invalid/v1/embeddings"


def test_https_goes_through_a_proxy_tunnel_and_checks_the_certificate(stub_server, proxy_env):
    host, port = stub_server.server_address[:2]
    proxy_env("https_proxy", f"http://{host}:{port}")
    enc = RemoteEmbedder("https://provider.invalid/v1/embeddings", dim=4, retries=0)
    with pytest.raises(TransportError):  # the stub is no TLS server
        enc.encode("through the tunnel")
    assert stub_server.stub["connects"] == ["provider.invalid:443"]
    assert stub_server.stub["calls"] == 0


@pytest.mark.parametrize(
    "url, api_key",
    [("ftp://provider.invalid/v1/embeddings", None), (None, "key\r\nX-Injected: 1")],
    ids=["not-http", "header-with-newline"],
)
def test_a_request_that_cannot_be_sent_is_transport_error(stub_server, url, api_key):
    enc = RemoteEmbedder(url or _url(stub_server, "/v1/embeddings"), dim=4, api_key=api_key,
                         retries=0)
    with pytest.raises(TransportError):
        enc.encode("never sent")
    assert stub_server.stub["calls"] == 0
