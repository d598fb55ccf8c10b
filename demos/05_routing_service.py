"""The HTTP routing service: route queries, register models, stay frozen.

The service wraps the whole pipeline behind four endpoints:

* GET  /healthz — liveness and version
* GET  /pool    — pool ids, profile spec, router checksum
* POST /route   — {"query_text": ..., "task_id"?: ...} -> chosen model
* POST /models  — a model-card JSON -> frozen-pool integration

This demo starts a server in-process on an ephemeral port, exercises
every endpoint with plain HTTP, and shows that registration grows the
pool without changing a single router weight.

Run from the repository root:  python3 demos/05_routing_service.py
"""

import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

from coldroute.config import AppConfig
from coldroute.service import make_server

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def section(title: str) -> None:
    print(f"\n=== {title} ===")


def call(url: str, body: dict | None = None) -> tuple[int, dict]:
    """GET ``url``, or POST ``body`` to it as JSON: (status, JSON reply)."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(url, data=data, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request) as reply:
            return reply.status, json.load(reply)
    except urllib.error.HTTPError as err:  # a 4xx or 5xx reply
        with err:
            return err.code, json.load(err)


def main() -> None:
    section("Starting the service")
    cfg = AppConfig(
        base_dir=FIXTURES,
        cards_dir=FIXTURES / "cards",
        dim=64,
        spec="emb:2",
        router="mlp",
        interactions=FIXTURES / "interactions.jsonl",
        tasks=FIXTURES / "tasks.jsonl",
        hidden=16,
        port=0,  # ephemeral port
    )
    httpd = make_server(cfg)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    base = f"http://{host}:{port}"
    print(f"listening on {base} (two-tower router over emb:2 profiles)")

    try:
        section("GET /healthz and GET /pool")
        print(f"/healthz -> {call(base + '/healthz')[1]}")
        pool = call(base + "/pool")[1]
        print(f"/pool    -> models {pool['models']}")
        print(f"            spec {pool['spec']}, router {pool['router']}, "
              f"checksum {pool['checksum'][:16]}...")

        section("POST /route")
        for text in (
            "Factor the quadratic x^2 - 5x + 6 and explain each step.",
            "Why does this recursive makefile rebuild everything every time?",
        ):
            reply = call(base + "/route", {"query_text": text})[1]
            ranked = sorted(reply["scores"].items(), key=lambda kv: -kv[1])
            print(f"  {text[:52]:<54} -> {reply['model_id']}")
            print(f"      top scores: " + ", ".join(f"{m} {s:.3f}" for m, s in ranked[:2]))

        section("POST /models: frozen-pool registration")
        card = json.loads((FIXTURES / "new_model.json").read_text())
        before = call(base + "/pool")[1]["checksum"]
        status, _ = call(base + "/models", card)
        after = call(base + "/pool")[1]
        print(f"registered {card['id']} -> HTTP {status}")
        print(f"pool now: {after['models']}")
        print(f"router checksum unchanged: {after['checksum'] == before}")

        duplicate, _ = call(base + "/models", card)
        print(f"registering {card['id']} again -> HTTP {duplicate} (conflict)")

        section("The newcomer is immediately routable")
        text = "Refactor this module to remove the circular import."
        reply = call(base + "/route", {"query_text": text})[1]
        print(f"  {text} -> {reply['model_id']}")
        print(f"  {card['id']} scored: {reply['scores'][card['id']]:.3f}")
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
        print("\nserver stopped.")


if __name__ == "__main__":
    main()
