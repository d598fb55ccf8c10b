"""Run the coldroute CLI with its layer functions wrapped in span recorders.

    python3 perfbench/launch.py SPANS.json [coldroute CLI arguments...]

Before the CLI starts, every public function or method listed in
``TARGETS`` is replaced, in each ``coldroute`` module that holds a
reference to it, by a wrapper that records a span: name, start, end,
parent span and request id.  The request id is the client's
``X-Bench-Id`` header while an HTTP request is handled, ``-`` otherwise.
Spans stay in memory and are written to SPANS.json when the process exits;
SIGTERM, which stops the service, is turned into a normal exit.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import signal
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# span name -> (module, "function" or "Class.method") targets
TARGETS = {
    "graph.load_cards": [("coldroute.graph", "load_cards")],
    "graph.build_graph": [("coldroute.graph", "build_graph")],
    "graph.add_model_node": [("coldroute.graph", "add_model_node")],
    "providers.encode_all": [("coldroute.providers", "encode_all")],
    "providers.encode": [
        ("coldroute.providers", "DeterministicEmbedder.encode"),
        ("coldroute.providers", "RemoteEmbedder.encode"),
    ],
    "providers.summarize": [
        ("coldroute.providers", "EchoSummarizer.summarize"),
        ("coldroute.providers", "RemoteSummarizer.summarize"),
    ],
    "profiles.make_profiles": [("coldroute.profiles", "make_profiles")],
    "profiles.textgnn_run": [("coldroute.profiles", "textgnn_run")],
    "profiles.embgnn_propagate": [("coldroute.profiles", "embgnn_propagate")],
    "profiles.traingnn_fit": [("coldroute.profiles", "traingnn_fit")],
    "profiles.traingnn_states": [("coldroute.profiles", "traingnn_states")],
    "nn.adam_step": [("coldroute.nn", "adam_step")],
    "routers.route": [
        ("coldroute.routers", "sim_route"),
        ("coldroute.routers", "SimRouter.route"),
        ("coldroute.routers", "MlpRouter.route"),
        ("coldroute.routers", "GraphRouterLite.route"),
    ],
    "routers.fit": [
        ("coldroute.routers", "mlp_fit"),
        ("coldroute.routers", "graphrouter_fit"),
    ],
    "routers.checksum": [("coldroute.routers", "router_checksum")],
    "routers.integrate": [("coldroute.routers", "integrate_new_model")],
    "service.route": [("coldroute.service", "RoutingService.route")],
    "service.register": [("coldroute.service", "RoutingService.register")],
    "service.pool_info": [("coldroute.service", "RoutingService.pool_info")],
    "service.request": [
        ("coldroute.service", "_Handler.do_GET"),
        ("coldroute.service", "_Handler.do_POST"),
    ],
    "service.reply": [("coldroute.service", "_Handler._reply")],
    "evaluation.protocol": [
        ("coldroute.evaluation", "run_coldstart"),
        ("coldroute.evaluation", "run_integration"),
    ],
    "evaluation.metrics": [
        ("coldroute.evaluation", name)
        for name in ("average_performance", "ncir", "oracle", "single_best", "random_baseline")
    ],
    "cli.report": [("coldroute.cli", "_write_report")],
}


class SpanRecorder:
    """In-memory spans; ``wrap`` makes a recording wrapper for one function."""

    def __init__(self):
        self.spans: dict[int, tuple] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float) -> None:
        """A top-level span measured by the caller."""
        self.spans[next(self._ids)] = (name, start, end, 0, "-")

    def wrap(self, name: str, func):
        is_request = name == "service.request"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if is_request:
                self._local.rid = args[0].headers.get("X-Bench-Id", "-")
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                rid = getattr(self._local, "rid", "-")
                self.spans[span_id] = (name, start, end, parent, rid)
                if is_request:
                    self._local.rid = "-"

        return wrapper

    def dump(self, path: Path, argv: list[str]) -> None:
        rows = [[sid, *span] for sid, span in sorted(self.spans.items())]
        path.write_text(json.dumps({"argv": argv, "spans": rows}))


def install(recorder: SpanRecorder) -> None:
    """Replace every target in each loaded coldroute module that references it."""
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("coldroute") and m]
    for name, targets in TARGETS.items():
        for module_name, attr in targets:
            if module_name not in sys.modules:
                continue
            owner = sys.modules[module_name]
            *cls_path, func_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[func_name] if cls_path else getattr(owner, func_name)
            wrapped = recorder.wrap(name, original)
            if cls_path:
                setattr(owner, func_name, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def main() -> int:
    out_path, argv = Path(sys.argv[1]), sys.argv[2:]
    recorder = SpanRecorder()
    atexit.register(recorder.dump, out_path, argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.perf_counter()
    import coldroute.cli as cli

    recorder.record("cli.import", start, time.perf_counter())
    if argv[:1] == ["serve"]:
        import coldroute.service  # noqa: F401 - loaded here so its classes can be wrapped
    install(recorder)
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
