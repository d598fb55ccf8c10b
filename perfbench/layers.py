"""Per-layer metrics from the spans that traced processes write on exit.

A span's self time is its duration minus the durations of its direct
children.  Unless a metric says "self", a ``*_ms`` value is the inclusive
time of the outermost spans of that name divided by their number: nested
spans of the same name (``SimRouter.route`` calling ``sim_route``) count
as one operation.
"""

from __future__ import annotations

import json
from pathlib import Path

# metric -> (span name, "inclusive" | "self")
TIMED = {
    "graph.load_cards_ms": ("graph.load_cards", "inclusive"),
    "graph.build_graph_ms": ("graph.build_graph", "inclusive"),
    "graph.add_model_node_ms": ("graph.add_model_node", "inclusive"),
    "providers.encode_all_ms": ("providers.encode_all", "inclusive"),
    "providers.summarize_ms": ("providers.summarize", "inclusive"),
    "profiles.make_profiles_ms": ("profiles.make_profiles", "inclusive"),
    "profiles.textgnn_run_ms": ("profiles.textgnn_run", "inclusive"),
    "profiles.embgnn_propagate_ms": ("profiles.embgnn_propagate", "inclusive"),
    "profiles.traingnn_fit_ms": ("profiles.traingnn_fit", "inclusive"),
    "profiles.traingnn_states_ms": ("profiles.traingnn_states", "inclusive"),
    "nn.adam_step_ms": ("nn.adam_step", "inclusive"),
    "routers.route_ms": ("routers.route", "inclusive"),
    "routers.fit_ms": ("routers.fit", "inclusive"),
    "routers.checksum_ms": ("routers.checksum", "inclusive"),
    "routers.integrate_ms": ("routers.integrate", "self"),
    "service.route_ms": ("service.route", "self"),
    "service.register_ms": ("service.register", "self"),
    "service.pool_info_ms": ("service.pool_info", "self"),
    "evaluation.protocol_ms": ("evaluation.protocol", "self"),
    "evaluation.metrics_ms": ("evaluation.metrics", "inclusive"),
    "cli.import_ms": ("cli.import", "inclusive"),
    "cli.report_ms": ("cli.report", "inclusive"),
}


class Spans:
    """All spans of a set of processes, with self times worked out."""

    def __init__(self, files: list[Path]):
        self.rows: list[dict] = []
        for path in files:
            spans = json.loads(Path(path).read_text())["spans"]
            by_id = {}
            for sid, name, start, end, parent, rid in spans:
                by_id[sid] = {"name": name, "start": start, "dur": end - start,
                              "parent": parent, "rid": rid, "child": 0.0, "outer": True}
            for row in by_id.values():
                parent = by_id.get(row["parent"])
                if parent is not None:
                    parent["child"] += row["dur"]
                ancestor = parent
                while ancestor is not None:
                    if ancestor["name"] == row["name"]:
                        row["outer"] = False
                        break
                    ancestor = by_id.get(ancestor["parent"])
                row["parent_name"] = parent["name"] if parent else None
            self.rows.extend(by_id.values())

    def per_op_ms(self, name: str, mode: str) -> float | None:
        rows = [r for r in self.rows if r["name"] == name]
        outer = sum(1 for r in rows if r["outer"])
        if not outer:
            return None
        if mode == "self":
            total = sum(r["dur"] - r["child"] for r in rows)
        else:
            total = sum(r["dur"] for r in rows if r["outer"])
        return 1e3 * total / outer

    def query_encode_ms(self) -> float | None:
        """Encoder time on the query path: encode spans under ``service.route``."""
        rows = [r for r in self.rows
                if r["name"] == "providers.encode" and r["parent_name"] == "service.route"]
        return 1e3 * sum(r["dur"] for r in rows) / len(rows) if rows else None

    def count(self, name: str) -> int:
        return sum(1 for r in self.rows if r["name"] == name)

    def server_ms(self) -> dict[str, float]:
        """Request id -> server-side time of that HTTP request.

        It runs from the handler's start to the start of its reply.  The end
        of the handler span is no use: once the reply is sent, the client's
        next request can take the interpreter lock and delay it.
        """
        starts = {r["rid"]: r["start"] for r in self.rows
                  if r["name"] == "service.request" and r["rid"] != "-"}
        return {r["rid"]: 1e3 * (r["start"] - starts[r["rid"]]) for r in self.rows
                if r["name"] == "service.reply" and r["rid"] in starts}
