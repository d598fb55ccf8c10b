"""The three stages of a run, as steppers a schedule interleaves.

* ``ServeStage``: a ``coldroute serve`` process with ``emb:2`` and
  ``graphrouter``; a step is a burst of ``ROUTES_PER_POOL`` ``POST /route``
  then one ``GET /pool``.
* ``AdmitStage``: a ``coldroute serve`` process with ``text:2`` and ``sim``
  whose providers are the stub; a step registers the next card with
  ``POST /models``, then sends ``ROUTES_PER_CARD`` routes.  After the last
  card the service is stopped and the next step starts a fresh one, so
  every service sees the same card sequence from the same state.
* ``EvalStage``: a step runs the next command of its rotation: ``eval
  coldstart`` with ``emb:2`` or ``train:2``, or ``eval integrate --router
  graphrouter``.

One client issues one request at a time.  Steps of different stages are
interleaved over the whole run, so every metric samples the whole run
rather than one stretch of it; on a shared machine the speed drifts over
seconds.  ``finish`` completes a partly done round, ``stop`` ends the
stage's processes, and ``close`` runs the checks that wait for the end and
returns the stage's figures.
"""

from __future__ import annotations

import gc
import json
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import checks
from program import Program
from stub import StubProvider
from worlds import DIM, AdmitInputs, EvalInputs, ServeInputs

WARMUP_ROUTES = 40
ROUTES_PER_POOL = 20
ROUTES_PER_CARD = 4
EVAL_ROTATION = ("emb:2", "train:2", "integrate")


@dataclass
class StageOutcome:
    metrics: dict[str, float]
    attempted: int = 0
    failed: int = 0
    span_files: list[Path] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)  # measured at the stub
    route_client_ms: dict[str, float] = field(default_factory=dict)  # request id -> latency
    quality: dict[str, dict] = field(default_factory=dict)  # eval kind -> report figures


class Checker:
    """Runs checks, keeping every failure message instead of stopping.

    The arguments of each check's first and latest call are kept in
    ``samples``, so the self-test can replay a check on real outputs with a
    deliberate fault.
    """

    def __init__(self):
        self.failures: list[str] = []
        self.samples: dict = {}  # check -> [first args, latest args]

    def __call__(self, check, *args):
        self.samples.setdefault(check, [args, args])[1] = args
        try:
            return check(*args)
        except checks.CheckFailed as exc:
            self.failures.append(str(exc))
            return None


@contextmanager
def no_gc():
    """Keep the client's garbage collector out of the timed loop."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def best_burst(bursts: list[list[float]], stat=statistics.median, pick=min) -> float:
    """``stat`` of each burst of back-to-back routes, from the run's best burst.

    On a shared machine the speed of the same code swings by a third from
    one second to the next, and only ever downwards from what the program
    can do.  A burst lasts a tenth of a second, so some bursts of every run
    fall in an undisturbed moment, and the best burst repeats from run to
    run where the whole run's figures do not (the reason ``timeit`` reports
    a minimum).  ``pick`` is ``max`` for a rate.
    """
    return pick(stat(burst) for burst in bursts)


def p90(values: list[float]) -> float:
    return percentile(values, 0.9)


def per_second(latencies: list[float]) -> float:
    return len(latencies) / sum(latencies)


def table(rewards) -> dict:
    return {(r.query_id, r.model_id): r.reward for r in rewards.to_records()}


class _Stage:
    """``open``, then ``step`` any number of times, ``finish``, ``stop``, ``close``."""

    def __init__(self, program: Program, check: Checker):
        self.program = program
        self.check = check
        self.attempted = 0
        self.failed = 0

    def _ok(self, reply) -> bool:
        self.attempted += 1
        if reply.status != 200:
            self.failed += 1
            return False
        return True

    def finish(self) -> None:
        pass

    def _outcome(self, metrics: dict, **extra) -> StageOutcome:
        return StageOutcome(metrics, self.attempted, self.failed,
                            list(self.program.span_files), **extra)


class ServeStage(_Stage):
    def __init__(self, inputs: ServeInputs, program: Program, check: Checker, starts: int):
        super().__init__(program, check)
        self.inputs = inputs
        self.starts = starts
        self.setups, self.rss = [], []
        self.routes, self.pools = [], []  # (query id, reply), replies
        self.route_s, self.pool_s = [], []  # route latencies by burst, pool latencies
        self.svc = None
        self.i = 0

    def open(self) -> None:
        for _ in range(self.starts - 1):
            with self.program.service(self.inputs.config) as svc:
                self.setups.append(svc.setup_s)
            self.rss.append(svc.rss_mb)
        self.svc = self.program.service(self.inputs.config)
        self.setups.append(self.svc.setup_s)
        self.attempted += self.starts
        for _ in range(WARMUP_ROUTES):
            self._route()
        self.warm_pool = self.svc.request("GET", "/pool")
        self._ok(self.warm_pool)
        self.warm_routes = len(self.routes)
        self.i = 0  # the load starts over, so its first routes repeat warm-up queries

    def _route(self):
        qid, text, task = self.inputs.queries[self.i % len(self.inputs.queries)]
        self.i += 1
        reply = self.svc.request("POST", "/route", {"query_text": text, "task_id": task})
        if self._ok(reply):
            self.routes.append((qid, reply))
        return reply

    def step(self) -> None:
        self.route_s.append([self._route().latency_s for _ in range(ROUTES_PER_POOL)])
        reply = self.svc.request("GET", "/pool")
        if self._ok(reply):
            self.pools.append(reply)
        self.pool_s.append(reply.latency_s)

    def stop(self) -> None:
        if self.svc is not None:
            self.svc.stop()
            self.rss.append(self.svc.rss_mb)
            self.svc = None

    def close(self) -> StageOutcome:
        check = self.check
        pool_ids = self.warm_pool.body.get("models", [])
        checksum = self.warm_pool.body.get("checksum")
        seen: dict[str, dict] = {}
        for qid, reply in self.routes:
            check(checks.check_graph_route, reply.body, pool_ids)
            if qid in seen:
                check(checks.check_repeat, seen[qid], reply.body["scores"], qid)
            seen.setdefault(qid, reply.body["scores"])
        for reply in self.pools:
            check(checks.check_checksum, checksum, reply.body["checksum"])
            check(checks.check_same_pool, pool_ids, reply.body["models"])
        check(checks.check_beats_random, [(q, r.body["model_id"]) for q, r in self.routes],
              table(self.inputs.rewards), pool_ids)
        timed = self.routes[self.warm_routes:]
        return self._outcome(
            {
                "setup_s": statistics.median(self.setups),
                "route_p50_ms": 1e3 * best_burst(self.route_s),
                "route_p90_ms": 1e3 * best_burst(self.route_s, p90),
                "route_per_s": best_burst(self.route_s, per_second, max),
                "pool_p50_ms": 1e3 * statistics.median(self.pool_s),
                "peak_rss_mb": max(self.rss),
            },
            route_client_ms={r.rid: 1e3 * r.latency_s for _, r in timed},
        )


class AdmitStage(_Stage):
    def __init__(self, inputs: AdmitInputs, program: Program, check: Checker,
                 stub: StubProvider):
        super().__init__(program, check)
        self.inputs = inputs
        self.stub = stub
        self.svc = None
        self.card = 0
        self.q = 0
        self.setups, self.rss, self.register_s, self.route_s = [], [], [], []
        self.embeds, self.chats, self.prompt_kb, self.in_flight = [], [], [], []
        self.route_client: dict[str, float] = {}

    def open(self) -> None:
        pass

    def _restart(self) -> None:
        self.stop()
        self.inputs.state_path.unlink(missing_ok=True)
        self.svc = self.program.service(self.inputs.config)
        self.attempted += 1
        self.setups.append(self.svc.setup_s)
        self.card = 0
        reply = self.svc.request("GET", "/pool")
        self._ok(reply)
        self.pool_ids = reply.body.get("models", [])
        self.checksum = reply.body.get("checksum")

    def stop(self) -> None:
        if self.svc is not None:
            self.svc.stop()
            self.rss.append(self.svc.rss_mb)
            self.svc = None

    def finish(self) -> None:
        """Register the rest of the current service's cards: every run makes whole rounds."""
        while self.svc is not None and self.card < len(self.inputs.cards):
            self.step()

    def step(self) -> None:
        if self.svc is None or self.card == len(self.inputs.cards):
            self._restart()
        card = self.inputs.cards[self.card]
        self.card += 1
        stub, check = self.stub, self.check
        stub.forget(card["id"])
        before = stub.snapshot()
        reply = self.svc.request("POST", "/models", card)
        after = stub.snapshot()
        if not self._ok(reply):
            return
        self.register_s.append(reply.latency_s)
        self.embeds.append(after["embed_requests"] - before["embed_requests"])
        self.chats.append(after["chat_requests"] - before["chat_requests"])
        self.prompt_kb.append((after["prompt_bytes"] - before["prompt_bytes"]) / 1024)
        self.in_flight.append(after["in_flight_max"])
        check(checks.check_pool_growth, self.pool_ids, reply.body["models"], card["id"])
        check(checks.check_checksum, self.checksum, reply.body["checksum"])
        check(checks.check_hop1_prompt, card, stub.hop1_neighbors.get(card["id"]))
        self.pool_ids = reply.body["models"]
        profiles = checks.read_state_profiles(self.inputs.state_path)
        check(checks.check_new_profile, profiles[card["id"]],
              stub.last_summary.get(card["id"]), DIM, stub.seed)
        burst = []
        for _ in range(ROUTES_PER_CARD):
            text = self.inputs.queries[self.q % len(self.inputs.queries)]
            self.q += 1
            reply = self.svc.request("POST", "/route", {"query_text": text})
            if not self._ok(reply):
                continue
            burst.append(reply.latency_s)
            self.route_client[reply.rid] = 1e3 * reply.latency_s
            check(checks.check_sim_route, reply.body, profiles, text, DIM, self.stub.seed)
        if burst:
            self.route_s.append(burst)

    def close(self) -> StageOutcome:
        registrations = len(self.register_s)
        return self._outcome(
            {
                "setup_s": statistics.median(self.setups),
                "route_p50_ms": 1e3 * best_burst(self.route_s),
                "route_p90_ms": 1e3 * best_burst(self.route_s, p90),
                "route_per_s": best_burst(self.route_s, per_second, max),
                "register_p50_ms": 1e3 * statistics.median(self.register_s),
                "provider_calls_per_register":
                    (sum(self.embeds) + sum(self.chats)) / registrations,
                "peak_rss_mb": max(self.rss),
            },
            layer={
                "providers.embed_requests": sum(self.embeds) / registrations,
                "providers.summarize_requests": sum(self.chats) / registrations,
                "providers.prompt_kb": sum(self.prompt_kb) / registrations,
                "providers.in_flight_max": max(self.in_flight),
            },
            route_client_ms=self.route_client,
        )


class EvalStage(_Stage):
    def __init__(self, inputs: EvalInputs, program: Program, check: Checker):
        super().__init__(program, check)
        self.inputs = inputs
        self.n = 0
        self.walls = {kind: [] for kind in EVAL_ROTATION}
        self.rss = []
        self.quality: dict[str, dict] = {}  # kind -> recomputed report figures
        self.reports = program.workdir / "reports"
        self.cold_rewards = table(inputs.coldstart_rewards)
        self.integ_rewards = table(inputs.integrate_rewards)

    def open(self) -> None:
        self.reports.mkdir(parents=True, exist_ok=True)
        self.program.cli(["--version"])  # warm-up, untimed
        self.attempted += 1

    def step(self) -> None:
        kind = EVAL_ROTATION[self.n % len(EVAL_ROTATION)]
        self.n += 1
        base = self.reports / f"{kind.replace(':', '')}-{self.n}"
        inputs, check = self.inputs, self.check
        if kind == "integrate":
            args = ["eval", "integrate", "--config", str(inputs.integrate_config),
                    "--router", "graphrouter", "--spec", "emb:2", "--out", str(base)]
        else:
            args = ["eval", "coldstart", "--config", str(inputs.coldstart_config),
                    "--spec", kind, "--out", str(base)]
        run = self.program.cli(args)
        self.attempted += 1
        self.walls[kind].append(run.wall_s)
        self.rss.append(run.rss_mb)
        if kind == "integrate":
            figures = check(checks.check_report, *_read_report(base), self.integ_rewards,
                            sorted({q for q, _ in self.integ_rewards}), inputs.integrate_pool,
                            inputs.new_model_id)
        else:
            figures = check(checks.check_report, *_read_report(base), self.cold_rewards,
                            sorted({q for q, _ in self.cold_rewards}), inputs.coldstart_pool)
        if figures:
            self.quality[kind] = figures
        # emb:2 beat random on every world tried; train:2 and graph-router
        # integration fall below it on some seeds (see README), so their
        # figures are recorded, not gated.
        if figures and kind == "emb:2":
            check(checks.check_eval_beats_random, figures, "emb:2 cold start")

    def finish(self) -> None:
        """Run the rest of the rotation: every run makes whole rounds."""
        while self.n % len(EVAL_ROTATION):
            self.step()

    def stop(self) -> None:
        pass  # every command has ended when its step returns

    def close(self) -> StageOutcome:
        names = {"emb:2": "coldstart_emb_s", "train:2": "coldstart_train_s",
                 "integrate": "integrate_s"}
        metrics = {names[kind]: statistics.median(walls) for kind, walls in self.walls.items()}
        metrics["peak_rss_mb"] = max(self.rss)
        return self._outcome(metrics, quality=self.quality)


def _read_report(base: Path) -> tuple[dict, list]:
    """The report JSON and the decisions of its CSV."""
    report = json.loads(base.with_suffix(".json").read_text())
    return report, checks.read_decisions(base.with_suffix(".csv"))
