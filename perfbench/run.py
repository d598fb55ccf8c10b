#!/usr/bin/env python3
"""Benchmark of coldroute: graph-router serving and text-profile admission.

    python3 perfbench/run.py --workload serve_graph --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The program under test is the
checkout's ``src/coldroute``, started as separate processes.  Every run
interleaves three stages (see ``stages.py``) in a fixed cycle, repeated
until ``--seconds`` have passed: beside the workload's own stage the two
others run as companions, so that every end-to-end metric is measured on
every workload.

With ``--trace 0`` the last line of stdout is one JSON object with the
end-to-end metrics; with ``--trace 1`` the run is made twice, untraced and
then traced through ``launch.py``, and the metrics are the per-layer ones
plus the tracing overhead.  The full result, with machine facts and every
stage's figures, is also written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from program import PINNED_ENV, ROOT, SRC, Program

os.environ.update(PINNED_ENV)  # this process imports numpy too

END_TO_END = {
    "setup_s": "s",
    "route_p50_ms": "ms",
    "route_per_s": "1/s",
    "register_p50_ms": "ms",
    "provider_calls_per_register": "calls",
    "coldstart_emb_s": "s",
    "coldstart_train_s": "s",
    "integrate_s": "s",
    "peak_rss_mb": "MB",
}

# workload -> (main stage, one cycle of (stage, steps)).  A run repeats whole
# cycles until --seconds have passed.  Short steps of different stages
# alternate, because the machine's speed swings by a third from one second
# to the next: a stage's samples should come from many moments of the run,
# not from one stretch of it.
WORKLOADS = {
    "serve_graph": ("serve", (("serve", 4), ("eval", 1), ("serve", 4), ("eval", 1),
                              ("admit", 1))),
    "admit_text": ("admit", (("admit", 1), ("serve", 1), ("eval", 1)) * 2),
}
MAIN_ONLY = ("setup_s", "peak_rss_mb")  # describe the workload's own processes
# tracing.overhead_pct compares the traced and untraced sums of these
OVERHEAD_OF = {
    "serve_graph": ("route_p50_ms",),
    "admit_text": ("register_p50_ms",),
}


@dataclass(frozen=True)
class Plan:
    """Operation counts of a run besides its timed cycles."""

    serve_starts: int = 3  # setup_s of serve_graph: median of this many service starts
    min_cycles: int = 3
    cards: int = 6  # registrations per admission service, then a fresh service


FULL = Plan()
SMOKE = Plan(serve_starts=1, min_cycles=1, cards=2)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 plan: Plan = FULL) -> tuple[dict, dict]:
    """Drive the workload's cycles; returns (stage outcomes, checkers by stage)."""
    import stages
    import worlds
    from stub import StubProvider

    main, cycle = WORKLOADS[workload]
    order = list(dict.fromkeys([main] + [name for name, _ in cycle]))
    checkers = {name: stages.Checker() for name in order}
    with StubProvider(dim=worlds.DIM, seed=seed) as stub:
        runners = {}
        for name in order:
            program = Program(workdir / name / "run", trace)
            inputs_dir = workdir / name / "inputs"
            if name == "serve":
                runners[name] = stages.ServeStage(
                    worlds.serve_inputs(seed, inputs_dir), program, checkers[name],
                    starts=plan.serve_starts if name == main else 1)
            elif name == "admit":
                runners[name] = stages.AdmitStage(
                    worlds.admit_inputs(seed, inputs_dir, stub.url, plan.cards), program,
                    checkers[name], stub)
            else:
                runners[name] = stages.EvalStage(
                    worlds.eval_inputs(seed, inputs_dir), program, checkers[name])
        try:
            for name in order:
                runners[name].open()
            with stages.no_gc():
                start = time.perf_counter()
                cycles = 0
                while cycles < plan.min_cycles or time.perf_counter() - start < seconds:
                    for name, steps in cycle:
                        for _ in range(steps):
                            runners[name].step()
                    cycles += 1
                for name in order:
                    runners[name].finish()
        finally:
            for runner in runners.values():
                runner.stop()
        outcomes = {name: runners[name].close() for name in order}
    return outcomes, checkers


def end_to_end(workload: str, outcomes: dict) -> dict[str, float]:
    main = WORKLOADS[workload][0]
    metrics = dict(outcomes[main].metrics)
    for stage in outcomes:
        for name, value in outcomes[stage].metrics.items():
            if name not in MAIN_ONLY:
                metrics.setdefault(name, value)
    return {name: metrics[name] for name in END_TO_END}


def per_layer(workload: str, outcomes: dict, plain: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, each from the first stage that has it."""
    from layers import TIMED, Spans

    order = list(outcomes)  # the main stage first
    spans = {stage: Spans(outcomes[stage].span_files) for stage in order}
    out: dict[str, tuple[float, str]] = {}

    def first(value_of):
        for stage in order:
            value = value_of(stage)
            if value is not None:
                return value
        return 0.0

    for metric, (span, mode) in TIMED.items():
        out[metric] = (first(lambda s: spans[s].per_op_ms(span, mode)), "ms")
    out["providers.encode_ms"] = (first(lambda s: spans[s].query_encode_ms()), "ms")

    def adam_steps(stage):
        steps = spans[stage].count("nn.adam_step")
        return steps / len(outcomes[stage].span_files) if steps else None

    out["nn.adam_steps"] = (first(adam_steps), "count")

    def http_ms(stage):
        server = spans[stage].server_ms()
        gaps = [ms - server[rid] for rid, ms in outcomes[stage].route_client_ms.items()
                if rid in server]
        return sum(gaps) / len(gaps) if gaps else None

    out["service.http_ms"] = (first(http_ms), "ms")
    stub_units = {"providers.embed_requests": "count", "providers.summarize_requests": "count",
                  "providers.prompt_kb": "KB", "providers.in_flight_max": "count"}
    for metric, unit in stub_units.items():
        out[metric] = (first(lambda s: outcomes[s].layer.get(metric)), unit)

    traced_e2e = end_to_end(workload, outcomes)
    plain_e2e = end_to_end(workload, plain)
    names = OVERHEAD_OF[workload]
    base = sum(plain_e2e[n] for n in names)
    out["tracing.overhead_pct"] = (100.0 * (sum(traced_e2e[n] for n in names) / base - 1), "%")
    return out


def machine_facts() -> dict:
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict mode; the fact is optional
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "git_sha": sha,
        "thread_env": dict(PINNED_ENV),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coldroute" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'coldroute'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    base = ROOT / ".perfbench"
    workdir = base / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    # A traced run is made of an untraced and a traced pass of half the length each.
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain, plain_checks = run_workload(args.workload, args.seed, seconds, False,
                                       workdir / "plain")
    runs = [(plain, plain_checks)]
    if args.trace:
        traced, traced_checks = run_workload(args.workload, args.seed, seconds, True,
                                             workdir / "traced")
        runs.append((traced, traced_checks))
        metrics = per_layer(args.workload, traced, plain)
    else:
        metrics = {name: (value, END_TO_END[name])
                   for name, value in end_to_end(args.workload, plain).items()}

    failures = [f"{stage}: {msg}" for _, checkers in runs for stage, check in checkers.items()
                for msg in check.failures]
    result = {
        "correct": not failures,
        "attempted": sum(o.attempted for outcomes, _ in runs for o in outcomes.values()),
        "failed": sum(o.failed for outcomes, _ in runs for o in outcomes.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(),
        "stages": {stage: {"metrics": o.metrics, "layer": o.layer, "quality": o.quality,
                           "attempted": o.attempted, "failed": o.failed}
                   for stage, o in plain.items()},
        "check_failures": failures[:50],
        "result": result,
    }
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=2, sort_keys=True))
    shutil.rmtree(workdir, ignore_errors=True)
    for message in failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"machine": detail["machine"], "detail": str(out.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
