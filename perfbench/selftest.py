#!/usr/bin/env python3
"""Self-test of the benchmark, well under a minute.

    python3 perfbench/selftest.py

1. Smoke: drives the three stages once at the ``SMOKE`` plan, traced, so
   every check runs on real program output and every per-layer metric is
   derived from real spans.
2. Faults: replays each check on the outputs it saw in the smoke run, once
   as seen (it must pass) and once per deliberate fault (it must fail).
3. Contract: ``BENCHMARK.json`` names exactly the workloads and metrics the
   runner reports, and the runner refuses a directory without the program.

Exits non-zero on any failure.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

from program import ROOT, SRC

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import run  # noqa: E402  - pins the BLAS threads of this process at import


def _other(ids, keep):
    return next(m for m in sorted(ids) if m != keep)


def _mut_graph_route_chosen(args):
    reply, pool = args
    reply["model_id"] = _other(reply["scores"], reply["model_id"])
    return reply, pool


def _mut_graph_route_floor(args):
    reply, pool = args
    low = min(reply["scores"], key=reply["scores"].get)
    reply["scores"][low] = 0.4999
    reply["model_id"] = checks.expected_choice(reply["scores"])
    return reply, pool


def _mut_graph_route_ids(args):
    reply, pool = args
    return reply, pool[:-1]


def _mut_repeat(args):
    first, again, qid = args
    key = sorted(again)[0]
    again[key] += 1e-9
    return first, again, qid


def _mut_checksum(args):
    return args[0], "0" * 64


def _mut_same_pool(args):
    return args[0], list(reversed(args[1]))


def _mut_beats_random(args):
    chosen, rewards, pool = args
    worst = [(q, min(pool, key=lambda m: rewards[(q, m)])) for q, _ in chosen]
    return worst, rewards, pool


def _mut_pool_growth(args):
    before, after, new_id = args
    return before, [new_id, *before], new_id


def _mut_hop1_extra(args):
    card, neighbors = args
    return card, [*neighbors, "bench_99_a"]


def _mut_hop1_family(args):
    card, neighbors = args
    return card, [n for n in neighbors if n != card["family_id"]]


def _mut_profile_vector(args):
    entry, summary, dim, seed = args
    entry["vector"][0] += 1e-6
    return entry, summary, dim, seed


def _mut_profile_summary(args):
    entry, summary, dim, seed = args
    return entry, summary + " (edited)", dim, seed


def _mut_sim_score(args):
    reply, profiles, text, dim, seed = args
    key = sorted(reply["scores"])[0]
    reply["scores"][key] += 1e-6
    return reply, profiles, text, dim, seed


def _mut_sim_chosen(args):
    reply, profiles, text, dim, seed = args
    reply["model_id"] = _other(reply["scores"], reply["model_id"])
    return reply, profiles, text, dim, seed


def _mut_report(field):
    def mutate(args):
        report, decisions, *rest = args
        if field == "ncir" and "ncir" not in report:
            report["ncir"] = 0.0
        if field in ("oracle", "random_mean"):
            report["baselines"][field] += 1.0 / len(decisions)
        else:
            report[field] = report.get(field, 0.0) + 1.0 / len(decisions)
        return (report, decisions, *rest)
    return mutate


def _mut_report_reward(args):
    report, decisions, *rest = args
    q, m, r = decisions[0]
    decisions[0] = (q, m, 1.0 - r)
    return (report, decisions, *rest)


def _mut_report_missing(args):
    report, decisions, *rest = args
    return (report, decisions[1:], *rest)


def _mut_eval_random(args):
    figures, label = args
    figures["average_performance"] = figures["random_mean"]
    return figures, label


FAULTS = {
    checks.check_graph_route: [("swapped chosen", _mut_graph_route_chosen),
                               ("score below the 0.5 floor", _mut_graph_route_floor),
                               ("scored ids not the /pool ids", _mut_graph_route_ids)],
    checks.check_repeat: [("perturbed repeat score", _mut_repeat)],
    checks.check_checksum: [("changed checksum", _mut_checksum)],
    checks.check_same_pool: [("reordered /pool ids", _mut_same_pool)],
    checks.check_beats_random: [("worst model chosen everywhere", _mut_beats_random)],
    checks.check_pool_growth: [("new id not appended last", _mut_pool_growth)],
    checks.check_hop1_prompt: [("extra neighbor", _mut_hop1_extra),
                               ("family missing", _mut_hop1_family)],
    checks.check_new_profile: [("perturbed profile vector", _mut_profile_vector),
                               ("profile of another summary", _mut_profile_summary)],
    checks.check_sim_route: [("perturbed score", _mut_sim_score),
                             ("swapped chosen", _mut_sim_chosen)],
    checks.check_report: [("wrong average_performance", _mut_report("average_performance")),
                          ("wrong oracle", _mut_report("oracle")),
                          ("wrong random_mean", _mut_report("random_mean")),
                          ("CSV reward not the table's", _mut_report_reward),
                          ("a query missing from the CSV", _mut_report_missing)],
    checks.check_eval_beats_random: [("no better than random", _mut_eval_random)],
}
# Applies to report checks of integration runs, the ones given a new model id.
NCIR_FAULT = ("wrong ncir", _mut_report("ncir"))


def fault_checks(samples: dict) -> list[str]:
    """Replay each check on its first and latest real arguments, then with faults."""
    problems = []
    for check, faults in FAULTS.items():
        name = check.__name__
        if check not in samples:
            problems.append(f"{name}: never ran in the smoke run")
            continue
        first, latest = samples[check]
        rejected = []
        for args in (first, latest) if latest is not first else (first,):
            cases = list(faults)
            if check is checks.check_report and len(args) > 5:
                cases.append(NCIR_FAULT)
            try:
                check(*copy.deepcopy(args))
            except checks.CheckFailed as exc:
                problems.append(f"{name}: fails on the program's own output: {exc}")
            for label, mutate in cases:
                try:
                    check(*mutate(copy.deepcopy(args)))
                    problems.append(f"{name}: accepted a fault ({label})")
                except checks.CheckFailed:
                    rejected.append(label)
        print(f"  {name}: passes the program's output; rejects "
              + ", ".join(dict.fromkeys(rejected)))
    return problems


def contract_problems(layer_names: set[str]) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"] for m in spec["per_layer"]} != layer_names:
        problems.append("BENCHMARK.json per_layer differs from the traced run's metrics")
    return problems


def refuses_without_program(scratch: Path) -> bool:
    """The runner exits non-zero in a directory holding only the benchmark."""
    bare = scratch / "bare"
    shutil.copytree(Path(__file__).resolve().parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_graph", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode != 0 and not proc.stdout.strip()


def main() -> int:
    scratch = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    problems = []

    print("smoke: every stage once, traced")
    outcomes, checkers = run.run_workload("admit_text", 3, 0.0, True, scratch / "smoke",
                                          run.SMOKE)
    for stage, check in checkers.items():
        problems += [f"smoke {stage}: {msg}" for msg in check.failures]
    e2e = run.end_to_end("admit_text", outcomes)
    layers = run.per_layer("admit_text", outcomes, outcomes)
    print("  end-to-end:", json.dumps({k: round(v, 4) for k, v in e2e.items()}))
    print(f"  per-layer: {len(layers)} metrics")

    print("faults: each check on real output, then on deliberately wrong answers")
    samples = {}
    for checker in checkers.values():
        samples.update(checker.samples)
    problems += fault_checks(samples)

    print("contract: BENCHMARK.json and a directory without the program")
    problems += contract_problems(set(layers))
    if not refuses_without_program(scratch):
        problems.append("run.py did not refuse a directory without src/coldroute")

    shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
