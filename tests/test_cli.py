"""Command-line interface: every subcommand, exit codes, and --json output."""

import hashlib
import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from coldroute.cli import main
from coldroute.config import ENV_CONFIG, PoolState, build_world_graph, load_config
from coldroute.errors import ConfigError
from coldroute.graph import load_cards
from coldroute.profiles import load_profiles
from coldroute.routers import GraphRouterLite, InteractionRecord, load_router
from coldroute.service import RoutingService

from conftest import FIXTURE_DIR

CARDS = str(FIXTURE_DIR / "cards")
COLDSTART_CFG = str(FIXTURE_DIR / "coldstart.json")
INTEGRATE_CFG = str(FIXTURE_DIR / "integrate.json")
CATALOG = ["model_00_00", "model_00_01", "model_01_00", "model_01_01"]
# `coldroute graph build --cards fixtures/cards --out FILE`: the SHA-256 of FILE
GRAPH_BUILD_SHA256 = "5ea900e52f5ef5caa8989151248687902d6f7b3b1852c8de360381232332795d"


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv(ENV_CONFIG, raising=False)


def _json_out(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


# --- graph -----------------------------------------------------------------

def test_graph_validate_reports_shape(capsys):
    assert main(["graph", "validate", "--cards", CARDS]) == 0
    out = capsys.readouterr().out
    assert "nodes: 35" in out and "edges: 40" in out and "valid: True" in out


def test_graph_build_writes_loadable_snapshot(tmp_path, capsys):
    out = tmp_path / "graph.json"
    assert main(["graph", "build", "--cards", CARDS, "--out", str(out), "--json"]) == 0
    payload = _json_out(capsys)
    assert payload["nodes"] == 35 and payload["path"] == str(out)
    doc = json.loads(out.read_text())
    assert doc == build_world_graph(load_cards(CARDS), 64).to_snapshot()
    assert len(doc["nodes"]) == 35 and doc["dim"] == 64
    # the bytes themselves, so that a change of the graph's representation
    # cannot alter the file and the snapshot it is compared with together
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GRAPH_BUILD_SHA256


def test_graph_validate_rejects_dangling_cards(tmp_path, capsys):
    bad = tmp_path / "cards"
    bad.mkdir()
    (bad / "families.json").write_text("[]")
    (bad / "models.json").write_text(
        json.dumps([{"id": "model_00", "family_id": "fam_missing", "description": "x", "scores": {}}])
    )
    (bad / "benchmarks.json").write_text("[]")
    (bad / "domains.json").write_text("[]")
    (bad / "queries.jsonl").write_text("")
    assert main(["graph", "validate", "--cards", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


# --- profiles --------------------------------------------------------------

def test_profile_command_writes_profiles(tmp_path, capsys):
    out = tmp_path / "profiles.jsonl"
    rc = main(
        ["profile", "--config", COLDSTART_CFG, "--spec", "emb:2", "--out", str(out), "--json"]
    )
    assert rc == 0
    payload = _json_out(capsys)
    assert payload["spec"] == "emb:2" and payload["models"] == 4
    profiles = load_profiles(out)
    assert sorted(profiles) == CATALOG


def test_profile_trainable_spec_also_saves_aggregator(tmp_path, capsys):
    out = tmp_path / "profiles.jsonl"
    rc = main(
        ["profile", "--config", COLDSTART_CFG, "--spec", "train:1", "--out", str(out), "--json"]
    )
    assert rc == 0
    payload = _json_out(capsys)
    agg = json.loads((tmp_path / "profiles.aggregator.json").read_text())
    assert payload["aggregator"].endswith("profiles.aggregator.json")
    assert agg["depth"] == 1


# --- router training and routing -------------------------------------------

@pytest.mark.parametrize("kind", ["sim", "mlp", "graphrouter"])
def test_router_train_writes_checkpoint_and_pool(tmp_path, capsys, kind):
    out = tmp_path / "router.json"
    pool_out = tmp_path / "pool.json"
    rc = main(
        [
            "router", "train", kind,
            "--config", INTEGRATE_CFG,
            "--out", str(out), "--pool-out", str(pool_out), "--json",
        ]
    )
    assert rc == 0
    payload = _json_out(capsys)
    assert payload["router"] == kind
    assert len(payload["checksum"]) == 64 and int(payload["checksum"], 16) >= 0
    router = load_router(out)
    assert router.to_checkpoint()["kind"] == kind
    pool, cards = PoolState.read(pool_out)
    assert pool.ids == CATALOG and cards == []


def test_route_command_uses_trained_router(tmp_path, capsys):
    out, pool_out = tmp_path / "router.json", tmp_path / "pool.json"
    main(["router", "train", "mlp", "--config", INTEGRATE_CFG,
          "--out", str(out), "--pool-out", str(pool_out)])
    capsys.readouterr()
    rc = main(
        [
            "route", "--config", INTEGRATE_CFG,
            "--router", str(out), "--pool-state", str(pool_out),
            "--query", "Fix the flaky unit test in the parser module.", "--json",
        ]
    )
    assert rc == 0
    payload = _json_out(capsys)
    assert payload["model_id"] in CATALOG
    assert sorted(payload["scores"]) == CATALOG


def test_route_command_graphrouter_needs_task(tmp_path, capsys):
    out, pool_out = tmp_path / "router.json", tmp_path / "pool.json"
    main(["router", "train", "graphrouter", "--config", INTEGRATE_CFG,
          "--out", str(out), "--pool-out", str(pool_out)])
    capsys.readouterr()
    base = [
        "route", "--config", INTEGRATE_CFG,
        "--router", str(out), "--pool-state", str(pool_out),
        "--query", "Sum the first ten squares.",
    ]
    assert main(base) == 1  # no --task
    assert "error:" in capsys.readouterr().err
    assert main(base + ["--task", "task_00", "--json"]) == 0
    assert _json_out(capsys)["model_id"] in CATALOG


def test_route_without_pool_source_fails(capsys):
    rc = main(["route", "--config", COLDSTART_CFG, "--query", "hello"])
    assert rc == 1
    assert "pool" in capsys.readouterr().err


# --- evaluation ------------------------------------------------------------

def test_eval_coldstart_is_byte_deterministic(tmp_path, capsys):
    for name in ("a", "b"):
        rc = main(
            ["eval", "coldstart", "--config", COLDSTART_CFG,
             "--out", str(tmp_path / name), "--json"]
        )
        assert rc == 0
        payload = _json_out(capsys)
        assert payload["protocol"] == "coldstart"
        assert 0.0 <= payload["average_performance"] <= payload["oracle"]
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_eval_integrate_reports_ncir_and_checksum(tmp_path, capsys):
    rc = main(
        ["eval", "integrate", "--config", INTEGRATE_CFG,
         "--out", str(tmp_path / "int"), "--json"]
    )
    assert rc == 0
    payload = _json_out(capsys)
    assert "ncir" in payload and payload["router"] == "graphrouter"
    report = json.loads((tmp_path / "int.json").read_text())
    assert report["new_model_id"] == "model_01_02"
    assert len(report["router_checksum"]) == 64
    assert report["num_queries"] == 12


def test_eval_integrate_rejects_leaked_interactions(tmp_path, capsys):
    leaked = tmp_path / "interactions.jsonl"
    rows = (FIXTURE_DIR / "interactions.jsonl").read_text()
    leak_row = json.dumps(
        {"model_id": "model_01_02", "query_id": "q_00_0000", "reward": 1.0}, sort_keys=True
    )
    leaked.write_text(rows + leak_row + "\n")
    cfg = json.loads((FIXTURE_DIR / "integrate.json").read_text())
    cfg["cards_dir"] = str(FIXTURE_DIR / "cards")
    cfg["rewards"] = str(FIXTURE_DIR / "rewards.jsonl")
    cfg["tasks"] = str(FIXTURE_DIR / "tasks.jsonl")
    cfg["new_model_card"] = str(FIXTURE_DIR / "new_model.json")
    cfg["interactions"] = str(leaked)
    cfg_path = tmp_path / "leaky.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(
        ["eval", "integrate", "--config", str(cfg_path), "--out", str(tmp_path / "x")]
    )
    assert rc == 1
    assert "model_01_02" in capsys.readouterr().err


# --- integration subcommand ------------------------------------------------

def test_integrate_command_grows_pool_and_stays_frozen(tmp_path, capsys):
    state = tmp_path / "pool_state.json"
    rc = main(
        [
            "integrate", "--config", INTEGRATE_CFG,
            "--card", str(FIXTURE_DIR / "new_model.json"),
            "--pool-state", str(state), "--json",
        ]
    )
    assert rc == 0
    payload = _json_out(capsys)
    assert payload["integrated"] == "model_01_02"
    assert payload["frozen"] is True
    assert payload["pool"] == CATALOG + ["model_01_02"]
    pool, cards = PoolState.read(state)
    assert pool.ids == CATALOG + ["model_01_02"]
    assert [c.id for c in cards] == ["model_01_02"]


def _integrate_cfg(tmp_path, **overrides) -> str:
    """The integration fixture config with absolute paths, written under ``tmp_path``."""
    cfg = json.loads((FIXTURE_DIR / "integrate.json").read_text())
    for key in ("cards_dir", "rewards", "tasks", "new_model_card", "interactions"):
        cfg[key] = str(FIXTURE_DIR / cfg[key])
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


SECOND_CARD = {
    "id": "model_01_03",
    "family_id": "fam_01",
    "description": "A code assistant focused on dependency upgrades and build scripts.",
    "scores": {"bench_01_a": 0.6},
}


@pytest.mark.parametrize("spec", ["emb:2", "text:2", "train:1"])
def test_integrate_twice_into_one_state_profiles_as_the_service_does(tmp_path, capsys, spec):
    cfg = _integrate_cfg(tmp_path, spec=spec, router="sim")
    second = tmp_path / "second.json"
    second.write_text(json.dumps(SECOND_CARD))
    state = tmp_path / "state.json"
    for card in (FIXTURE_DIR / "new_model.json", second):
        assert main(["integrate", "--config", cfg, "--card", str(card),
                     "--pool-state", str(state)]) == 0
    capsys.readouterr()
    service = RoutingService(load_config(cfg))
    for entry in (json.loads((FIXTURE_DIR / "new_model.json").read_text()), SECOND_CARD):
        service.register(entry)
    pool, _ = PoolState.read(state)
    assert pool.ids == service.state.pool.ids == CATALOG + ["model_01_02", "model_01_03"]
    for model_id in ("model_01_02", "model_01_03"):
        delta = np.abs(pool.get(model_id).vector - service.state.pool.get(model_id).vector).max()
        assert delta == 0.0, (model_id, delta)


def test_state_naming_a_model_outside_the_graph_is_refused(tmp_path, capsys):
    """A state written under another cards directory, by the CLI or the service."""
    cards = tmp_path / "cards"
    shutil.copytree(FIXTURE_DIR / "cards", cards)
    _edit_json(cards / "models.json", lambda rows: rows.append(dict(rows[0], id="model_00_02")))
    other = Path(_integrate_cfg(tmp_path, cards_dir=str(cards))).rename(tmp_path / "other.json")
    own = _integrate_cfg(tmp_path)
    state = tmp_path / "state.json"
    assert main(["router", "train", "sim", "--config", str(other),
                 "--out", str(tmp_path / "r.json"), "--pool-out", str(state)]) == 0
    saved = state.read_bytes()
    capsys.readouterr()
    assert main(["integrate", "--config", own, "--card", str(FIXTURE_DIR / "new_model.json"),
                 "--pool-state", str(state)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(state) in err and "model_00_02" in err
    assert state.read_bytes() == saved
    with pytest.raises(ConfigError) as refused:
        RoutingService(replace(load_config(own), router="sim", state_path=state))
    assert str(state) in str(refused.value) and "model_00_02" in str(refused.value)


BAD_CARDS = {
    "no_description": json.dumps({"id": "model_01_02", "family_id": "fam_01", "scores": {}}),
    "word_score": json.dumps(
        {
            "id": "model_01_02",
            "family_id": "fam_01",
            "description": "A model.",
            "scores": {"bench_00_a": "high"},
        }
    ),
    "not_an_object": json.dumps(["model_01_02"]),
    "not_json": "{\"id\": ",
}


@pytest.mark.parametrize("command", ["integrate", "eval integrate"])
@pytest.mark.parametrize("bad", sorted(BAD_CARDS))
def test_bad_card_file_exits_1_with_an_error_line(tmp_path, capsys, command, bad):
    card = tmp_path / "card.json"
    card.write_text(BAD_CARDS[bad])
    state = tmp_path / "state.json"
    if command == "integrate":
        argv = ["integrate", "--config", INTEGRATE_CFG, "--card", str(card),
                "--pool-state", str(state)]
    else:
        argv = ["eval", "integrate", "--config", _integrate_cfg(tmp_path, new_model_card=str(card)),
                "--out", str(tmp_path / "report")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert command != "integrate" or str(card) in err
    assert not state.exists() and not (tmp_path / "report.json").exists()


# --- malformed input files ----------------------------------------------------

def _edit_json(path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def _edit_row(path, index: int, change) -> None:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    change(rows[index])
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def _profile_row(model_id: str) -> dict:
    return {"model_id": model_id, "spec": "emb:2", "vector": [0.125] * 64}


def _bench_without_domain(fx):
    _edit_json(fx / "cards" / "benchmarks.json", lambda rows: rows[0].pop("domain_id"))
    return ["graph", "validate", "--cards", str(fx / "cards")], "benchmarks.json[entry 0]"


def _unknown_score_scale(fx):
    _edit_json(fx / "cards" / "benchmarks.json", lambda rows: rows[2].update(score_scale="percentage"))
    return ["graph", "validate", "--cards", str(fx / "cards")], "benchmarks.json[entry 2]"


def _dim_is_a_word(fx):
    _edit_json(fx / "coldstart.json", lambda cfg: cfg.update(dim="abc"))
    argv = ["profile", "--config", str(fx / "coldstart.json"), "--out", str(fx / "p.jsonl")]
    return argv, "coldstart.json"


def _encoder_option_misspelt(fx):
    encoder = {"kind": "remote", "url": "http://127.0.0.1:9/v1/embeddings", "timout": 3}
    _edit_json(fx / "coldstart.json", lambda cfg: cfg.update(encoder=encoder))
    argv = ["profile", "--config", str(fx / "coldstart.json"), "--out", str(fx / "p.jsonl")]
    return argv, "'timout'"


def _summarizer_option_misspelt(fx):
    summarizer = {"kind": "remote", "url": "http://127.0.0.1:9/v1/chat", "max_in_fligth": 2}
    _edit_json(fx / "coldstart.json", lambda cfg: cfg.update(summarizer=summarizer))
    argv = ["profile", "--config", str(fx / "coldstart.json"), "--out", str(fx / "p.jsonl")]
    return argv, "'max_in_fligth'"


def _config_edit(name: str, change):
    """A malformed-input case: ``coldroute profile`` on the config edited by ``change``."""
    def make(fx):
        _edit_json(fx / "coldstart.json", change)
        argv = ["profile", "--config", str(fx / "coldstart.json"), "--out", str(fx / "p.jsonl")]
        return argv, "coldstart.json"
    make.__name__ = f"_{name}"
    return make


_CONFIG_EDITS = [
    _config_edit("random_seeds_empty", lambda cfg: cfg.update(random_seeds=[])),
    _config_edit("random_seed_negative", lambda cfg: cfg.update(random_seeds=[-1])),
    _config_edit("seed_negative", lambda cfg: cfg.update(seed=-1)),
    _config_edit("dim_zero", lambda cfg: cfg.update(dim=0)),
    _config_edit("dim_negative", lambda cfg: cfg.update(dim=-2)),
    _config_edit("hidden_zero", lambda cfg: cfg.update(hidden=0)),
    _config_edit("hidden_negative", lambda cfg: cfg.update(hidden=-1)),
    *(_config_edit(f"deterministic_{name}", lambda cfg, options=options: cfg.update(
        encoder={"kind": "deterministic", **options}))
      for name, options in (("seed_a_word", {"seed": "abc"}), ("seed_a_fraction", {"seed": 1.7}),
                            ("option_unknown", {"sed": 0}))),
    _config_edit("echo_option_unknown",
                 lambda cfg: cfg.update(summarizer={"kind": "echo", "url": "http://x"})),
    _config_edit("spec_unparsed", lambda cfg: cfg.update(spec="emb:x")),
    _config_edit("router_unknown", lambda cfg: cfg.update(router="gnn")),
    _config_edit("encoder_kind_unknown", lambda cfg: cfg.update(encoder={"kind": "magic"})),
    _config_edit("summarizer_kind_unknown", lambda cfg: cfg.update(summarizer={"kind": "magic"})),
    *(_config_edit(f"remote_encoder_{name}", lambda cfg, options=options: cfg.update(
        encoder={"kind": "remote", "url": "http://127.0.0.1:9/v1/embeddings", **options}))
      for name, options in (("batch_size_a_string", {"batch_size": "8"}),
                            ("max_in_flight_zero", {"max_in_flight": 0}))),
]


def _interactions_cut_short(fx):
    path = fx / "interactions.jsonl"
    path.write_bytes(path.read_bytes()[:30])
    argv = ["router", "train", "mlp", "--config", str(fx / "integrate.json"),
            "--out", str(fx / "r.json"), "--pool-out", str(fx / "p.json")]
    return argv, "interactions.jsonl:1"


def _task_without_id(fx):
    _edit_row(fx / "tasks.jsonl", 2, lambda row: row.pop("task_id"))
    argv = ["router", "train", "graphrouter", "--config", str(fx / "integrate.json"),
            "--out", str(fx / "r.json"), "--pool-out", str(fx / "p.json")]
    return argv, "tasks.jsonl:3"


def _reward_is_a_word(fx):
    _edit_row(fx / "rewards.jsonl", 4, lambda row: row.update(reward="x"))
    argv = ["eval", "coldstart", "--config", str(fx / "coldstart.json"), "--out", str(fx / "rep")]
    return argv, "rewards.jsonl:5"


def _reward_row_repeated(fx):
    path = fx / "rewards.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join([*lines, lines[2]]))
    argv = ["eval", "coldstart", "--config", str(fx / "coldstart.json"), "--out", str(fx / "rep")]
    return argv, "rewards.jsonl"


def _profile_without_vector(fx):
    rows = [_profile_row("model_00_00"), _profile_row("model_00_01")]
    del rows[1]["vector"]
    (fx / "p.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    argv = ["route", "--config", str(fx / "coldstart.json"), "--profiles", str(fx / "p.jsonl"),
            "--query", "Sum the first ten squares."]
    return argv, "p.jsonl:2"


def _pool_state_without_spec(fx):
    row = _profile_row("model_00_00")
    del row["spec"]
    (fx / "pool.json").write_text(json.dumps({"pool": {"models": [row]}}))
    argv = ["integrate", "--config", str(fx / "integrate.json"),
            "--card", str(fx / "new_model.json"), "--pool-state", str(fx / "pool.json")]
    return argv, "pool.json"


def _bare_pool_state(fx):
    (fx / "pool.json").write_text(json.dumps({"models": [_profile_row("model_00_00")]}))
    argv = ["integrate", "--config", str(fx / "integrate.json"),
            "--card", str(fx / "new_model.json"), "--pool-state", str(fx / "pool.json")]
    return argv, "pool.json"


def _missing_profiles_file(fx):
    argv = ["route", "--config", str(fx / "coldstart.json"),
            "--profiles", str(fx / "nowhere.jsonl"), "--query", "Sum the first ten squares."]
    return argv, "nowhere.jsonl"


def _checkpoint_without_hidden(fx):
    (fx / "r.json").write_text(json.dumps({"kind": "mlp", "dim": 64, "params": {}}))
    (fx / "p.jsonl").write_text(json.dumps(_profile_row("model_00_00")) + "\n")
    argv = ["route", "--config", str(fx / "coldstart.json"), "--router", str(fx / "r.json"),
            "--profiles", str(fx / "p.jsonl"), "--query", "Sum the first ten squares."]
    return argv, "r.json"


def _graph_router_edit(name: str, change):
    """A malformed-input case: ``coldroute route`` with a graph-router checkpoint edited by
    ``change``."""
    def make(fx):
        router = GraphRouterLite.create(64, 2, np.random.default_rng(0), {"task_00": ["q"]},
                                        {"q": np.full(64, 0.125)},
                                        [InteractionRecord("q", "model_00_00", 0.5)])
        checkpoint = router.to_checkpoint()
        change(checkpoint)
        (fx / "r.json").write_text(json.dumps(checkpoint))
        (fx / "p.jsonl").write_text(json.dumps(_profile_row("model_00_00")) + "\n")
        argv = ["route", "--config", str(fx / "coldstart.json"), "--router", str(fx / "r.json"),
                "--profiles", str(fx / "p.jsonl"), "--query", "Sum the first ten squares.",
                "--task", "task_00"]
        return argv, "r.json"
    make.__name__ = f"_{name}"
    return make


def _pool_is_a_string(fx):
    _edit_json(fx / "coldstart.json", lambda cfg: cfg.update(pool="model_00_00"))
    argv = ["profile", "--config", str(fx / "coldstart.json"), "--out", str(fx / "p.jsonl")]
    return argv, "coldstart.json"


MALFORMED = [
    _bench_without_domain,
    _unknown_score_scale,
    _dim_is_a_word,
    _encoder_option_misspelt,
    _summarizer_option_misspelt,
    _interactions_cut_short,
    _task_without_id,
    _reward_is_a_word,
    _reward_row_repeated,
    _profile_without_vector,
    _pool_state_without_spec,
    _bare_pool_state,
    _missing_profiles_file,
    _checkpoint_without_hidden,
    _graph_router_edit("task_member_without_vector",
                       lambda cp: cp["tasks"]["task_00"].append("q_ghost")),
    _graph_router_edit("interaction_query_without_vector",
                       lambda cp: cp["interactions"][0].update(query_id="q_ghost")),
    _pool_is_a_string,
    *_CONFIG_EDITS,
]


@pytest.mark.parametrize("make", MALFORMED, ids=[m.__name__.strip("_") for m in MALFORMED])
def test_malformed_input_file_exits_1_with_one_error_line_naming_it(tmp_path, capsys, make):
    fx = tmp_path / "fixtures"
    shutil.copytree(FIXTURE_DIR, fx)
    argv, where = make(fx)
    files = {path: path.read_bytes() for path in fx.rglob("*") if path.is_file()}
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("error: ") and f"{fx}/" in line and where in line
    assert {path: path.read_bytes() for path in fx.rglob("*") if path.is_file()} == files


@pytest.mark.parametrize("command", ["profile", "integrate"])
def test_unwritable_output_exits_1_with_one_error_line_naming_it(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.json"  # its directory does not exist
    if command == "profile":
        argv = ["profile", "--config", COLDSTART_CFG, "--out", str(out)]
    else:
        argv = ["integrate", "--config", INTEGRATE_CFG,
                "--card", str(FIXTURE_DIR / "new_model.json"), "--pool-state", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("error: ") and str(out) in line and ".tmp" not in line
    assert not out.parent.exists()


@pytest.mark.parametrize("spec, dim", [("flat", 64), ("emb:2", 32)])
def test_integrate_refuses_a_pool_state_of_another_spec_or_dim(tmp_path, capsys, spec, dim):
    state = tmp_path / "pool_state.json"
    assert main(["router", "train", "sim", "--config", INTEGRATE_CFG,
                 "--out", str(tmp_path / "r.json"), "--pool-out", str(state)]) == 0  # emb:2, dim 64
    saved = state.read_bytes()
    capsys.readouterr()
    argv = ["integrate", "--config", _integrate_cfg(tmp_path, spec=spec, dim=dim),
            "--card", str(FIXTURE_DIR / "new_model.json"), "--pool-state", str(state)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(state) in err and "model_00_00" in err
    assert state.read_bytes() == saved


# --- one pipeline for every command ------------------------------------------

def test_trainable_spec_fits_its_aggregator_once(tmp_path, monkeypatch):
    import coldroute.config
    import coldroute.profiles

    fits = []
    original = coldroute.profiles.traingnn_fit

    def counting_fit(*args, **kwargs):
        fits.append(args[1].short())
        return original(*args, **kwargs)

    monkeypatch.setattr(coldroute.profiles, "traingnn_fit", counting_fit)
    monkeypatch.setattr(coldroute.config, "traingnn_fit", counting_fit, raising=False)
    rc = main(["eval", "coldstart", "--config", COLDSTART_CFG, "--spec", "train:1",
               "--out", str(tmp_path / "cs")])
    assert rc == 0 and fits == ["train:1"]


def test_configured_aggregator_file_is_loaded_by_every_command(tmp_path, capsys, monkeypatch):
    import coldroute.config
    import coldroute.evaluation
    import coldroute.profiles

    agg = tmp_path / "agg.json"
    cfg = _integrate_cfg(tmp_path, aggregator=str(agg), spec="train:1")
    assert main(["profile", "--config", cfg, "--out", str(tmp_path / "a.jsonl")]) == 0
    saved = agg.read_bytes()

    def no_fit(*args, **kwargs):
        raise AssertionError("the configured aggregator should have been loaded")

    monkeypatch.setattr(coldroute.profiles, "traingnn_fit", no_fit)
    monkeypatch.setattr(coldroute.config, "traingnn_fit", no_fit)
    monkeypatch.setattr(coldroute.evaluation, "traingnn_fit", no_fit, raising=False)
    assert main(["profile", "--config", cfg, "--out", str(tmp_path / "b.jsonl")]) == 0
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert agg.read_bytes() == saved
    assert main(["router", "train", "mlp", "--config", cfg, "--out", str(tmp_path / "r.json"),
                 "--pool-out", str(tmp_path / "p.json")]) == 0
    assert main(["integrate", "--config", cfg, "--card", str(FIXTURE_DIR / "new_model.json"),
                 "--pool-state", str(tmp_path / "s.json")]) == 0
    for protocol in ("coldstart", "integrate"):
        assert main(["eval", protocol, "--config", cfg, "--out", str(tmp_path / protocol)]) == 0
    capsys.readouterr()
    assert main(["profile", "--config", cfg, "--spec", "train:2",
                 "--out", str(tmp_path / "c.jsonl")]) == 1
    assert "depth 1" in capsys.readouterr().err


def test_sim_router_trains_without_an_interactions_file(tmp_path, capsys):
    cfg = _integrate_cfg(tmp_path, interactions=None)
    rc = main(["router", "train", "sim", "--config", cfg, "--out", str(tmp_path / "r.json"),
               "--pool-out", str(tmp_path / "p.json"), "--json"])
    assert rc == 0 and _json_out(capsys)["interactions"] == 0
    rc = main(["router", "train", "mlp", "--config", cfg, "--out", str(tmp_path / "m.json")])
    assert rc == 1 and "interactions" in capsys.readouterr().err


# --- exit codes ------------------------------------------------------------

def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["router", "train", "bogus"])
    assert err.value.code == 2


def test_missing_config_is_a_domain_error(capsys):
    rc = main(["profile"])
    assert rc == 1
    assert "config" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("coldroute ")
