"""The record layer: writer -> reader round trips, score normalization, and
graph rollback, each checked as a property over generated inputs."""

import json
import os
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldroute.config import AppConfig, load_config
from coldroute.errors import ColdRouteError, ConfigError, ScoreOutOfRange
from coldroute.evaluation import RewardTable
from coldroute.graph import (
    BenchmarkCard,
    CardSet,
    DomainCard,
    FamilyCard,
    ModelCard,
    QueryRecord,
    add_model_node,
    build_graph,
    load_cards,
    normalize_score,
    remove_node,
    save_cards,
)
from coldroute.profiles import Profile, ProfileSpec, load_profiles, save_profiles
from coldroute.records import Unsynced, check, read, write_atomic
from coldroute.routers import (
    InteractionRecord,
    MlpRouter,
    load_interactions,
    load_router,
    load_tasks,
    save_interactions,
    save_router,
    save_tasks,
)

from conftest import FIXTURE_DIR

SETTINGS = settings(max_examples=40, deadline=None)

# any nonblank text: ids and descriptions may hold unicode, quotes and line breaks
texts = st.text(min_size=1, max_size=20).filter(str.strip)
rewards = st.floats(min_value=0.0, max_value=1.0)
finite = st.floats(allow_nan=False, allow_infinity=False)


def _round_trip(save, load, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records"
        save(value, path)
        return load(path)


@SETTINGS
@given(st.lists(st.tuples(texts, texts, rewards), unique_by=lambda t: t[:2]))
def test_interactions_round_trip(rows):
    records = [InteractionRecord(*row) for row in rows]
    assert _round_trip(save_interactions, load_interactions, records) == records


@SETTINGS
@given(st.dictionaries(texts, texts))
def test_tasks_round_trip(assignment):
    assert _round_trip(save_tasks, load_tasks, assignment) == assignment


@SETTINGS
@given(st.dictionaries(st.tuples(texts, texts), rewards))
def test_rewards_round_trip(entries):
    table = _round_trip(RewardTable.save, RewardTable.load, RewardTable(entries))
    assert table.to_records() == RewardTable(entries).to_records()


@SETTINGS
@given(
    st.dictionaries(
        texts,
        st.tuples(
            st.sampled_from(["flat", "text:1", "emb:2", "train:3"]),
            st.lists(finite, min_size=1, max_size=6),
            st.none() | texts,
        ),
    )
)
def test_profiles_round_trip(rows):
    profiles = {
        m: Profile(m, ProfileSpec.parse(spec), np.asarray(vec), text)
        for m, (spec, vec, text) in rows.items()
    }
    back = _round_trip(save_profiles, load_profiles, profiles)
    assert sorted(back) == sorted(profiles)
    for m, profile in profiles.items():
        assert back[m].spec == profile.spec and back[m].text == profile.text
        assert np.array_equal(back[m].vector, profile.vector)


card_sets = st.builds(
    CardSet,
    families=st.lists(st.builds(FamilyCard, texts, texts), max_size=3),
    models=st.lists(
        st.builds(ModelCard, texts, texts, texts, st.dictionaries(texts, finite, max_size=3)),
        max_size=3,
    ),
    benchmarks=st.lists(
        st.builds(BenchmarkCard, texts, texts, texts, st.sampled_from(["unit", "percent"])),
        max_size=3,
    ),
    domains=st.lists(st.builds(DomainCard, texts, texts), max_size=3),
    queries=st.lists(st.builds(QueryRecord, texts, texts, texts), max_size=3),
)


@SETTINGS
@given(card_sets)
def test_card_set_round_trip(cards):
    assert _round_trip(save_cards, load_cards, cards) == cards


# --- score normalization ----------------------------------------------------

@given(st.floats(min_value=0.0, max_value=100.0))
def test_percent_scores_divide_by_100(value):
    weight = normalize_score(value, "percent", "m", "b")
    assert weight == value / 100.0 and 0.0 <= weight <= 1.0


@given(st.floats(min_value=0.0, max_value=1.0))
def test_unit_scores_are_kept(value):
    assert normalize_score(value, "unit", "m", "b") == value


@given(st.sampled_from([("unit", 1.0), ("percent", 100.0)]), st.floats())
def test_scores_off_the_scale_are_refused(scale, value):
    name, top = scale
    if 0.0 <= value <= top:
        assert 0.0 <= normalize_score(value, name, "m", "b") <= 1.0
    else:
        with pytest.raises(ScoreOutOfRange):
            normalize_score(value, name, "m", "b")


# --- graph rollback -----------------------------------------------------------

FIXTURE_CARDS = load_cards(FIXTURE_DIR / "cards")
FAMILIES = [f.id for f in FIXTURE_CARDS.families] + ["fam_missing"]
BENCHMARKS = [b.id for b in FIXTURE_CARDS.benchmarks] + ["bench_missing"]


def _fixture_graph():
    c = FIXTURE_CARDS
    return build_graph(c.families, c.models, c.benchmarks, c.domains, c.queries, dim=8)


@SETTINGS
@given(
    st.builds(
        ModelCard,
        st.sampled_from(["model_00_00", "model_09_09", "fam_00"]) | texts,
        st.sampled_from(FAMILIES),
        texts,
        st.dictionaries(st.sampled_from(BENCHMARKS), st.floats(-5.0, 105.0), max_size=3),
    )
)
def test_add_model_node_then_remove_node_restores_the_snapshot(card):
    graph = _fixture_graph()
    before = graph.to_snapshot()
    try:
        add_model_node(graph, card)
    except ColdRouteError:  # refused cards must leave no trace either
        assert graph.to_snapshot() == before
        return
    assert graph.to_snapshot() != before
    remove_node(graph, card.id)
    assert graph.to_snapshot() == before


# --- the reader's checks --------------------------------------------------------

@pytest.mark.parametrize(
    "value, kind",
    [(True, float), (True, int), ("64", int), (1.5, int), ("  ", str), ([1], dict), ({}, list),
     (["a", 3], list[str]), ({"b": "high"}, dict[str, float]), (None, str),
     pytest.param(10**400, float, id="int-too-large-for-a-float")],
)
def test_check_refuses_a_value_of_another_kind(value, kind):
    with pytest.raises(ConfigError, match="is not"):
        check({"key": value}, {"key": kind})


def test_check_converts_and_keeps_unknown_keys():
    schema = {"n": int, "x": float, "opt": str | None}
    out = check({"n": 3, "x": 1, "opt": None, "extra": [1]}, schema)
    assert out == {"n": 3, "x": 1.0, "opt": None, "extra": [1]} and isinstance(out["x"], float)
    assert check({}, {"opt": int | None}) == {}
    with pytest.raises(ConfigError, match="missing key 'n'"):
        check({}, {"n": int})


def test_read_names_the_row_of_a_bad_array_entry(tmp_path):
    path = tmp_path / "families.json"
    path.write_text('[{"id": "f", "description": "d"}, ["not", "an", "object"]]')
    with pytest.raises(ConfigError, match=r"families\.json\[entry 1\]: not a JSON object"):
        read(path, "array", FamilyCard)
    path.write_text('{"id": "f"}')
    with pytest.raises(ConfigError, match="not a JSON array"):
        read(path, "array", FamilyCard)


def test_checkpoint_arrays_must_fit_the_layers(tmp_path):
    path = tmp_path / "router.json"
    save_router(MlpRouter.create(4, 3, np.random.default_rng(0)), path)
    assert load_router(path).hidden == 3
    checkpoint = json.loads(path.read_text())
    checkpoint["hidden"] = 5
    path.write_text(json.dumps(checkpoint))
    with pytest.raises(ConfigError, match=r"router\.json: 'q1\.w' has shape \(3, 4\), not \(5, 4"):
        load_router(path)


def test_config_fields_take_their_defaults_kinds_and_service_keys(tmp_path):
    base = tmp_path.resolve()
    (base / "cards").mkdir()
    path = base / "config.json"
    path.write_text(json.dumps({
        "cards_dir": "cards", "seed": 3, "threshold": 1, "pool": None, "port": 1, "unknown": [1],
        "service": {"port": 9000, "state_path": "state.json"},
    }))
    cfg = load_config(path)
    assert (cfg.base_dir, cfg.cards_dir, cfg.out) == (base, base / "cards", base / "report")
    assert (cfg.seed, cfg.threshold, cfg.pool) == (3, 1.0, None)
    assert (cfg.port, cfg.state_path) == (9000, base / "state.json")
    default = AppConfig(base, base / "cards")
    assert (cfg.dim, cfg.encoder) == (default.dim, default.encoder)
    assert cfg.random_seeds == [0, 1, 2, 3, 4, 5]


def test_jsonl_skips_blank_lines_but_counts_them(tmp_path):
    path = tmp_path / "tasks.jsonl"
    path.write_text('\n{"query_id": "q1", "task_id": "t"}\n  \n')
    assert load_tasks(path) == {"q1": "t"}
    path.write_text('{"query_id": "q1", "task_id": "t"}\n\n   \n{"query_id": "q2"}\n')
    with pytest.raises(ConfigError, match=r"tasks\.jsonl:4: missing key 'task_id'"):
        load_tasks(path)


@pytest.mark.parametrize("durable, synced", [(True, ["file", "replace", "directory"]),
                                             (False, ["replace"])])
def test_durable_write_syncs_the_directory_after_the_rename(tmp_path, monkeypatch, durable, synced):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append("directory" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        real_fsync(fd)

    def replace(src, dst):
        real_replace(src, dst)
        events.append("replace")

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    write_atomic(tmp_path / "state.json", "{}", durable=durable)
    assert events == synced
    assert (tmp_path / "state.json").read_text() == "{}"


def test_failed_directory_sync_raises_unsynced_after_the_rename(tmp_path, monkeypatch):
    real_fsync = os.fsync

    def fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(22, "Invalid argument")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    (tmp_path / "state.json").write_text("old")
    with pytest.raises(Unsynced, match="renamed, not synced") as failure:
        write_atomic(tmp_path / "state.json", "new", durable=True)
    assert failure.value.errno == 22 and failure.value.filename == str(tmp_path / "state.json")
    assert (tmp_path / "state.json").read_text() == "new"  # it has its new name
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
