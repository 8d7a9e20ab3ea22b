"""Delta meta-blocker: one array recompute per compaction ≡ batch meta-blocking.

After every append + refresh the :class:`~repro.service.delta.
DeltaMetaBlocker`'s retained edges must equal — values, floats *and* order —
what a fresh :class:`~repro.metablocking.metablocker.MetaBlocker` computes on
the union collection, for every weighting × pruning × task shape.
A refresh on an unchanged compaction must do no work at all, and a
``candidates`` query followed by a cold ``matches`` on one compaction must
share a single weighed table (two when entropy makes their plans differ).
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.blocking.token_blocking import TokenBlocking
from repro.data.dataset import ProfileCollection
from repro.exceptions import ConfigurationError
from repro.metablocking import backends
from repro.metablocking import index as index_module
from repro.metablocking.index import IncrementalBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.pruning import WeightedNodePruning
from repro.metablocking.weights import WeightingScheme
from repro.pipeline.checkpoint import PipelineCheckpoint
from repro.pipeline.legacy import _TokenState
from repro.service.collection import CollectionConfig, ServiceCollection
from repro.service.delta import DeltaMetaBlocker
from repro.service.store import CollectionStore

from tests.test_metablocking_incremental import _random_profiles
from tests.test_service_app import _ingest_payload

SCHEMES = ["cbs", "js", "arcs", "ecbs", "ejs"]
PRUNINGS = ["wep", "cep", "wnp", "rwnp", "cnp"]


def _batch_retained(profiles, weighting, pruning, *, clean_clean):
    blocks = TokenBlocking().block(ProfileCollection(profiles))
    assert blocks.clean_clean == clean_clean
    return MetaBlocker(weighting, pruning).run(blocks).retained_edges


def _refresh(delta, incremental):
    """Refresh ``delta`` as the service does: the compacted index, its
    no-entropy edge table and its compaction count."""
    index = incremental.materialise()
    plan = index.weight_plan(delta.weighting, use_entropy=False)
    return delta.refresh(index, index.kernel().weight_arrays(plan), incremental.compactions)


@pytest.mark.parametrize("clean_clean", [False, True])
@pytest.mark.parametrize("pruning", PRUNINGS)
@pytest.mark.parametrize("weighting", SCHEMES)
def test_refresh_after_every_append_equals_batch(weighting, pruning, clean_clean):
    profiles = _random_profiles(75, clean_clean=clean_clean, seed=19)
    incremental = IncrementalBlockIndex(clean_clean=clean_clean)
    delta = DeltaMetaBlocker(weighting, pruning)
    ingested = []
    for batch in (profiles[:30], profiles[30:55], profiles[55:]):
        incremental.append_profiles(batch)
        ingested.extend(batch)
        _refresh(delta, incremental)
        assert delta.last_mode == "full"
        expected = _batch_retained(ingested, weighting, pruning, clean_clean=clean_clean)
        # Kept as the retention's columns, no dict per compaction.
        assert isinstance(delta.retained, backends.RetainedEdges)
        assert delta.retained == expected
        assert list(delta.retained.items()) == list(expected.items())
    assert delta.full_refreshes == delta.refreshes == 3


class _SweepSpy:
    """Count whole-table weighings and kernel sweeps."""

    def __init__(self, monkeypatch) -> None:
        self.tables = 0
        self.sweeps = 0
        counted = self._count(backends.NumpyKernel.weight_arrays, "tables")
        monkeypatch.setattr(backends.NumpyKernel, "weight_arrays", counted)
        counted = self._count(backends.NumpyKernel._sweep, "sweeps")
        monkeypatch.setattr(backends.NumpyKernel, "_sweep", counted)

    def _count(self, method, counter):
        def counted(*args, **kwargs):
            setattr(self, counter, getattr(self, counter) + 1)
            return method(*args, **kwargs)

        return counted


def test_refresh_on_an_unchanged_index_does_no_sweep(monkeypatch):
    incremental = IncrementalBlockIndex()
    incremental.append_profiles(_random_profiles(40, clean_clean=False, seed=5))
    index = incremental.materialise()
    table = index.kernel().weight_arrays(index.weight_plan("cbs", use_entropy=False))
    delta = DeltaMetaBlocker("cbs", "wnp")
    delta.refresh(index, table, incremental.compactions)
    before = delta.retained
    spy = _SweepSpy(monkeypatch)
    prunes = []
    retained_positions = backends.retained_positions
    monkeypatch.setattr(
        backends, "retained_positions",
        lambda *args: prunes.append(args) or retained_positions(*args),
    )
    assert delta.refresh(index, table, incremental.compactions) is before
    assert prunes == [] and (spy.tables, spy.sweeps) == (0, 0)
    assert delta.last_mode == "local"
    assert (delta.full_refreshes, delta.local_refreshes) == (1, 1)
    # An unknown compaction count always recomputes.
    delta.refresh(index, table)
    assert delta.last_mode == "full" and len(prunes) == 1
    assert list(delta.retained.items()) == list(before.items())


@pytest.mark.parametrize(
    "weighting,use_entropy", [("cbs", False), ("arcs", False), ("ejs", False), ("js", True)]
)
def test_candidates_then_cold_matches_weigh_one_table_per_compaction(
    weighting, use_entropy, monkeypatch
):
    """``candidates`` and the cold ``matches`` share one table per
    compaction — one range sweep (one range at this size) — with entropy
    too: compacted blocks carry entropy 1.0, so its factor is 1.0.  EJS adds
    one degree pass per compaction, shared through the index's weight plan.
    Repeating both queries weighs nothing."""
    profiles = _random_profiles(90, clean_clean=False, seed=31)
    collection = ServiceCollection(
        CollectionConfig.from_dict({"name": "c", "weighting": weighting, "use_entropy": use_entropy})
    )
    per_compaction = 1
    try:
        spy = _SweepSpy(monkeypatch)
        for lo in (0, 60):
            collection.ingest(_ingest_payload(profiles[lo : lo + 60]))
            sweeps = spy.sweeps
            for _repeat in range(2):
                collection.candidates(profiles[lo].profile_id)
                collection.matches(profiles[lo].profile_id, 40)
            assert spy.sweeps - sweeps == per_compaction + (weighting == "ejs")
        assert spy.tables == 2 * per_compaction
        assert collection.stats()["tables_weighed"] == spy.tables
    finally:
        collection.close()


@pytest.mark.parametrize("weighting", ["cbs", "js", "arcs"])
def test_entropy_leaves_the_service_candidates_unchanged(weighting):
    """A config naming ``use_entropy`` (a retired collection key) answers
    what one without it does, and what a batch entropy meta-blocker on the
    union collection retains."""
    profiles = _random_profiles(80, clean_clean=False, seed=37)
    collections = [
        ServiceCollection(CollectionConfig.from_dict({"name": "c", "weighting": weighting, **key}))
        for key in ({"use_entropy": True}, {})
    ]
    try:
        for lo, hi in ((0, 45), (45, 80)):
            blocks = TokenBlocking().block(ProfileCollection(profiles[:hi]))
            batch = MetaBlocker(weighting, "wnp", use_entropy=True).run(blocks).retained_edges
            for collection in collections:
                collection.ingest(_ingest_payload(profiles[lo:hi]))
            for profile in profiles[:hi]:
                entropy, plain = (c.candidates(profile.profile_id) for c in collections)
                assert entropy == plain
                assert [(tuple(c["pair"]), c["weight"]) for c in entropy["candidates"]] == (
                    _dict_scan(batch, profile.profile_id)
                )
    finally:
        for collection in collections:
            collection.close()


def test_candidates_of_orders_best_first():
    profiles = _random_profiles(50, clean_clean=False, seed=9)
    incremental = IncrementalBlockIndex()
    incremental.append_profiles(profiles)
    delta = DeltaMetaBlocker("js", "wnp")
    _refresh(delta, incremental)
    some_profile = next(pid for pair in delta.retained for pid in pair)
    incident = delta.candidates_of(some_profile)
    assert incident
    weights = [weight for _pair, weight in incident]
    assert weights == sorted(weights, reverse=True)
    for pair, weight in incident:
        assert some_profile in pair
        assert delta.retained[pair] == weight


def _dict_scan(retained, profile_id):
    """``candidates_of`` as a scan of the retained dict."""
    incident = [(pair, w) for pair, w in retained.items() if profile_id in pair]
    return sorted(incident, key=lambda item: (-item[1], item[0]))


@pytest.mark.parametrize("pruning", PRUNINGS)
@pytest.mark.parametrize("weighting", ["cbs", "ejs"])
def test_candidates_of_masks_the_columns_like_a_dict_scan(weighting, pruning):
    profiles = _random_profiles(70, clean_clean=True, seed=23)
    incremental = IncrementalBlockIndex(clean_clean=True)
    incremental.append_profiles(profiles)
    delta = DeltaMetaBlocker(weighting, pruning)
    _refresh(delta, incremental)
    as_dict = dict(delta.retained.items())
    for profile_id in [p.profile_id for p in profiles] + [999]:  # 999: not ingested
        assert delta.candidates_of(profile_id) == _dict_scan(as_dict, profile_id)


def test_a_restored_collection_carries_no_table_and_weighs_once(tmp_path, monkeypatch):
    profiles = _random_profiles(60, clean_clean=False, seed=41)
    store = CollectionStore(snapshot_dir=str(tmp_path))
    collection = store.get_or_create("c")
    collection.ingest(_ingest_payload(profiles))
    payloads = [collection.candidates(p.profile_id) for p in profiles[:5]]
    payloads.append(collection.matches(0, 30))
    assert collection._table is not None
    state = pickle.dumps(collection.snapshot_state())
    assert b"EdgeWeights" not in state and b"RetainedEdges" not in state
    store.snapshot("c")
    store.close_all()

    reloaded = CollectionStore(snapshot_dir=str(tmp_path))
    reloaded.load_snapshots()
    restored = reloaded.get("c")
    assert restored._table is None and restored.delta.retained == {}
    spy = _SweepSpy(monkeypatch)
    replayed = [restored.candidates(p.profile_id) for p in profiles[:5]]
    replayed.append(restored.matches(0, 30))
    assert spy.tables == 1 and restored.stats()["tables_weighed"] == 1
    assert replayed[0]["refresh_mode"] == "full"
    assert replayed == payloads
    reloaded.close_all()


@pytest.mark.parametrize("pruning", ["wnp", "rwnp", "cnp"])
def test_a_snapshot_holding_a_pickled_strategy_restores(tmp_path, pruning):
    """Snapshots pickle the delta's strategy object; the restored one is the
    same stock class with the same attributes, and answers the same."""
    profiles = _random_profiles(50, clean_clean=False, seed=59)
    store = CollectionStore(snapshot_dir=str(tmp_path))
    collection = store.add(ServiceCollection(CollectionConfig(name="c", pruning=pruning)))
    collection.ingest(_ingest_payload(profiles))
    payloads = [collection.candidates(p.profile_id) for p in profiles[:5]]
    strategy = collection.delta.pruning
    store.snapshot("c")
    store.close_all()

    reloaded = CollectionStore(snapshot_dir=str(tmp_path))
    reloaded.load_snapshots()
    restored = reloaded.get("c").delta.pruning
    assert type(restored) is type(strategy) and vars(restored) == vars(strategy)
    assert isinstance(restored, WeightedNodePruning) == pruning.endswith("wnp")
    assert [reloaded.get("c").candidates(p.profile_id) for p in profiles[:5]] == payloads
    reloaded.close_all()


def test_stats_exposes_refresh_counters():
    stats = DeltaMetaBlocker("cbs", "wnp").stats()
    assert stats == {
        "weighting": "cbs",
        "pruning": "WeightedNodePruning",
        "refreshes": 0,
        "full_refreshes": 0,
        "local_refreshes": 0,
        "last_mode": None,
        "retained_edges": 0,
    }


# ---------------------------------------------------------------- edge cases
@pytest.mark.parametrize(
    "batches",
    [
        pytest.param([], id="empty-collection"),
        pytest.param([[{"id": 0, "attributes": {"name": "solo token"}}]], id="single-profile"),
        pytest.param(
            [[
                {"id": 0, "attributes": {"name": "alpha"}},
                {"id": 1, "attributes": {"name": "bravo"}},
                {"id": 2},
            ]],
            id="no-comparison",
        ),
    ],
)
def test_collections_without_comparisons_answer_empty(batches):
    collection = ServiceCollection(CollectionConfig(name="c"))
    try:
        for batch in batches:
            collection.ingest({"profiles": batch})
        candidates = collection.candidates(0)
        assert candidates["candidates"] == []
        matches = collection.matches(0, 10)
        assert matches["candidates"] == [] and matches["matches"] == []
        assert matches["exhausted"] is True
    finally:
        collection.close()


# ------------------------------------------------------------------ snapshots
def test_new_snapshots_carry_no_edge_state():
    incremental = IncrementalBlockIndex()
    incremental.append_profiles(_random_profiles(40, clean_clean=False, seed=5))
    delta = DeltaMetaBlocker("cbs", "cnp")
    _refresh(delta, incremental)
    assert delta.retained
    state = delta.__getstate__()
    assert set(state) == {
        "weighting", "pruning",
        "refreshes", "full_refreshes", "local_refreshes", "last_mode",
    }
    clone = pickle.loads(pickle.dumps(delta))
    assert clone.retained == {} and clone.stats()["refreshes"] == 1
    # The clone recomputes on its first refresh, whatever the count says.
    _refresh(clone, incremental)
    assert clone.last_mode == "full"
    assert list(clone.retained.items()) == list(delta.retained.items())


def _parent_delta(monkeypatch) -> DeltaMetaBlocker:
    """A delta that pickles like a parent-commit one: the class plus its
    whole ``__dict__``, the dict-of-dicts local-refresh state included.
    Deliberately stale — a restored collection must serve none of it."""
    monkeypatch.setattr(DeltaMetaBlocker, "__getstate__", lambda self: self.__dict__)
    delta = DeltaMetaBlocker.__new__(DeltaMetaBlocker)
    delta.__dict__.update({
        "weighting": WeightingScheme.CBS,
        "pruning": WeightedNodePruning(),
        "use_entropy": False,
        "_local_capable": True,
        "retained": {(0, 1): 99.0},
        "_adj": {0: {1: 99.0}, 1: {0: 99.0}},
        "_upper_order": {0: [1]},
        "_thresholds": {0: 99.0, 1: 99.0},
        "_kept": {},
        "_k": None,
        "_primed": True,
        "refreshes": 3,
        "full_refreshes": 1,
        "local_refreshes": 2,
        "last_mode": "local",
        "last_affected": 7,
        "last_reweighed": 4,
    })
    return delta


def _parent_index(index, profiles, monkeypatch) -> IncrementalBlockIndex:
    """An index that pickles like a parent-commit one: a member-set pair per
    token string (pickled with a dirty flag and a cached build tuple, under
    the name the index module gave its class) in place of the occurrence
    columns."""
    tokens = {}
    for profile in profiles:
        for token in sorted(profile.tokens()):
            if token not in tokens:
                tokens[token] = _TokenState.__new__(_TokenState)
                tokens[token].members0, tokens[token].members1 = set(), set()
            tokens[token].members0.add(profile.profile_id)
    state = {
        slot: value
        for slot, value in index.__getstate__().items()
        if slot not in ("_forms", "_occurrences", "_size")
    }
    state["_tokens"] = tokens
    monkeypatch.setattr(
        _TokenState, "__getstate__",
        lambda self: (self.members0, self.members1, False, None), raising=False,
    )
    monkeypatch.setattr(_TokenState, "__module__", index_module.__name__)
    monkeypatch.setattr(index_module, "_TokenState", _TokenState, raising=False)
    monkeypatch.setattr(IncrementalBlockIndex, "__getstate__", lambda self: state)
    return IncrementalBlockIndex()


def test_parent_format_snapshot_restores_and_answers_like_a_fresh_twin(
    tmp_path, monkeypatch
):
    profiles = _random_profiles(60, clean_clean=False, seed=37)
    source = ServiceCollection(CollectionConfig(name="demo"))
    twin = ServiceCollection(CollectionConfig(name="demo"))
    store = CollectionStore(snapshot_dir=str(tmp_path))
    try:
        for collection in (source, twin):
            collection.ingest(_ingest_payload(profiles[:40]))
        state = dict(
            source.snapshot_state(),
            delta=_parent_delta(monkeypatch),
            index=_parent_index(source.index, profiles[:40], monkeypatch),
        )
        state["pending_touched"] = [0, 1, 2]
        # The parent's config still had the kernel-backend field, unset.
        state["config"] = dict(state["config"], kernel_backend=None)
        PipelineCheckpoint(tmp_path / "demo").save(state)
        monkeypatch.undo()
        data = (tmp_path / "demo" / "pipeline_state.pkl").read_bytes()
        assert b"_TokenState" in data and b"repro.pipeline.legacy" not in data

        assert store.load_snapshots() == ["demo"]
        restored = store.get("demo")
        assert type(restored.index) is IncrementalBlockIndex
        assert type(restored.delta) is DeltaMetaBlocker
        assert not hasattr(restored.delta, "_adj")
        assert restored.delta.retained == {}
        assert restored.delta.stats()["refreshes"] == 3
        assert restored.stats()["tokens"] == twin.stats()["tokens"]

        summaries = [
            collection.ingest(_ingest_payload(profiles[40:])) for collection in (restored, twin)
        ]
        assert summaries[0] == summaries[1]
        for probe in (0, 41):
            got = [restored.candidates(probe), restored.matches(probe, 30)]
            want = [twin.candidates(probe), twin.matches(probe, 30)]
            assert json.dumps(got) == json.dumps(want)
        assert list(restored.delta.retained.items()) == list(twin.delta.retained.items())
        assert restored.stats()["tokens"] == twin.stats()["tokens"]
    finally:
        source.close()
        twin.close()
        store.close_all()


@pytest.mark.parametrize("buffer_backend", ["ram", "memmap"])
def test_a_snapshot_naming_a_buffer_backend_restores_like_a_fresh_twin(
    tmp_path, buffer_backend
):
    profiles = _random_profiles(60, clean_clean=False, seed=41)
    source = ServiceCollection(CollectionConfig(name="demo"))
    twin = ServiceCollection(CollectionConfig(name="demo"))
    store = CollectionStore(snapshot_dir=str(tmp_path / "snapshots"))
    try:
        for collection in (source, twin):
            collection.ingest(_ingest_payload(profiles[:40]))
        state = source.snapshot_state()
        # The parent's config recorded where the index buffers lived.
        state["config"] = dict(
            state["config"], buffer_backend=buffer_backend, tmp_dir=str(tmp_path / "buffers")
        )
        PipelineCheckpoint(tmp_path / "snapshots" / "demo").save(state)

        assert store.load_snapshots() == ["demo"]
        restored = store.get("demo")
        assert restored.config == twin.config
        for collection in (restored, twin):
            collection.ingest(_ingest_payload(profiles[40:]))
        for probe in (0, 41):
            got = [restored.candidates(probe), restored.matches(probe, 30)]
            want = [twin.candidates(probe), twin.matches(probe, 30)]
            assert json.dumps(got) == json.dumps(want)
        assert not (tmp_path / "buffers").exists()
    finally:
        source.close()
        twin.close()
        store.close_all()


@pytest.mark.parametrize("flag", [True, False])
def test_a_snapshot_naming_use_entropy_restores_like_a_fresh_twin(tmp_path, flag):
    profiles = _random_profiles(60, clean_clean=False, seed=43)
    source = ServiceCollection(CollectionConfig(name="demo"))
    twin = ServiceCollection(CollectionConfig(name="demo"))
    store = CollectionStore(snapshot_dir=str(tmp_path))
    try:
        for collection in (source, twin):
            collection.ingest(_ingest_payload(profiles[:40]))
        state = source.snapshot_state()
        # The parent's config carried the flag, which changed no weight.
        state["config"] = dict(state["config"], use_entropy=flag)
        PipelineCheckpoint(tmp_path / "demo").save(state)

        assert store.load_snapshots() == ["demo"]
        restored = store.get("demo")
        assert restored.config == twin.config
        assert "use_entropy" not in restored.config.as_dict()
        for collection in (restored, twin):
            collection.ingest(_ingest_payload(profiles[40:]))
        for probe in (0, 41):
            got = [restored.candidates(probe), restored.matches(probe, 30)]
            want = [twin.candidates(probe), twin.matches(probe, 30)]
            assert json.dumps(got) == json.dumps(want)
    finally:
        source.close()
        twin.close()
        store.close_all()


@pytest.mark.parametrize("value", [None, "auto", "numpy"])
def test_a_retired_kernel_backend_key_is_dropped(value):
    config = CollectionConfig.from_dict({"name": "c", "kernel_backend": value})
    assert config == CollectionConfig(name="c")
    assert "kernel_backend" not in config.as_dict()


def test_a_python_kernel_backend_is_rejected():
    with pytest.raises(ConfigurationError, match="interpreted meta-blocking kernel"):
        CollectionConfig.from_dict({"name": "c", "kernel_backend": "python"})
    with pytest.raises(ConfigurationError, match="interpreted"):
        CollectionStore(defaults={"kernel_backend": "python"}).get_or_create("c")
