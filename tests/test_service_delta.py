"""Delta meta-blocker: one array recompute per compaction ≡ batch meta-blocking.

After every append + refresh the :class:`~repro.service.delta.
DeltaMetaBlocker`'s retained edges must equal — values, floats *and* order —
what a fresh :class:`~repro.metablocking.metablocker.MetaBlocker` computes on
the union collection, for every weighting × pruning × task shape.
A refresh on an unchanged compaction must do no work at all, and a
``candidates`` query followed by a cold ``matches`` on one compaction must
share a single kernel sweep.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.blocking.token_blocking import TokenBlocking
from repro.data.dataset import ProfileCollection
from repro.exceptions import ConfigurationError
from repro.metablocking import backends
from repro.metablocking.index import IncrementalBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.pruning import WeightedNodePruning
from repro.metablocking.weights import WeightingScheme
from repro.pipeline.checkpoint import PipelineCheckpoint
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


@pytest.mark.parametrize("clean_clean", [False, True])
@pytest.mark.parametrize("pruning", PRUNINGS)
@pytest.mark.parametrize("weighting", SCHEMES)
def test_refresh_after_every_append_equals_batch(weighting, pruning, clean_clean):
    profiles = _random_profiles(75, clean_clean=clean_clean, seed=19)
    incremental = IncrementalBlockIndex(clean_clean=clean_clean)
    delta = DeltaMetaBlocker(weighting, pruning)
    try:
        ingested = []
        for batch in (profiles[:30], profiles[30:55], profiles[55:]):
            incremental.append_profiles(batch)
            ingested.extend(batch)
            delta.refresh(incremental.materialise(), incremental.compactions)
            assert delta.last_mode == "full"
            expected = _batch_retained(ingested, weighting, pruning, clean_clean=clean_clean)
            assert list(delta.retained.items()) == list(expected.items())
        assert delta.full_refreshes == delta.refreshes == 3
    finally:
        incremental.close()


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
    delta = DeltaMetaBlocker("cbs", "wnp")
    try:
        delta.refresh(index, incremental.compactions)
        before = delta.retained
        spy = _SweepSpy(monkeypatch)
        assert delta.refresh(index, incremental.compactions) is before
        assert (spy.tables, spy.sweeps) == (0, 0)
        assert delta.last_mode == "local"
        assert (delta.full_refreshes, delta.local_refreshes) == (1, 1)
        # An unknown compaction count always recomputes.
        delta.refresh(index)
        assert delta.last_mode == "full" and spy.tables == 1
    finally:
        incremental.close()


@pytest.mark.parametrize(
    "weighting,use_entropy", [("cbs", False), ("arcs", False), ("ejs", False), ("js", True)]
)
def test_candidates_then_cold_matches_share_one_sweep(weighting, use_entropy, monkeypatch):
    profiles = _random_profiles(90, clean_clean=False, seed=31)
    collection = ServiceCollection(
        CollectionConfig(name="c", weighting=weighting, use_entropy=use_entropy)
    )
    try:
        spy = _SweepSpy(monkeypatch)
        for lo in (0, 60):
            collection.ingest(_ingest_payload(profiles[lo : lo + 60]))
            sweeps = spy.sweeps
            collection.candidates(profiles[lo].profile_id)
            collection.matches(profiles[lo].profile_id, 40)
            assert spy.sweeps - sweeps == 1
        assert spy.tables == 4  # one table per query, both off the cached sweep
    finally:
        collection.close()


def test_candidates_of_orders_best_first():
    profiles = _random_profiles(50, clean_clean=False, seed=9)
    incremental = IncrementalBlockIndex()
    incremental.append_profiles(profiles)
    delta = DeltaMetaBlocker("js", "wnp")
    delta.refresh(incremental.materialise(), incremental.compactions)
    some_profile = next(pid for pair in delta.retained for pid in pair)
    incident = delta.candidates_of(some_profile)
    assert incident
    weights = [weight for _pair, weight in incident]
    assert weights == sorted(weights, reverse=True)
    for pair, weight in incident:
        assert some_profile in pair
        assert delta.retained[pair] == weight
    incremental.close()


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
    delta.refresh(incremental.materialise(), incremental.compactions)
    assert delta.retained
    state = delta.__getstate__()
    assert set(state) == {
        "weighting", "pruning", "use_entropy",
        "refreshes", "full_refreshes", "local_refreshes", "last_mode",
    }
    clone = pickle.loads(pickle.dumps(delta))
    assert clone.retained == {} and clone.stats()["refreshes"] == 1
    # The clone recomputes on its first refresh, whatever the count says.
    clone.refresh(incremental.materialise(), incremental.compactions)
    assert clone.last_mode == "full"
    assert list(clone.retained.items()) == list(delta.retained.items())
    incremental.close()


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
        state = dict(source.snapshot_state(), delta=_parent_delta(monkeypatch))
        state["pending_touched"] = [0, 1, 2]
        # The parent's config still had the kernel-backend field, unset.
        state["config"] = dict(state["config"], kernel_backend=None)
        PipelineCheckpoint(tmp_path / "demo").save(state)
        monkeypatch.undo()

        assert store.load_snapshots() == ["demo"]
        restored = store.get("demo")
        assert isinstance(restored.delta, DeltaMetaBlocker)
        assert not hasattr(restored.delta, "_adj")
        assert restored.delta.retained == {}
        assert restored.delta.stats()["refreshes"] == 3

        for collection in (restored, twin):
            collection.ingest(_ingest_payload(profiles[40:]))
        for probe in (0, 41):
            got = [restored.candidates(probe), restored.matches(probe, 30)]
            want = [twin.candidates(probe), twin.matches(probe, 30)]
            assert json.dumps(got) == json.dumps(want)
        assert list(restored.delta.retained.items()) == list(twin.delta.retained.items())
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
