"""The one reader of what earlier versions wrote: :mod:`repro.pipeline.legacy`.

The parent-shaped fixtures live beside the classes they exercise
(``test_pairs_as_arrays``, ``test_blocking_columns``, ``test_service_delta``,
``test_stage_executions``, ``test_service_wal``).  Here: a current-shape
state reads exactly as a plain unpickle reads it, no module but the legacy
one knows an earlier shape, and a snapshot of a collection that compacted
itself every N profiles restores.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import pytest

from repro.core.sparker import SparkER
from repro.metablocking.index import IncrementalBlockIndex
from repro.pipeline import Pipeline, PipelineCheckpoint
from repro.pipeline import legacy
from repro.service.collection import CollectionConfig, ServiceCollection
from repro.service.store import CollectionStore

from tests.test_metablocking_incremental import _random_profiles
from tests.test_service_app import _ingest_payload

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
LEGACY = "pipeline/legacy.py"

# Names only a reader of an earlier pickled shape has a use for.
MARKERS = (
    "_TokenState", "_StateUnpickler", "SimpleNamespace", "pending_touched",
    '"_blocks"', '"_tokens"', '"_edges" in',
)


def test_earlier_shape_markers_appear_only_in_the_legacy_module():
    found = {
        path.relative_to(SRC).as_posix(): [m for m in MARKERS if m in path.read_text("utf-8")]
        for path in sorted(SRC.rglob("*.py"))
    }
    assert {module: hits for module, hits in found.items() if hits and module != LEGACY} == {}
    assert found[LEGACY]  # the guard is not vacuous


def _parts(state: dict) -> dict:
    """Each top-level value of a state, and each artifact of its store,
    pickled alone (so the string identities pickle memoises across parts
    do not count)."""
    parts = {key: value for key, value in state.items() if key != "store"}
    if "store" in state:
        parts.update({("store", key): value for key, value in state["store"].items()})
    return {key: pickle.dumps(value, pickle.HIGHEST_PROTOCOL) for key, value in parts.items()}


@pytest.mark.parametrize("stop_after", ["meta_blocking", "clustering"])
def test_a_current_checkpoint_reads_as_a_plain_unpickle(abt_buy_small, tmp_path, stop_after):
    checkpoint = PipelineCheckpoint(tmp_path / "ckpt")
    Pipeline.from_spec(SparkER.canonical_spec()).run(
        abt_buy_small.profiles, abt_buy_small.ground_truth,
        checkpoint=checkpoint, stop_after=stop_after,
    )
    plain = pickle.loads(checkpoint.state_path.read_bytes())
    assert _parts(checkpoint.load()) == _parts(plain)


def test_a_current_snapshot_reads_as_a_plain_unpickle():
    collection = ServiceCollection(CollectionConfig(name="demo"))
    collection.ingest(_ingest_payload(_random_profiles(30, clean_clean=False, seed=5)))
    collection.candidates(0)
    data = pickle.dumps(collection.snapshot_state(), protocol=pickle.HIGHEST_PROTOCOL)
    assert _parts(legacy.current_state(legacy.unpickle_state(data))) == _parts(pickle.loads(data))
    collection.close()


def test_a_stored_stage_whose_params_were_all_retired_loses_them():
    state = {"spec": {"stages": [
        {"stage": "loose_schema", "params": {"num_perm": 128, "num_bands": 32, "lsh_seed": 5}},
        {"stage": "loose_schema", "params": {"num_perm": 16, "threshold": 0.3}},
        {"stage": "token_blocking"},
    ]}}
    assert legacy.current_state(state)["spec"]["stages"] == [
        {"stage": "loose_schema"},
        {"stage": "loose_schema", "params": {"threshold": 0.3}},
        {"stage": "token_blocking"},
    ]


def test_a_snapshot_with_a_compaction_period_answers_like_a_fresh_twin(tmp_path, monkeypatch):
    profiles = _random_profiles(60, clean_clean=False, seed=47)
    source = ServiceCollection(CollectionConfig(name="demo"))
    twin = ServiceCollection(CollectionConfig(name="demo"))
    store = CollectionStore(snapshot_dir=str(tmp_path))
    try:
        for collection in (source, twin):
            collection.ingest(_ingest_payload(profiles[:40]))
        # The index and its config as they pickled while a collection could
        # compact itself every N appended profiles.
        index_state = dict(source.index.__getstate__(), compact_every=10, _since_compact=3)
        monkeypatch.setattr(IncrementalBlockIndex, "__getstate__", lambda self: index_state)
        state = source.snapshot_state()
        state["config"] = dict(state["config"], compact_every=10)
        checkpoint = PipelineCheckpoint(tmp_path / "demo")
        checkpoint.save(state)
        monkeypatch.undo()
        assert b"_since_compact" in checkpoint.state_path.read_bytes()

        assert store.load_snapshots() == ["demo"]
        restored = store.get("demo")
        assert type(restored.index) is IncrementalBlockIndex
        assert restored.config == twin.config

        def answers(collection, probe):
            return json.dumps([collection.candidates(probe), collection.matches(probe, 30)])

        assert answers(restored, 0) == answers(twin, 0)
        for collection in (restored, twin):
            collection.ingest(_ingest_payload(profiles[40:]))
        for probe in (0, 41):
            assert answers(restored, probe) == answers(twin, probe)
    finally:
        source.close()
        twin.close()
        store.close_all()
