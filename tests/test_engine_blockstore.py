"""Tests of the shuffle block-store layer (peer-to-peer shuffle payloads).

Covers the :class:`~repro.engine.shuffle.BlockStore` contract on all three
stores (driver relay, shared-memory segments, spill files): spec resolution,
publish → fetch round-trips, release/unlink idempotence, the failure paths
(attach to a vanished segment, fetch of a deleted spill block, per-block
spill fallback when POSIX shared memory is unavailable), the relay/peer
byte-split accounting, end-to-end shuffle equality across stores and
executors, context-owned store lifecycle, and the spec / CLI plumbing of
``engine.block_store`` / ``--block-store``.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.core.config import SparkERConfig
from repro.core.sparker import SparkER
from repro.engine import sharedmem
from repro.engine.context import EngineContext
from repro.engine.executors import MultiprocessingExecutor
from repro.engine.shuffle import (
    BlockStore,
    DriverBlockStore,
    FileBlock,
    InlineBlock,
    SegmentBlock,
    SharedMemoryBlockStore,
    ShuffleMapTask,
    SpillFileBlockStore,
    chunk_bytes,
    make_block_store,
)
from repro.exceptions import EngineError, PipelineValidationError
from repro.options import EngineOptions
from repro.pipeline import Pipeline

BUCKET = [(f"key-{i}", list(range(i % 7))) for i in range(50)]


# -- module-level task functions: picklable, unlike test-local closures ------
def _is_even(x):
    return x % 2 == 0


def _add(a, b):
    return a + b


def _no_shm_leak():
    assert sharedmem.live_segments("shuf") == []


# =========================================================================
# Store construction (name resolution itself: tests/test_options.py)
# =========================================================================
class TestMakeBlockStore:
    @pytest.mark.parametrize(
        "name, kind",
        [
            ("driver", DriverBlockStore),
            ("shared-memory", SharedMemoryBlockStore),
            ("spill", SpillFileBlockStore),
        ],
    )
    def test_builds_the_named_store(self, name, kind):
        store = make_block_store(EngineOptions.resolve(block_store=name))
        assert isinstance(store, kind)
        store.close()

    def test_env_var_is_consulted(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLOCK_STORE", "spill")
        store = make_block_store(EngineOptions.resolve())
        assert isinstance(store, SpillFileBlockStore)
        store.close()

    def test_instance_passes_through(self):
        store = DriverBlockStore()
        assert make_block_store(EngineOptions.resolve(block_store=store)) is store

    def test_negative_spill_threshold_raises(self):
        with pytest.raises(EngineError, match="spill_over_bytes"):
            SharedMemoryBlockStore(spill_over_bytes=0)


# =========================================================================
# Publish / fetch / release per store
# =========================================================================
class TestDriverStore:
    def test_publish_rides_inline(self):
        ref = DriverBlockStore().publish(BUCKET)
        assert isinstance(ref, InlineBlock)
        assert ref.records == len(BUCKET)
        assert ref.payload_bytes == chunk_bytes(BUCKET)
        assert ref.fetch() == BUCKET
        # All bytes cross the driver; none move peer-to-peer.
        assert ref.relay_bytes() == ref.payload_bytes
        assert ref.peer_bytes() == 0
        ref.release()  # no-op, never raises


class TestSharedMemoryStore:
    def test_publish_fetch_release_round_trip(self):
        store = SharedMemoryBlockStore()
        try:
            ref = store.publish(BUCKET)
            assert isinstance(ref, SegmentBlock)
            assert ref.name.startswith("repro-shuf-")
            assert ref.records == len(BUCKET)
            assert ref.payload_bytes == chunk_bytes(BUCKET)
            # The driver relays only the pickled ref — a constant few dozen
            # bytes — while the payload moves peer-to-peer.
            assert ref.relay_bytes() == len(pickle.dumps(ref, protocol=pickle.HIGHEST_PROTOCOL))
            assert ref.relay_bytes() < ref.payload_bytes
            assert ref.peer_bytes() == ref.payload_bytes
            assert ref.fetch() == BUCKET
            assert ref.fetch() == BUCKET  # fetch is repeatable until release
            ref.release()
            ref.release()  # idempotent
            _no_shm_leak()
        finally:
            store.close()

    def test_fetch_after_unlink_raises_engine_error(self):
        store = SharedMemoryBlockStore()
        try:
            ref = store.publish(BUCKET)
            ref.release()
            with pytest.raises(EngineError, match="is gone"):
                ref.fetch()
        finally:
            store.close()

    def test_ref_survives_pickling(self):
        store = SharedMemoryBlockStore()
        try:
            ref = store.publish(BUCKET)
            clone = pickle.loads(pickle.dumps(ref))
            assert clone.fetch() == BUCKET
            clone.release()
            _no_shm_leak()
        finally:
            store.close()

    def test_spill_fallback_when_shm_unavailable(self, monkeypatch):
        def _no_shm(name, size):
            raise OSError("no POSIX shared memory here")

        monkeypatch.setattr(sharedmem, "create_untracked", _no_shm)
        store = SharedMemoryBlockStore()
        try:
            ref = store.publish(BUCKET)
            assert isinstance(ref, FileBlock)
            assert ref.fetch() == BUCKET
            ref.release()
            assert not os.path.exists(ref.path)
        finally:
            store.close()

    def test_oversized_bucket_spills_per_block(self):
        store = SharedMemoryBlockStore(spill_over_bytes=64)
        try:
            small = store.publish([("k", 1)])
            large = store.publish(BUCKET)
            assert isinstance(small, SegmentBlock)
            assert isinstance(large, FileBlock)
            assert small.fetch() == [("k", 1)]
            assert large.fetch() == BUCKET
            small.release()
            large.release()
            _no_shm_leak()
        finally:
            store.close()

    def test_close_unlinks_stranded_segments_and_spill_dir(self):
        store = SharedMemoryBlockStore(spill_over_bytes=64)
        ref = store.publish([("k", 1)])
        spilled = store.publish(BUCKET)
        assert sharedmem.live_segments("shuf") == [ref.name]
        store.close()
        _no_shm_leak()
        assert not os.path.exists(spilled.path)
        assert not os.path.exists(store._spill.directory)


class TestSpillFileStore:
    def test_publish_fetch_release_round_trip(self, tmp_path):
        store = SpillFileBlockStore(str(tmp_path / "spill"))
        try:
            ref = store.publish(BUCKET)
            assert isinstance(ref, FileBlock)
            assert ref.records == len(BUCKET)
            assert ref.payload_bytes == chunk_bytes(BUCKET)
            assert ref.relay_bytes() < ref.payload_bytes
            assert ref.peer_bytes() == ref.payload_bytes
            assert ref.fetch() == BUCKET
            ref.release()
            ref.release()  # idempotent
            assert not os.path.exists(ref.path)
        finally:
            store.close()
        assert not os.path.exists(store.directory)

    def test_fetch_after_delete_raises_engine_error(self, tmp_path):
        store = SpillFileBlockStore(str(tmp_path / "spill"))
        ref = store.publish(BUCKET)
        store.close()
        with pytest.raises(EngineError, match="is gone"):
            ref.fetch()

    def test_run_scoped_directory_is_created_lazily(self):
        store = SpillFileBlockStore()
        assert os.path.basename(store.directory).startswith("repro-spill-")
        store.close()
        assert not os.path.exists(store.directory)


# =========================================================================
# Map task integration
# =========================================================================
class TestShuffleMapTaskStore:
    def test_without_store_yields_raw_buckets(self):
        from repro.engine.partitioner import HashPartitioner

        task = ShuffleMapTask(HashPartitioner(2))
        (buckets,) = list(task(0, iter([(0, "a"), (1, "b"), (2, "c")])))
        assert all(isinstance(bucket, list) for bucket in buckets)
        assert sorted(sum(buckets, [])) == [(0, "a"), (1, "b"), (2, "c")]

    def test_with_store_publishes_non_empty_buckets(self):
        from repro.engine.partitioner import HashPartitioner

        task = ShuffleMapTask(HashPartitioner(4), store=DriverBlockStore())
        (refs,) = list(task(0, iter([(0, "a"), (0, "b")])))
        published = [ref for ref in refs if ref is not None]
        assert len(published) == 1
        assert published[0].fetch() == [(0, "a"), (0, "b")]
        assert refs.count(None) == 3  # empty buckets publish nothing


# =========================================================================
# End-to-end shuffle equality and byte accounting across stores
# =========================================================================
# Fat values: on realistic payloads the pickled refs of the peer stores are
# a small fraction of the bucket bytes (on tiny ones the fixed ref cost can
# exceed the payload, which is why the bench guard anchors at a large size).
_FAT_DATA = [(i % 8, f"payload-{i:04d}-" * 8) for i in range(400)]


def _reduce_with(store_spec, executor=None):
    context = EngineContext(4, executor=executor, block_store=store_spec)
    try:
        result = sorted(
            context.parallelize(_FAT_DATA).reduceByKey(_add).collect()
        )
        return result, context.metrics_summary()
    finally:
        context.stop()


class TestShuffleAcrossStores:
    def test_serial_results_identical_across_stores(self):
        reference, driver_summary = _reduce_with("driver")
        for spec in ("shared-memory", "spill"):
            result, summary = _reduce_with(spec)
            assert result == reference
            # Total payload volume is a property of the job, not the store.
            assert summary["shuffle_bytes"] == driver_summary["shuffle_bytes"]
        _no_shm_leak()

    def test_relay_peer_split_per_store(self):
        _result, driver = _reduce_with("driver")
        assert driver["shuffle_relay_bytes"] == driver["shuffle_bytes"]
        assert driver["shuffle_peer_bytes"] == 0
        _result, shm = _reduce_with("shared-memory")
        assert shm["shuffle_peer_bytes"] == shm["shuffle_bytes"]
        assert 0 < shm["shuffle_relay_bytes"] < shm["shuffle_bytes"]
        _result, spill = _reduce_with("spill")
        assert spill["shuffle_peer_bytes"] == spill["shuffle_bytes"]
        assert 0 < spill["shuffle_relay_bytes"] < spill["shuffle_bytes"]

    def test_metrics_summary_names_the_store(self):
        _result, summary = _reduce_with("shared-memory")
        assert summary["block_store"] == "shared-memory"

    @pytest.mark.parametrize("spec", ["shared-memory", "spill"])
    def test_process_executor_matches_serial(self, spec):
        reference, _ = _reduce_with("driver")
        executor = MultiprocessingExecutor(max_workers=2, on_unpicklable="raise")
        try:
            result, summary = _reduce_with(spec, executor=executor)
            assert result == reference
            assert summary["shuffle_peer_bytes"] == summary["shuffle_bytes"]
            assert summary["shuffle_relay_bytes"] < summary["shuffle_bytes"]
        finally:
            executor.close()
        _no_shm_leak()

    def test_cogroup_join_across_stores(self):
        def run(spec):
            context = EngineContext(3, block_store=spec)
            try:
                left = context.parallelize([(k, k * 2) for k in range(20)])
                right = context.parallelize([(k, k * 3) for k in range(0, 20, 2)])
                return sorted(left.join(right).collect())
            finally:
                context.stop()

        reference = run("driver")
        assert run("shared-memory") == reference
        assert run("spill") == reference
        _no_shm_leak()


# =========================================================================
# Context ownership and lifecycle
# =========================================================================
class TestContextLifecycle:
    def test_context_owns_and_closes_spec_built_store(self):
        context = EngineContext(4, block_store="spill")
        directory = context.block_store.directory
        context.parallelize(range(10)).keyBy(_is_even).reduceByKey(_add).collect()
        context.stop()
        assert not os.path.exists(directory)

    def test_caller_supplied_instance_is_left_open(self, tmp_path):
        store = SpillFileBlockStore(str(tmp_path / "spill"))
        context = EngineContext(4, block_store=store)
        assert context.block_store is store
        context.parallelize(range(10)).keyBy(_is_even).reduceByKey(_add).collect()
        context.stop()
        assert os.path.exists(store.directory)  # still the caller's to close
        store.close()

    def test_context_env_var_selects_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLOCK_STORE", "shared-memory")
        context = EngineContext(4)
        try:
            assert isinstance(context.block_store, SharedMemoryBlockStore)
        finally:
            context.stop()
        _no_shm_leak()


# =========================================================================
# Spec / CLI plumbing
# =========================================================================
class TestBlockStorePlumbing:
    def test_cli_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--synthetic", "abt-buy", "--block-store", "shared-memory"]
        )
        assert args.block_store == "shared-memory"
        args = build_parser().parse_args(["run", "--synthetic", "abt-buy"])
        assert args.block_store is None

    def test_canonical_spec_records_block_store(self):
        spec = SparkER.canonical_spec(
            SparkERConfig.unsupervised_default(),
            use_engine=True,
            options=EngineOptions.resolve(executor="serial", block_store="shared-memory"),
        )
        assert spec["engine"]["block_store"] == "shared-memory"
        pipeline = Pipeline.from_spec(spec)
        try:
            assert isinstance(pipeline.engine.block_store, SharedMemoryBlockStore)
        finally:
            pipeline.shutdown()
        _no_shm_leak()

    def test_canonical_spec_omits_block_store_by_default(self):
        spec = SparkER.canonical_spec(
            SparkERConfig.unsupervised_default(), use_engine=True, executor="serial"
        )
        assert "block_store" not in spec["engine"]

    def test_from_spec_rejects_bad_block_store_type(self):
        spec = SparkER.canonical_spec(
            SparkERConfig.unsupervised_default(), use_engine=True, executor="serial"
        )
        spec["engine"]["block_store"] = 7
        with pytest.raises(PipelineValidationError, match="block_store"):
            Pipeline.from_spec(spec)

    def test_sparker_facade_resolves_block_store(self):
        sparker = SparkER(
            SparkERConfig.unsupervised_default(), use_engine=True,
            options=EngineOptions.resolve(block_store="spill"),
        )
        try:
            assert isinstance(sparker.engine.block_store, SpillFileBlockStore)
            assert sparker.build_pipeline().resolved_spec()["engine"]["block_store"] == "spill"
        finally:
            sparker.engine.stop()

    def test_store_base_class_contract(self):
        store = BlockStore()
        with pytest.raises(NotImplementedError):
            store.publish([("k", 1)])
        store.close()  # default close is a no-op
        assert store.spec() == store.name
