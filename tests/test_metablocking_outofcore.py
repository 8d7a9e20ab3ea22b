"""Out-of-core meta-blocking: streamed emission, memmap lifecycle, lazy data.

Three contracts of the out-of-core path:

* :meth:`MetaBlocker.stream_retained` (and the parallel wrapper) yields the
  retained edges in bounded chunks whose concatenation equals
  ``run(blocks).retained_edges.items()`` exactly — same edges, same floats,
  same order — for every strategy, chunk size and buffer backend;
* the ``memmap`` buffer backend's on-disk file follows the managed-artifact
  lifecycle: created under the resolved temp root, unlinked on ``close()``
  (or GC), survivable by pickle as a private ram copy, reclaimed by the
  dead-pid sweep after a crash;
* the lazy synthetic generators (:func:`iter_abt_buy_like`,
  :func:`iter_scalability_products`) replay the eager generators bit-for-bit
  so the committed scalability baselines are reproducible from the stream.
"""

from __future__ import annotations

import gc
import os
import pickle
import random
import subprocess
import sys

import numpy as np
import pytest

from repro.blocking.block import Block, BlockCollection
from repro.data.synthetic import (
    SyntheticConfig,
    generate_abt_buy_like,
    generate_scalability_products,
    iter_abt_buy_like,
    iter_scalability_products,
)
from repro.engine import tmpfiles
from repro.engine.context import EngineContext
from repro.exceptions import MetaBlockingError
from repro.metablocking.index import _SHARED_FIELDS, CSRBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker
from repro.metablocking.pruning import WeightedNodePruning
from repro.options import EngineOptions

opts = EngineOptions.resolve

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _collection(seed: int = 11) -> BlockCollection:
    """A small clean-clean collection with entropies and invalid blocks."""
    rng = random.Random(seed)
    collection = BlockCollection(clean_clean=True)
    for index in range(120):
        collection.add(
            Block(
                key=f"b-{index}",
                profiles_source0={rng.randrange(80) for _ in range(rng.randint(0, 5))},
                profiles_source1={500 + rng.randrange(80) for _ in range(rng.randint(0, 5))},
                entropy=rng.uniform(0.1, 2.0),
                clean_clean=True,
            )
        )
    return collection


@pytest.fixture(scope="module")
def blocks():
    return _collection()


class _CustomWNP(WeightedNodePruning):
    """A subclass the vectorised dispatch must refuse (fallback coverage)."""


class TestStreamedEmission:
    @pytest.mark.parametrize("pruning", ["wep", "cep", "wnp", "cnp"])
    @pytest.mark.parametrize("weighting", ["cbs", "js", "arcs", "ecbs", "ejs"])
    def test_stream_equals_run_items(self, blocks, weighting, pruning):
        blocker = MetaBlocker(weighting, pruning, use_entropy=True)
        reference = list(blocker.run(blocks).retained_edges.items())
        streamed = [
            edge
            for chunk in blocker.stream_retained(blocks, chunk_edges=97)
            for edge in chunk
        ]
        assert streamed == reference
        assert reference  # the grid must retain something to mean anything

    @pytest.mark.parametrize("chunk_edges", [1, 13, 65536])
    def test_chunks_are_bounded(self, blocks, chunk_edges):
        blocker = MetaBlocker("cbs", "wnp")
        chunks = list(blocker.stream_retained(blocks, chunk_edges=chunk_edges))
        assert all(len(chunk) <= chunk_edges for chunk in chunks)
        assert all(chunks)  # no empty chunks
        total = sum(len(chunk) for chunk in chunks)
        assert total == len(blocker.run(blocks).retained_edges)

    def test_custom_strategy_falls_back_to_run(self, blocks):
        blocker = MetaBlocker("js", _CustomWNP())
        reference = list(blocker.run(blocks).retained_edges.items())
        streamed = [
            edge
            for chunk in blocker.stream_retained(blocks, chunk_edges=50)
            for edge in chunk
        ]
        assert streamed == reference

    def test_parallel_stream_equals_run_items(self, blocks):
        blocker = ParallelMetaBlocker(EngineContext(4), "ejs", "rwnp")
        reference = list(blocker.run(blocks).retained_edges.items())
        streamed = [
            edge
            for chunk in blocker.stream_retained(blocks, chunk_edges=31)
            for edge in chunk
        ]
        assert streamed == reference

    def test_empty_collection_streams_nothing(self):
        empty = BlockCollection(clean_clean=True)
        assert list(MetaBlocker("cbs", "wep").stream_retained(empty)) == []

    def test_iter_retained_chunks_rejects_nonpositive_chunk(self, blocks):
        from repro.metablocking import backends

        index = CSRBlockIndex.from_blocks(blocks)
        plan = index.weight_plan("cbs", False)
        table = index.kernel().weight_arrays(plan)
        positions = backends.retained_positions(
            MetaBlocker("cbs", "wep").pruning, table, index
        )
        for bad in (0, -4):
            with pytest.raises(MetaBlockingError):
                next(backends.iter_retained_chunks(table, positions, bad))


class TestMemmapLifecycle:
    def test_buffer_file_lives_under_tmp_dir_until_close(self, blocks, tmp_path):
        index = CSRBlockIndex.from_blocks(
            blocks, opts(buffer_backend="memmap", tmp_dir=str(tmp_path))
        )
        path = index.memmap_path
        assert path is not None
        assert os.path.dirname(path) == str(tmp_path)
        assert os.path.basename(path).startswith(f"repro-csrbuf-{os.getpid()}-")
        assert os.path.exists(path)
        assert path in tmpfiles.live_artifacts("csrbuf")
        index.close()
        assert not os.path.exists(path)
        assert path not in tmpfiles.live_artifacts("csrbuf")
        index.close()  # idempotent

    def test_gc_finalizer_removes_file(self, blocks, tmp_path):
        index = CSRBlockIndex.from_blocks(
            blocks, opts(buffer_backend="memmap", tmp_dir=str(tmp_path))
        )
        path = index.memmap_path
        assert os.path.exists(path)
        del index
        gc.collect()
        assert not os.path.exists(path)

    def test_ram_backend_has_no_file(self, blocks):
        index = CSRBlockIndex.from_blocks(blocks, opts(buffer_backend="ram"))
        assert index.buffer_backend == "ram"
        assert index.memmap_path is None
        index.close()  # must be a safe no-op

    def test_memmap_vectors_equal_ram_vectors(self, blocks, tmp_path):
        ram = CSRBlockIndex.from_blocks(blocks, opts(buffer_backend="ram"))
        memmap = CSRBlockIndex.from_blocks(
            blocks, opts(buffer_backend="memmap", tmp_dir=str(tmp_path))
        )
        try:
            assert memmap.node_ids == ram.node_ids
            for field, _typecode in _SHARED_FIELDS:
                assert list(getattr(memmap, field)) == list(getattr(ram, field))
        finally:
            memmap.close()

    def test_pickle_round_trip_restores_private_ram_copy(self, blocks, tmp_path):
        index = CSRBlockIndex.from_blocks(
            blocks, opts(buffer_backend="memmap", tmp_dir=str(tmp_path))
        )
        try:
            clone = pickle.loads(pickle.dumps(index))
            # The file is local to the building process: the receiver holds
            # bit-identical ram buffers, the label survives, no file path.
            assert clone.buffer_backend == "memmap"
            assert clone.memmap_path is None
            assert clone.node_ids == index.node_ids
            for field, typecode in _SHARED_FIELDS:
                restored = getattr(clone, field)
                assert type(restored) is np.ndarray
                assert restored.dtype == (np.int64 if typecode == "q" else np.float64)
                assert list(restored) == list(getattr(index, field))
        finally:
            index.close()

    def test_shared_memory_round_trip_from_memmap(self, blocks, tmp_path):
        from repro.metablocking import sharedmem

        index = CSRBlockIndex.from_blocks(
            blocks,
            opts(buffer_backend="memmap", tmp_dir=str(tmp_path)),
        )
        reference = MetaBlocker("cbs", "wnp").run(blocks).retained_edges
        try:
            index.export_shared()
            clone = pickle.loads(pickle.dumps(index))
            assert list(clone.node_ids) == list(index.node_ids)
            for field, _typecode in _SHARED_FIELDS:
                assert list(getattr(clone, field)) == list(getattr(index, field))
            del clone
            gc.collect()
        finally:
            index.close()
        assert sharedmem.live_segments() == []
        assert tmpfiles.live_artifacts("csrbuf") == []

    def test_crash_mid_run_is_reclaimed_by_the_sweep(self, blocks, tmp_path):
        # A process that dies holding an open memmap buffer cannot unlink
        # it; the next session's dead-pid sweep must. Simulate the crash
        # with a child that builds the index and hard-exits.
        script = (
            "import os, random, sys\n"
            "from repro.blocking.block import Block, BlockCollection\n"
            "from repro.metablocking.index import CSRBlockIndex\n"
            "from repro.options import EngineOptions\n"
            "rng = random.Random(3)\n"
            "blocks = BlockCollection(clean_clean=False)\n"
            "for i in range(40):\n"
            "    blocks.add(Block(key=str(i),\n"
            "        profiles_source0={rng.randrange(30) for _ in range(3)}))\n"
            "index = CSRBlockIndex.from_blocks(\n"
            "    blocks, EngineOptions.resolve(\n"
            "        buffer_backend='memmap', tmp_dir=sys.argv[1]))\n"
            "print(index.memmap_path, flush=True)\n"
            "os._exit(0)\n"
        )
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        output = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert os.path.exists(output)  # the crash orphaned the file
        removed = tmpfiles.sweep_orphaned_artifacts(str(tmp_path))
        assert output in removed
        assert not os.path.exists(output)

    def test_run_with_memmap_leaves_no_artifacts(self, blocks, tmp_path):
        result = MetaBlocker(
            "ecbs", "cep", options=opts(buffer_backend="memmap", tmp_dir=str(tmp_path))
        ).run(blocks)
        assert result.num_candidates > 0
        assert tmpfiles.live_artifacts("csrbuf") == []
        assert list(tmp_path.iterdir()) == []


class TestTmpRootReachesEveryIndexBuilder:
    """An explicit temp root is honoured by every path that builds a CSR index.

    Before options were handed down as one value, the progressive stage, the
    service's cold sweep and the blocking-graph builder dropped ``tmp_dir`` on
    the way to the index, so a memmap buffer landed in the platform temp dir
    instead of the requested root.
    """

    @pytest.fixture
    def seen(self, monkeypatch):
        """The ``csrbuf`` artifacts alive whenever a kernel is handed out."""
        seen: list[str] = []
        kernel = CSRBlockIndex.kernel

        def spying_kernel(index):
            seen.extend(tmpfiles.live_artifacts("csrbuf"))
            return kernel(index)

        monkeypatch.setattr(CSRBlockIndex, "kernel", spying_kernel)
        return seen

    @staticmethod
    def _assert_under_root_and_gone(seen, root):
        assert seen, "no memmap buffer was alive during the run"
        assert {os.path.dirname(path) for path in seen} == {str(root)}
        assert tmpfiles.live_artifacts("csrbuf") == []
        assert list(root.iterdir()) == []

    @pytest.mark.parametrize("strategy", ["global", "node"])
    def test_progressive_stage(self, strategy, seen, tmp_path):
        from repro.pipeline import Pipeline

        dataset = generate_abt_buy_like(SyntheticConfig(num_entities=30, seed=3))
        pipeline = Pipeline.from_spec(
            {
                "engine": {"buffer_backend": "memmap", "tmp_dir": str(tmp_path)},
                "stages": [
                    "token_blocking",
                    {"stage": "progressive_meta_blocking",
                     "params": {"strategy": strategy, "budget": 50}},
                ],
            }
        )
        result = pipeline.run(dataset.profiles)
        assert len(result.candidate_pairs) == 50
        self._assert_under_root_and_gone(seen, tmp_path)

    @pytest.mark.parametrize("progressive", ["sorted", "node"])
    def test_service_collection_cold_sweep(self, progressive, seen, tmp_path):
        from repro.service.collection import CollectionConfig, ServiceCollection

        collection = ServiceCollection(
            CollectionConfig(
                name="tenant", buffer_backend="memmap", tmp_dir=str(tmp_path),
                progressive=progressive,
            )
        )
        try:
            collection.ingest(
                {"profiles": [
                    {"attributes": {"name": f"alpha bravo {i % 3}"}} for i in range(12)
                ]}
            )
            assert collection.matches(0, 5)["scheduled"] == 5
            assert collection.candidates(0)["candidates"]
        finally:
            collection.close()
        self._assert_under_root_and_gone(seen, tmp_path)

    def test_meta_blocker(self, blocks, seen, tmp_path):
        options = opts(buffer_backend="memmap", tmp_dir=str(tmp_path))
        assert MetaBlocker("cbs", "wnp", options=options).run(blocks).graph_edges > 0
        self._assert_under_root_and_gone(seen, tmp_path)


class TestLazyGenerators:
    @pytest.mark.parametrize("num_entities,seed", [(300, 42), (137, 7), (0, 5), (1, 9)])
    def test_iter_abt_buy_matches_eager(self, num_entities, seed):
        config = SyntheticConfig(num_entities=num_entities, seed=seed)
        dataset = generate_abt_buy_like(config)
        profiles, matches = [], set()
        for profile, match in iter_abt_buy_like(config):
            profiles.append(profile)
            if match is not None:
                matches.add(match)
        assert [
            (p.profile_id, p.original_id, p.source_id, p.attributes)
            for p in profiles
        ] == [
            (p.profile_id, p.original_id, p.source_id, p.attributes)
            for p in dataset.profiles
        ]
        assert {tuple(sorted(pair)) for pair in matches} == dataset.ground_truth.pairs()

    @pytest.mark.parametrize("num_entities,seed", [(500, 42), (64, 3)])
    def test_iter_scalability_matches_eager(self, num_entities, seed):
        dataset = generate_scalability_products(num_entities, seed=seed)
        profiles, matches = [], set()
        for profile, match in iter_scalability_products(num_entities, seed=seed):
            profiles.append(profile)
            if match is not None:
                matches.add(match)
        assert [
            (p.profile_id, p.original_id, p.source_id, p.attributes)
            for p in profiles
        ] == [
            (p.profile_id, p.original_id, p.source_id, p.attributes)
            for p in dataset.profiles
        ]
        assert {tuple(sorted(pair)) for pair in matches} == dataset.ground_truth.pairs()

    def test_scalability_generator_is_deterministic(self):
        first = [
            (p.profile_id, p.original_id, p.attributes, match)
            for p, match in iter_scalability_products(400, seed=11)
        ]
        second = [
            (p.profile_id, p.original_id, p.attributes, match)
            for p, match in iter_scalability_products(400, seed=11)
        ]
        assert first == second
        reseeded = [
            (p.profile_id, p.original_id, p.attributes, match)
            for p, match in iter_scalability_products(400, seed=12)
        ]
        assert first != reseeded

    def test_scalability_generator_shape(self):
        dataset = generate_scalability_products(200, seed=42, match_rate=0.5)
        sources = {p.source_id for p in dataset.profiles}
        assert sources == {0, 1}
        num_source1 = sum(1 for p in dataset.profiles if p.source_id == 1)
        assert num_source1 == len(dataset.ground_truth)
        assert 0 < num_source1 < 200
        for a, b in dataset.ground_truth:
            assert dataset.profiles[a].source_id != dataset.profiles[b].source_id
