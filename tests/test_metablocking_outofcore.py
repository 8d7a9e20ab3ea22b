"""Bounded-memory meta-blocking output.

:meth:`MetaBlocker.stream_retained` (and the parallel wrapper) yields the
retained edges in bounded chunks whose concatenation equals
``run(blocks).retained_edges.items()`` exactly — same edges, same floats,
same order — for every strategy and chunk size.  The scalability
generator's shape is checked here too; its output is pinned in
``tests/golden.json``.
"""

from __future__ import annotations

import random

import pytest

from repro.blocking.block import Block, BlockCollection
from repro.data.synthetic import generate_scalability_products
from repro.engine.context import EngineContext
from repro.exceptions import MetaBlockingError
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker


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


def test_scalability_generator_shape():
    dataset = generate_scalability_products(200, seed=42, match_rate=0.5)
    sources = {p.source_id for p in dataset.profiles}
    assert sources == {0, 1}
    num_source1 = sum(1 for p in dataset.profiles if p.source_id == 1)
    assert num_source1 == len(dataset.ground_truth)
    assert 0 < num_source1 < 200
    for a, b in dataset.ground_truth:
        assert dataset.profiles[a].source_id != dataset.profiles[b].source_id
