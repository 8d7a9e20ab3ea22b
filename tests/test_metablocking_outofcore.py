"""Bounded-memory meta-blocking output and lazy data.

Two contracts:

* :meth:`MetaBlocker.stream_retained` (and the parallel wrapper) yields the
  retained edges in bounded chunks whose concatenation equals
  ``run(blocks).retained_edges.items()`` exactly — same edges, same floats,
  same order — for every strategy and chunk size;
* the lazy synthetic generators (:func:`iter_abt_buy_like`,
  :func:`iter_scalability_products`) replay the eager generators bit-for-bit
  so the committed scalability baselines are reproducible from the stream.
"""

from __future__ import annotations

import random

import pytest

from repro.blocking.block import Block, BlockCollection
from repro.data.synthetic import (
    SyntheticConfig,
    generate_abt_buy_like,
    generate_scalability_products,
    iter_abt_buy_like,
    iter_scalability_products,
)
from repro.engine.context import EngineContext
from repro.exceptions import MetaBlockingError
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker
from repro.metablocking.pruning import WeightedNodePruning


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
