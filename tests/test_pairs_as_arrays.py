"""Candidate pairs, the similarity graph and the component labels as arrays.

Meta-blocking hands the matcher a :class:`CandidatePairs` (two sorted id
columns), the matcher builds an array-backed :class:`SimilarityGraph` and
connected components label it with numpy.  Each is held here to the python
structure it replaced: plain sets of tuples, the retained-edge dict and its
stream, a dict of edges with "a higher score replaces", and the union-find
components of ``tests/components_reference.py`` — ids, members and the order
the members were filled in.  Parent-shaped pickles (a set, a dict, an
``_edges`` dict) must still load and resume.
"""

from __future__ import annotations

import pickle
import struct
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blocking.block import Block, BlockCollection
from repro.blocking.filtering import BlockFiltering
from repro.blocking.pairs import CandidatePairs
from repro.blocking.purging import BlockPurging
from repro.blocking.stats import (
    block_stage_metrics,
    candidate_pair_stats,
    compute_blocking_stats,
    pair_stats,
)
from repro.blocking.token_blocking import TokenBlocking
from repro.clustering.base import ClusteringAlgorithm
from repro.clustering.connected_components import ConnectedComponentsClustering, component_labels
from repro.core.config import ClustererConfig, SparkERConfig
from repro.core.debugging import DebugSession
from repro.core.entity_clusterer import EntityClusterer
from repro.core.entity_matcher import EntityMatcher
from repro.data.ground_truth import GroundTruth, canonical_pair
from repro.evaluation.metrics import blocking_metrics
from repro.matching.matcher import Matcher, ThresholdMatcher
from repro.matching.similarity_graph import SimilarityEdge, SimilarityGraph
from repro.metablocking import backends
from repro.metablocking.metablocker import MetaBlocker, MetaBlockingResult
from repro.metablocking.pruning import CardinalityNodePruning, WeightedNodePruning
from repro.pipeline import Pipeline
from repro.pipeline.checkpoint import PipelineCheckpoint
from tests.components_reference import connected_components
from tests.test_blocking_columns import collections

# Ids on both sides of a digit-count boundary, where repr order and numeric
# order disagree (``"10" < "9"``).
boundary_ids = st.sampled_from([0, 1, 2, 8, 9, 10, 11, 19, 20, 98, 99, 100, 101, 999, 1000])
scores = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
edge_lists = st.lists(st.tuples(boundary_ids, boundary_ids, scores), max_size=30)
pair_sets = st.sets(
    st.tuples(boundary_ids, boundary_ids).map(lambda pair: canonical_pair(*pair)), max_size=25
)


def dict_graph(edges) -> dict:
    """What the dict-of-edges graph held: canonical pair -> the edge, a
    strictly higher score replacing it in place."""
    held: dict = {}
    for a, b, score in edges:
        key = canonical_pair(a, b)
        if key not in held or score > held[key][2]:
            held[key] = (a, b, score)
    return held


def as_rows(graph) -> list:
    return [(e.profile_a, e.profile_b, struct.pack("<d", e.score)) for e in graph]


def reference_clusters(graph: SimilarityGraph) -> list:
    """Connected-components clusters as the union-find clusterer built them."""
    components = connected_components((edge.pair for edge in graph), graph.nodes())
    return ClusteringAlgorithm._build_clusters(components)


def cluster_rows(clusters) -> list:
    """Ids, and members in the order their sets iterate."""
    return [(cluster.cluster_id, list(cluster.members)) for cluster in clusters]


# --------------------------------------------------------------------------
# similarity graph
# --------------------------------------------------------------------------
class TestSimilarityGraphColumns:
    @settings(max_examples=150, deadline=None)
    @given(edge_lists)
    def test_graph_equals_the_dict_of_edges(self, edges):
        held = dict_graph(edges)
        expected = [(a, b, struct.pack("<d", s)) for a, b, s in held.values()]
        added = SimilarityGraph()
        for a, b, score in edges:
            added.add(a, b, score)
        columns = list(zip(*edges)) or [(), (), ()]
        for graph in (
            SimilarityGraph(SimilarityEdge(*edge) for edge in edges),
            SimilarityGraph.from_arrays(*columns),
            added,
            pickle.loads(pickle.dumps(added)),
        ):
            assert as_rows(graph) == expected
            assert len(graph) == len(held)
            assert graph.pairs() == set(held)
            nodes: set = set()
            for lower, upper in held:  # the dict graph's nodes(), in its order
                nodes.add(lower)
                nodes.add(upper)
            assert list(graph.nodes()) == list(nodes)
            for a, b, score in edges:
                assert (a, b) in graph and (b, a) in graph
                assert graph.score_of(b, a) == held[canonical_pair(a, b)][2]
            assert (1001, 1002) not in graph and graph.score_of(1001, 1002) is None

    @settings(max_examples=60, deadline=None)
    @given(edge_lists, scores)
    def test_edges_above(self, edges, threshold):
        held = dict_graph(edges)
        kept = [(a, b, struct.pack("<d", s)) for a, b, s in held.values() if s >= threshold]
        graph = SimilarityGraph(SimilarityEdge(*edge) for edge in edges)
        assert as_rows(graph.edges_above(threshold)) == kept


# --------------------------------------------------------------------------
# connected components
# --------------------------------------------------------------------------
class TestArrayConnectedComponents:
    @settings(max_examples=300, deadline=None)
    @given(edge_lists)
    def test_clusters_equal_the_union_find_reference(self, edges):
        """Ids in repr order of the smallest member, members filled in the
        graph's node order — duplicate, reversed and self pairs included."""
        graph = SimilarityGraph(SimilarityEdge(*edge) for edge in edges)
        clusters = ConnectedComponentsClustering().cluster(graph)
        assert cluster_rows(clusters) == cluster_rows(reference_clusters(graph))

    @settings(max_examples=100, deadline=None)
    @given(edge_lists, scores)
    def test_min_score_filtering(self, edges, min_score):
        graph = SimilarityGraph(SimilarityEdge(*edge) for edge in edges)
        clusterer = EntityClusterer(ClustererConfig(min_score=min_score))
        kept = SimilarityGraph(
            SimilarityEdge(*edge) for edge in dict_graph(edges).values() if edge[2] >= min_score
        )
        assert cluster_rows(clusterer.cluster(graph)) == cluster_rows(reference_clusters(kept))

    def test_repr_order_of_the_smallest_member(self):
        graph = SimilarityGraph.from_arrays([9, 10, 100], [99, 11, 101], [1.0, 1.0, 1.0])
        clusters = ConnectedComponentsClustering().cluster(graph)
        assert [sorted(c.members) for c in clusters] == [[10, 11], [100, 101], [9, 99]]
        assert [c.cluster_id for c in clusters] == [0, 1, 2]

    def test_star_under_its_largest_id(self):
        """Every leaf hooks the centre in one round: the smallest writer wins."""
        leaves = list(range(3000))
        graph = SimilarityGraph.from_arrays(leaves, [3000] * 3000, [1.0] * 3000)
        assert component_labels(np.arange(3000), np.full(3000, 3000), 3001).tolist() == [0] * 3001
        (cluster,) = ConnectedComponentsClustering().cluster(graph)
        assert cluster.members == set(range(3001))

    def test_long_chain_in_descending_ids(self):
        ids = list(range(200, 0, -1))
        graph = SimilarityGraph.from_arrays(ids[:-1], ids[1:], [1.0] * 199)
        (cluster,) = ConnectedComponentsClustering().cluster(graph)
        assert cluster.members == set(range(1, 201))


# --------------------------------------------------------------------------
# candidate pairs
# --------------------------------------------------------------------------
class TestCandidatePairsAlgebra:
    @settings(max_examples=200, deadline=None)
    @given(pair_sets, pair_sets)
    def test_set_algebra_against_plain_sets(self, pairs, other):
        view = CandidatePairs.of(pairs)
        assert list(view) == sorted(pairs)
        assert len(view) == len(pairs)
        assert view == pairs and pairs == view
        assert (view == other) == (pairs == other) == (other == view)
        for result, expected in (
            (view & other, pairs & other),
            (other & view, other & pairs),
            (view - other, pairs - other),
            (other - view, other - pairs),
            (view | other, pairs | other),
            (view ^ other, pairs ^ other),
        ):
            assert type(result) is set and result == expected
        assert (view <= other) == (pairs <= other)
        assert (other <= view) == (other <= pairs)
        for pair in chain(pairs, other, [(1, 2), (2, 1), (0, 0), "ab", None, (1.5, 2)]):
            assert (pair in view) == (pair in pairs)
        assert view == CandidatePairs.of(pairs) and pickle.loads(pickle.dumps(view)) == view

    @settings(max_examples=100, deadline=None)
    @given(pair_sets, pair_sets)
    def test_statistics_read_the_view_as_the_set(self, pairs, truth_pairs):
        truth = GroundTruth(truth_pairs)
        view = CandidatePairs.of(pairs)
        assert candidate_pair_stats(view, truth, max_comparisons=1000) == candidate_pair_stats(
            pairs, truth, max_comparisons=1000
        )
        assert pair_stats(view, truth, None).lost_pairs == pair_stats(pairs, truth, None).lost_pairs
        assert blocking_metrics(view, truth, 1000) == blocking_metrics(pairs, truth, 1000)

    def test_read_only(self):
        view = CandidatePairs.of([(2, 1)])
        assert not hasattr(view, "add")
        with pytest.raises(ValueError):
            view.a[0] = 5

    def test_blocking_stats_and_debug_session(self, abt_buy_small):
        blocks = TokenBlocking().block(abt_buy_small.profiles)
        truth = abt_buy_small.ground_truth
        pairs = blocks.distinct_comparisons()
        assert isinstance(pairs, CandidatePairs) and blocks.columns is not None
        stats = compute_blocking_stats(blocks, truth)
        assert stats.lost_pairs == truth.pairs() - set(pairs)
        assert stats.recall == len(set(pairs) & truth.pairs()) / len(truth.pairs())
        session = DebugSession(
            abt_buy_small.profiles, truth, SparkERConfig.unsupervised_default(), sample=False
        )
        for step in (session.try_threshold(0.3), session.try_meta_blocking()):
            assert isinstance(step.blocker_report.candidate_pairs, CandidatePairs)
            candidates = set(step.blocker_report.candidate_pairs)
            assert step.lost_pairs == truth.pairs() - candidates
            assert step.recall == len(candidates & truth.pairs()) / len(truth.pairs())


# --------------------------------------------------------------------------
# retained edges
# --------------------------------------------------------------------------
STRATEGIES = [
    "wep", "wnp", "cep", "cnp", "rwnp",
    CardinalityNodePruning(reciprocal=True), WeightedNodePruning(reciprocal=True),
]


class TestLazyRetainedEdges:
    @settings(max_examples=40, deadline=None)
    @given(collections(), st.sampled_from(["cbs", "ejs", "arcs"]))
    def test_items_equal_the_stream(self, profiles, weighting):
        blocks = TokenBlocking().block(profiles)
        for strategy in STRATEGIES:
            blocker = MetaBlocker(weighting, strategy, use_entropy=True)
            streamed = list(chain.from_iterable(blocker.stream_retained(blocks, chunk_edges=3)))
            result = blocker.run(blocks)
            assert len(result.retained_edges) == len(streamed)
            assert list(result.retained_edges.items()) == streamed
            assert list(result.candidate_pairs) == sorted(pair for pair, _weight in streamed)
            assert result.retained_edges == dict(streamed)

    def test_len_builds_no_dict(self, abt_buy_small, monkeypatch):
        blocks = TokenBlocking().block(abt_buy_small.profiles)
        result = MetaBlocker("cbs", "wnp").run(blocks)

        def forbidden(*args):
            raise AssertionError("the retained-edge dict was built")

        monkeypatch.setattr(backends.RetainedEdges, "as_dict", forbidden)
        assert len(result.retained_edges) == result.num_candidates > 0
        assert pickle.loads(pickle.dumps(result)).retained_edges.a.tolist() == (
            result.retained_edges.a.tolist()
        )


# --------------------------------------------------------------------------
# matching
# --------------------------------------------------------------------------
class TestOneMatchingPath:
    def test_columns_and_tuples_give_one_graph(self, abt_buy_small):
        profiles = abt_buy_small.profiles
        pairs = MetaBlocker("cbs", "wnp").run(TokenBlocking().block(profiles)).candidate_pairs
        matcher = EntityMatcher()
        reversed_tuples = [(b, a) for a, b in pairs][::-1]
        graphs = [
            matcher.match(profiles, pairs),
            matcher.match(profiles, list(pairs)[::-1]),
            matcher.match(profiles, set(pairs)),
            Matcher.match(ThresholdMatcher("jaccard", 0.4), profiles, pairs),
        ]
        assert all(as_rows(graph) == as_rows(graphs[0]) for graph in graphs)
        # Reversed tuples sort differently, but score and match the same pairs.
        assert matcher.match(profiles, reversed_tuples).pairs() == graphs[0].pairs()


# --------------------------------------------------------------------------
# block stage counts
# --------------------------------------------------------------------------
def _metric(blocks) -> int:
    return block_stage_metrics(blocks)["candidate_pairs"]


class TestStageCounts:
    @settings(max_examples=150, deadline=None)
    @given(
        collections(),
        st.sampled_from([0.2, 0.5, 1.0]),
        st.sampled_from([0.3, 0.8, 1.0]),
    )
    def test_each_stage_metric_is_the_distinct_pair_count(self, profiles, fraction, ratio):
        raw = TokenBlocking().block(profiles)
        purged = BlockPurging(max_profile_fraction=fraction).purge(raw, len(profiles))
        filtered = BlockFiltering(ratio=ratio).filter(purged)
        for blocks in (raw, purged, filtered):
            count = _metric(blocks)
            assert count == len(blocks.distinct_comparisons())
            assert count == len(set(chain.from_iterable(b.comparisons() for b in blocks)))

    def test_an_unchanged_purge_reuses_the_count(self, abt_buy_small, monkeypatch):
        raw = TokenBlocking().block(abt_buy_small.profiles)
        expected = _metric(raw)

        def forbidden(self):
            raise AssertionError("counted again")

        monkeypatch.setattr(BlockCollection, "_pair_codes", forbidden)
        kept = BlockPurging(max_profile_fraction=1.0).purge(raw, len(abt_buy_small.profiles))
        assert _metric(BlockFiltering(ratio=1.0).filter(kept)) == expected

    def test_a_changed_collection_counts_afresh(self, abt_buy_small):
        raw = TokenBlocking().block(abt_buy_small.profiles)
        _metric(raw)
        filtered = BlockFiltering(ratio=0.5).filter(raw)
        assert filtered.total_comparisons() < raw.total_comparisons()
        assert _metric(filtered) == len(filtered.distinct_comparisons()) < _metric(raw)

    def test_object_collections_with_zero_comparison_blocks(self):
        blocks = BlockCollection(
            [
                Block("a", {1, 2, 3}),
                Block("b", {4}),  # no comparison
                Block("c", {1, 2}),
                Block("d", {5}, set(), clean_clean=True),  # no comparison either
            ]
        )
        for stage in (
            lambda b: BlockPurging(max_profile_fraction=1.0).purge(b, 5),
            lambda b: BlockFiltering(ratio=1.0).filter(b),
        ):
            out = stage(blocks)
            assert _metric(out) == len(out.distinct_comparisons()) == 3
        blocks.add(Block("e", {6, 7}))
        assert _metric(blocks) == 4


# --------------------------------------------------------------------------
# checkpoints written before the arrays
# --------------------------------------------------------------------------
def _parent_shaped(value):
    """``value`` as the previous version pickled it: a graph as an
    ``_edges`` dict, candidate pairs as a set, retained edges as a dict."""
    if isinstance(value, SimilarityGraph):
        old = SimilarityGraph.__new__(SimilarityGraph)
        old.__dict__ = {"_edges": {edge.pair: edge for edge in value}}
        return old
    if isinstance(value, CandidatePairs):
        return set(value)
    if isinstance(value, MetaBlockingResult):
        return MetaBlockingResult(
            set(value.candidate_pairs), dict(value.retained_edges),
            value.graph_edges, value.graph_nodes,
        )
    return value


FULL_SPEC = {
    "stages": [
        {"stage": stage}
        for stage in (
            "token_blocking", "block_purging", "block_filtering", "meta_blocking",
            "matching", "clustering", "entity_generation",
        )
    ]
}


class TestParentCheckpoints:
    def test_parent_shaped_graph_unpickles(self, tmp_path):
        graph = SimilarityGraph.from_arrays([2, 1, 3], [1, 2, 4], [0.5, 0.75, 0.25])
        checkpoint = PipelineCheckpoint(tmp_path / "ckpt")
        checkpoint.save({"graph": _parent_shaped(graph)})
        restored = checkpoint.load()["graph"]
        assert type(restored) is SimilarityGraph
        assert as_rows(restored) == as_rows(graph) == [
            (1, 2, struct.pack("<d", 0.75)), (3, 4, struct.pack("<d", 0.25))
        ]
        assert cluster_rows(ConnectedComponentsClustering().cluster(restored)) == (
            cluster_rows(ConnectedComponentsClustering().cluster(graph))
        )

    @pytest.mark.parametrize("stop_after", ["meta_blocking", "matching"])
    def test_parent_shaped_checkpoint_resumes(self, abt_buy_small, tmp_path, stop_after):
        profiles, truth = abt_buy_small.profiles, abt_buy_small.ground_truth
        uninterrupted = Pipeline.from_spec(FULL_SPEC).run(profiles, truth)
        checkpoint = PipelineCheckpoint(tmp_path / "ckpt")
        Pipeline.from_spec(FULL_SPEC).run(
            profiles, truth, checkpoint=checkpoint, stop_after=stop_after
        )
        state = checkpoint.load()
        store = state["store"]
        for key, value in list(store._values.items()):
            store._values[key] = _parent_shaped(value)
        assert type(store.get("candidate_pairs")) is set
        checkpoint.save(pickle.loads(pickle.dumps(state)))
        loaded = checkpoint.load()["store"]
        result, expected = loaded.get("meta_blocking"), uninterrupted.artifacts.get("meta_blocking")
        assert type(result) is MetaBlockingResult
        assert type(result.candidate_pairs) is CandidatePairs
        assert type(result.retained_edges) is backends.RetainedEdges
        assert result.candidate_pairs == expected.candidate_pairs
        assert list(result.retained_edges.items()) == list(expected.retained_edges.items())
        if "similarity_graph" in loaded:
            assert type(loaded.get("similarity_graph")) is SimilarityGraph
        resumed = Pipeline.resume(checkpoint)
        assert sorted(resumed.candidate_pairs) == sorted(uninterrupted.candidate_pairs)
        assert as_rows(resumed.similarity_graph) == as_rows(uninterrupted.similarity_graph)
        assert cluster_rows(resumed.clusters) == cluster_rows(uninterrupted.clusters)
        assert resumed.entities == uninterrupted.entities
        assert resumed.metric_rows() == uninterrupted.metric_rows()
