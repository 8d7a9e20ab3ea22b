"""Property-based tests (hypothesis) of core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.blocking.block import Block, BlockCollection
from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.data.ground_truth import GroundTruth, canonical_pair
from repro.evaluation.metrics import pair_metrics
from repro.matching.similarity import (
    dice_similarity,
    jaccard_similarity,
    jaro_winkler_similarity,
    levenshtein_similarity,
)
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.pruning import CardinalityEdgePruning
from repro.utils.text import normalize_text
from repro.utils.tokenize import tokenize
from tests.components_reference import connected_components

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
short_text = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd", "Zs"), max_codepoint=0x24F),
    max_size=40,
)

pair_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30)),
    max_size=40,
)


def _random_blocks(draw_sets: list[tuple[list[int], list[int]]]) -> BlockCollection:
    collection = BlockCollection(clean_clean=True)
    for index, (source0, source1) in enumerate(draw_sets):
        collection.add(
            Block(
                key=f"k{index}",
                profiles_source0=set(source0),
                profiles_source1={i + 1000 for i in source1},
                clean_clean=True,
            )
        )
    return collection


block_member_lists = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=25), min_size=0, max_size=6),
        st.lists(st.integers(min_value=0, max_value=25), min_size=0, max_size=6),
    ),
    min_size=1,
    max_size=15,
)


# ---------------------------------------------------------------------------
# text
# ---------------------------------------------------------------------------
class TestTextProperties:
    @given(short_text)
    def test_normalize_idempotent(self, text):
        assert normalize_text(normalize_text(text)) == normalize_text(text)

    @given(short_text)
    def test_tokens_are_normalized(self, text):
        for token in tokenize(text):
            assert token == normalize_text(token)
            assert " " not in token


class TestSimilarityProperties:
    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert abs(jaccard_similarity(a, b) - jaccard_similarity(b, a)) < 1e-12
        assert abs(levenshtein_similarity(a, b) - levenshtein_similarity(b, a)) < 1e-12

    @given(short_text)
    def test_identity_upper_bound(self, text):
        for function in (jaccard_similarity, dice_similarity, jaro_winkler_similarity):
            value = function(text, text)
            assert 0.0 <= value <= 1.0
            if tokenize(text):
                assert jaccard_similarity(text, text) == 1.0

    @given(short_text, short_text)
    def test_range(self, a, b):
        for function in (
            jaccard_similarity,
            dice_similarity,
            levenshtein_similarity,
            jaro_winkler_similarity,
        ):
            assert 0.0 <= function(a, b) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# ground truth / metrics
# ---------------------------------------------------------------------------
class TestGroundTruthProperties:
    @given(pair_lists)
    def test_canonical_and_symmetric(self, pairs):
        truth = GroundTruth(pairs)
        for a, b in truth:
            assert a < b
            assert (b, a) in truth

    @given(pair_lists, pair_lists)
    def test_pair_metrics_bounds(self, predicted, truth_pairs):
        truth = GroundTruth(truth_pairs)
        predicted_set = {canonical_pair(a, b) for a, b in predicted if a != b}
        metrics = pair_metrics(predicted_set, truth)
        assert 0.0 <= metrics.precision <= 1.0
        assert 0.0 <= metrics.recall <= 1.0
        assert 0.0 <= metrics.f1 <= 1.0
        assert metrics.true_positives + metrics.false_positives == len(predicted_set)
        assert metrics.true_positives + metrics.false_negatives == len(truth)


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------
class TestConnectedComponentsProperties:
    @given(pair_lists)
    @settings(max_examples=25, deadline=None)
    def test_label_is_the_minimum_reachable_node(self, edges):
        neighbours: dict = {}
        for a, b in edges:
            neighbours.setdefault(a, set()).add(b)
            neighbours.setdefault(b, set()).add(a)
        assignment = connected_components(edges)
        assert set(assignment) == set(neighbours)
        for start in neighbours:
            reached, frontier = {start}, [start]
            while frontier:
                for node in neighbours[frontier.pop()] - reached:
                    reached.add(node)
                    frontier.append(node)
            assert assignment[start] == min(reached)

    @given(pair_lists)
    def test_endpoints_same_component(self, edges):
        assignment = connected_components(edges)
        for a, b in edges:
            assert assignment[a] == assignment[b]


# ---------------------------------------------------------------------------
# blocking invariants
# ---------------------------------------------------------------------------
class TestBlockingProperties:
    @given(block_member_lists)
    @settings(max_examples=40, deadline=None)
    def test_purging_never_adds_comparisons(self, members):
        blocks = _random_blocks(members)
        purged = BlockPurging().purge(blocks)
        assert purged.distinct_comparisons() <= blocks.distinct_comparisons()

    @given(block_member_lists)
    @settings(max_examples=40, deadline=None)
    def test_filtering_never_adds_comparisons(self, members):
        blocks = _random_blocks(members)
        filtered = BlockFiltering(ratio=0.6).filter(blocks)
        assert filtered.distinct_comparisons() <= blocks.distinct_comparisons()

    @given(block_member_lists)
    @settings(max_examples=40, deadline=None)
    def test_filtering_keeps_blocks_valid(self, members):
        filtered = BlockFiltering(ratio=0.5).filter(_random_blocks(members))
        assert all(block.is_valid() for block in filtered)

    @given(block_member_lists)
    @settings(max_examples=40, deadline=None)
    def test_clean_clean_blocks_never_produce_within_source_pairs(self, members):
        blocks = _random_blocks(members)
        for a, b in blocks.distinct_comparisons():
            # Source-0 ids are < 1000, source-1 ids are >= 1000 by construction.
            assert (a < 1000) != (b < 1000)


# ---------------------------------------------------------------------------
# meta-blocking invariants
# ---------------------------------------------------------------------------
def _all_cbs_weights(blocks):
    """Every edge weight: CEP with a k no graph here reaches keeps them all."""
    return MetaBlocker("cbs", CardinalityEdgePruning(k=10**9)).run(blocks).retained_edges


class TestMetaBlockingProperties:
    @given(block_member_lists)
    @settings(max_examples=30, deadline=None)
    def test_pruning_output_subset_of_graph(self, members):
        blocks = _random_blocks(members)
        weights = _all_cbs_weights(blocks)
        for strategy in ("wep", "wnp"):
            retained = MetaBlocker("cbs", strategy).run(blocks).retained_edges
            assert set(retained) <= set(weights)

    @given(block_member_lists)
    @settings(max_examples=30, deadline=None)
    def test_wnp_retains_every_node_best_edge(self, members):
        blocks = _random_blocks(members)
        weights = _all_cbs_weights(blocks)
        retained = MetaBlocker("cbs", "wnp").run(blocks).retained_edges
        # Every node's locally heaviest edge is >= its mean, so it must survive.
        best: dict[int, tuple[tuple[int, int], float]] = {}
        for pair, weight in weights.items():
            for node in pair:
                if node not in best or weight > best[node][1]:
                    best[node] = (pair, weight)
        for node, (pair, _weight) in best.items():
            assert pair in retained

    @given(block_member_lists)
    @settings(max_examples=20, deadline=None)
    def test_metablocker_candidates_subset_of_block_comparisons(self, members):
        blocks = _random_blocks(members)
        result = MetaBlocker("cbs", "wep").run(blocks)
        assert result.candidate_pairs <= blocks.distinct_comparisons()
