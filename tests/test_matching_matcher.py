"""Tests of threshold / rule-based matchers and the similarity graph."""

import importlib
import struct
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.dataset import ProfileCollection
from repro.data.profile import EntityProfile, KeyValue
from repro.exceptions import DataError, MatchingError
from repro.matching import matcher as matcher_module
from repro.matching.matcher import Matcher, MatchingRule, RuleBasedMatcher, ThresholdMatcher
from repro.matching.similarity import SIMILARITY_FUNCTIONS
from repro.matching.similarity_graph import SimilarityEdge, SimilarityGraph

# The module, not the function ``repro.utils`` re-exports under the same name.
tokenize_module = importlib.import_module("repro.utils.tokenize")


def _profiles() -> ProfileCollection:
    p0 = EntityProfile(profile_id=0, source_id=0)
    p0.add("name", "sony bravia 40 inch tv")
    p0.add("price", "499")
    p1 = EntityProfile(profile_id=1, source_id=1)
    p1.add("title", "sony bravia 40 inch television")
    p1.add("list_price", "510")
    p2 = EntityProfile(profile_id=2, source_id=1)
    p2.add("title", "whirlpool stainless dishwasher")
    p2.add("list_price", "300")
    return ProfileCollection([p0, p1, p2])


class TestSimilarityGraph:
    def test_add_and_contains(self):
        graph = SimilarityGraph()
        graph.add(2, 1, 0.8)
        assert (1, 2) in graph
        assert (2, 1) in graph
        assert graph.score_of(1, 2) == 0.8

    def test_higher_score_wins(self):
        graph = SimilarityGraph()
        graph.add(1, 2, 0.5)
        graph.add(2, 1, 0.9)
        graph.add(1, 2, 0.3)
        assert graph.score_of(1, 2) == 0.9
        assert len(graph) == 1

    def test_nodes_and_pairs(self):
        graph = SimilarityGraph([SimilarityEdge(1, 2, 0.5), SimilarityEdge(3, 4, 0.6)])
        assert graph.nodes() == {1, 2, 3, 4}
        assert graph.pairs() == {(1, 2), (3, 4)}

    def test_edges_above(self):
        graph = SimilarityGraph([SimilarityEdge(1, 2, 0.5), SimilarityEdge(3, 4, 0.9)])
        filtered = graph.edges_above(0.8)
        assert filtered.pairs() == {(3, 4)}

    def test_missing_score_none(self):
        assert SimilarityGraph().score_of(1, 2) is None


class TestThresholdMatcher:
    def test_matches_similar_pair(self):
        profiles = _profiles()
        matcher = ThresholdMatcher("jaccard", threshold=0.4)
        graph = matcher.match(profiles, [(0, 1), (0, 2)])
        assert (0, 1) in graph
        assert (0, 2) not in graph

    def test_score_in_unit_interval(self):
        profiles = _profiles()
        matcher = ThresholdMatcher("jaccard", threshold=0.0)
        assert 0.0 <= matcher.score(profiles[0], profiles[1]) <= 1.0

    def test_threshold_one_matches_only_identical(self):
        profiles = _profiles()
        graph = ThresholdMatcher("jaccard", threshold=1.0).match(profiles, [(0, 1)])
        assert len(graph) == 0

    def test_invalid_threshold(self):
        with pytest.raises(MatchingError):
            ThresholdMatcher(threshold=1.5)

    def test_unknown_similarity(self):
        with pytest.raises(MatchingError):
            ThresholdMatcher(similarity="nope")

    def test_different_similarities_give_different_graphs(self):
        profiles = _profiles()
        jaccard = ThresholdMatcher("jaccard", 0.3).match(profiles, [(0, 1), (0, 2)])
        levenshtein = ThresholdMatcher("levenshtein", 0.3).match(profiles, [(0, 1), (0, 2)])
        assert isinstance(jaccard, SimilarityGraph)
        assert isinstance(levenshtein, SimilarityGraph)


class TestRuleBasedMatcher:
    def test_conjunction_of_rules(self):
        profiles = _profiles()
        matcher = RuleBasedMatcher(
            [
                MatchingRule("jaccard", 0.4, "name", "title"),
                MatchingRule("numeric", 0.9, "price", "list_price"),
            ]
        )
        graph = matcher.match(profiles, [(0, 1), (0, 2)])
        assert (0, 1) in graph
        assert (0, 2) not in graph

    def test_single_failing_rule_rejects(self):
        profiles = _profiles()
        matcher = RuleBasedMatcher(
            [
                MatchingRule("jaccard", 0.4, "name", "title"),
                MatchingRule("numeric", 0.999, "price", "list_price"),
            ]
        )
        graph = matcher.match(profiles, [(0, 1)])
        assert len(graph) == 0

    def test_whole_profile_rule(self):
        profiles = _profiles()
        matcher = RuleBasedMatcher([MatchingRule("jaccard", 0.3)])
        assert matcher.is_match(profiles[0], profiles[1])

    def test_empty_rules_rejected(self):
        with pytest.raises(MatchingError):
            RuleBasedMatcher([])

    def test_score_is_mean_of_rules(self):
        profiles = _profiles()
        matcher = RuleBasedMatcher(
            [MatchingRule("jaccard", 0.1, "name", "title"), MatchingRule("numeric", 0.1, "price", "list_price")]
        )
        score = matcher.score(profiles[0], profiles[1])
        assert 0.0 <= score <= 1.0


# ---------------------------------------------------------------------------
# prepared-operand matching == the string-level similarity functions
# ---------------------------------------------------------------------------
_values = st.lists(
    st.sampled_from([
        "Sony", "sony", "TV", "tv,", "40\"", "Café", "12.5", "1,000", "x-1", "led",
        "Straße", "STRASSE", "İ", "i", "東京", "東京タワー", "a\x00b", "\x00", "--",
    ]),
    min_size=0,
    max_size=5,
).map(" ".join)


@st.composite
def _collections(draw):
    """Profiles under shuffled, non-contiguous ids, dirty or clean-clean, some
    with no attributes or empty values; pairs include reversed, repeated and
    self pairs."""
    ids = draw(st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=6,
                        unique=True))
    clean_clean = draw(st.booleans())
    profiles = []
    for index, profile_id in enumerate(ids):
        profile = EntityProfile(profile_id=profile_id, source_id=index % 2 if clean_clean else 0)
        for attribute in draw(st.lists(st.sampled_from(["name", "price"]), max_size=3)):
            # KeyValue directly: EntityProfile.add would skip an empty value
            profile.attributes.append(KeyValue(attribute, draw(_values)))
        profiles.append(profile)
    collection = ProfileCollection(profiles)
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    pairs += [(b, a) for a, b in pairs[:2]] + pairs[:1] + [(ids[0], ids[0])]
    return collection, draw(st.permutations(pairs))


def _string_level_graph(profiles, pairs, function, threshold) -> list:
    """``(a, b, score bits)`` of the edges the definition gives, in graph order."""
    graph = SimilarityGraph()
    for a, b in pairs:
        score = function(profiles[a].text(), profiles[b].text())
        if score >= threshold:
            graph.add(a, b, score)
    return _edges(graph)


def _edges(graph) -> list:
    return [(edge.profile_a, edge.profile_b, struct.pack("<d", edge.score)) for edge in graph]


class TestMatchersEqualStringLevelSimilarities:
    @settings(max_examples=60, deadline=None)
    @given(_collections(), st.sampled_from(sorted(SIMILARITY_FUNCTIONS)), st.sampled_from([0.0, 0.3, 1.0]))
    def test_threshold_matcher(self, task, name, threshold):
        profiles, pairs = task
        function = SIMILARITY_FUNCTIONS[name]
        matcher = ThresholdMatcher(name, threshold)
        expected = _string_level_graph(profiles, pairs, function, threshold)
        assert _edges(matcher.match(profiles, pairs)) == expected
        for a, b in pairs:  # the single-pair API agrees with the definition
            score = function(profiles[a].text(), profiles[b].text())
            assert matcher.score(profiles[a], profiles[b]) == score
            assert matcher.is_match(profiles[a], profiles[b]) == (score >= threshold)

    @settings(max_examples=100, deadline=None)
    @given(_collections())
    def test_token_set_array_pass(self, task):
        """The array pass of jaccard / dice / overlap, at every chunk budget
        and with a table of one block of rows, of several blocks or of one
        row per block, gives the definition's edges in the definition's
        order, bit for bit."""
        profiles, pairs = task
        width = max(len(tokenize_module.token_table(profiles).forms), 1)
        tables = {"one block": len(profiles) * width, "several": 2 * width, "one row": 1}
        for name in ("jaccard", "dice", "overlap"):
            for threshold in (0.0, 0.4, 1.0):
                expected = _string_level_graph(
                    profiles, pairs, SIMILARITY_FUNCTIONS[name], threshold
                )
                for budget in (1, 8, matcher_module.PROBE_BUDGET):
                    for table, cells in tables.items():
                        with mock.patch.object(matcher_module, "PROBE_BUDGET", budget), \
                                mock.patch.object(matcher_module, "TABLE_BUDGET", cells):
                            graph = ThresholdMatcher(name, threshold).match(profiles, pairs)
                        assert _edges(graph) == expected, (name, threshold, budget, table)

    @settings(max_examples=60, deadline=None)
    @given(_collections(), st.sampled_from(sorted(SIMILARITY_FUNCTIONS)))
    def test_rule_based_matcher(self, task, name):
        profiles, pairs = task
        rules = [
            MatchingRule(name, 0.3, "name", "name"),
            MatchingRule("jaccard", 0.2),  # whole-profile text
            MatchingRule(name, 0.1, "name", "price"),  # one attribute, two operands
        ]
        expected = SimilarityGraph()
        for a, b in pairs:
            left, right = profiles[a], profiles[b]
            scores = [
                SIMILARITY_FUNCTIONS[name](left.value_of("name"), right.value_of("name")),
                SIMILARITY_FUNCTIONS["jaccard"](left.text(), right.text()),
                SIMILARITY_FUNCTIONS[name](left.value_of("name"), right.value_of("price")),
            ]
            if scores[0] >= 0.3 and scores[1] >= 0.2 and scores[2] >= 0.1:
                expected.add(a, b, sum(scores) / 3)
        graph = RuleBasedMatcher(rules).match(profiles, pairs)
        assert _edges(graph) == _edges(expected)


@st.composite
def _token_sets(draw, forms=60):
    """Profiles under scattered ids holding 0-15 of ``forms`` words each (a
    profile with none scores 0 against anything), and 1-30 pairs of them."""
    ids = draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=8, unique=True))
    profiles = []
    for profile_id in ids:
        profile = EntityProfile(profile_id=profile_id)
        words = draw(st.lists(st.integers(0, forms - 1), max_size=15))
        profile.attributes.append(KeyValue("name", " ".join(f"w{word}" for word in words)))
        profiles.append(profile)
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), min_size=1,
                          max_size=30))
    return ProfileCollection(profiles), pairs


def _array_pass_equals_pair_loop(profiles, pairs) -> None:
    """The array pass's edges, order and score bits are the base loop's."""
    for name in ("jaccard", "dice", "overlap"):
        for threshold in (0.0, 0.4):
            matcher = ThresholdMatcher(name, threshold)
            assert _edges(matcher.match(profiles, pairs)) == _edges(
                Matcher.match(matcher, profiles, pairs)
            ), (name, threshold)


class TestTokenSetTable:
    """The probe table of the array pass: rows of the pairs' larger sets,
    marked a block at a time, against ``Matcher.match``."""

    @settings(max_examples=60, deadline=None)
    @given(_token_sets(), st.data())
    def test_more_forms_than_the_table_holds(self, task, data):
        profiles, pairs = task
        width = len(tokenize_module.token_table(profiles).forms)
        cells = data.draw(st.integers(1, max(width - 1, 1)))
        with mock.patch.object(matcher_module, "TABLE_BUDGET", cells):
            _array_pass_equals_pair_loop(profiles, pairs)

    @settings(max_examples=40, deadline=None)
    @given(_token_sets(forms=4), st.sampled_from([1, 8, None]))
    def test_profiles_with_no_token(self, task, cells):
        profiles, pairs = task
        profiles = ProfileCollection([
            EntityProfile(profile.profile_id, attributes=[KeyValue("name", "")]) if i % 2 else profile
            for i, profile in enumerate(profiles)
        ])
        pairs = pairs + [(p.profile_id, q.profile_id) for p in profiles for q in profiles]
        with mock.patch.object(matcher_module, "TABLE_BUDGET", cells or matcher_module.TABLE_BUDGET):
            _array_pass_equals_pair_loop(profiles, pairs)

    @settings(max_examples=60, deadline=None)
    @given(_token_sets(), st.sampled_from([1, 8, None]), st.sampled_from([1, 8, None]))
    def test_larger_rows_listed_in_descending_order(self, task, cells, budget):
        profiles, pairs = task
        row = {profile.profile_id: position for position, profile in enumerate(profiles)}
        size = {profile.profile_id: len(set(profile.text().split())) for profile in profiles}
        pairs = sorted(pairs, key=lambda p: -row[p[0] if size[p[0]] > size[p[1]] else p[1]])
        with mock.patch.object(matcher_module, "TABLE_BUDGET", cells or matcher_module.TABLE_BUDGET), \
                mock.patch.object(matcher_module, "PROBE_BUDGET", budget or matcher_module.PROBE_BUDGET):
            _array_pass_equals_pair_loop(profiles, pairs)

    @settings(max_examples=40, deadline=None)
    @given(_token_sets(), st.integers(0, 2**41), st.data())
    def test_an_unknown_id_raises(self, task, unknown, data):
        profiles, pairs = task
        if unknown in {profile.profile_id for profile in profiles}:
            unknown = -1
        pairs = list(pairs)
        pairs.insert(data.draw(st.integers(0, len(pairs))), (pairs[0][0], unknown))
        for name in ("jaccard", "dice", "overlap"):
            matcher = ThresholdMatcher(name, 0.0)
            with pytest.raises(DataError) as per_pair:
                Matcher.match(matcher, profiles, pairs)
            with pytest.raises(DataError) as array_pass:
                matcher.match(profiles, pairs)
            assert str(array_pass.value) == str(per_pair.value)


class TestPreparedOperands:
    def test_each_profile_is_prepared_once_per_match_call(self, monkeypatch):
        profiles = _profiles()
        matcher = ThresholdMatcher("cosine", 0.0)
        prepared = []
        monkeypatch.setattr(
            matcher.similarity, "prepare", lambda text: prepared.append(text) or Counter(text.split())
        )
        matcher.match(profiles, [(0, 1), (0, 2), (1, 2), (0, 1)])
        assert sorted(prepared) == sorted(profile.text() for profile in profiles)
        # The memo belongs to the call: a second call prepares again.
        matcher.match(profiles, [(0, 1)])
        assert len(prepared) == 5

    @pytest.mark.parametrize("name", ["jaccard", "dice", "overlap"])
    def test_token_set_measures_prepare_nothing(self, monkeypatch, name):
        """Their matcher reads one token table instead of preparing texts."""
        profiles = _profiles()
        matcher = ThresholdMatcher(name, 0.0)
        prepared = []
        monkeypatch.setattr(
            matcher.similarity, "prepare", lambda text: prepared.append(text) or set(text.split())
        )
        graph = matcher.match(profiles, [(0, 1), (0, 2), (1, 2), (0, 1)])
        assert len(graph) == 3
        assert prepared == []

    def test_overridden_evaluate_is_scored_pair_by_pair(self):
        class Halved(ThresholdMatcher):
            def evaluate(self, left, right, prepared):
                matched, score = super().evaluate(left, right, prepared)
                return matched, score / 2

        profiles = _profiles()
        graph = Halved("jaccard", 0.0).match(profiles, [(0, 1)])
        full = ThresholdMatcher("jaccard", 0.0).match(profiles, [(0, 1)])
        assert graph.score_of(0, 1) == full.score_of(0, 1) / 2


class TestTokenSetArrayPassFailures:
    def _profiles(self) -> ProfileCollection:
        profiles = []
        for profile_id in (0, 5, 10):
            profile = EntityProfile(profile_id=profile_id)
            profile.add("name", f"sony tv {profile_id}")
            profiles.append(profile)
        return ProfileCollection(profiles)

    @pytest.mark.parametrize("unknown", [-1, 3, 7, 11, 10**9])
    def test_unknown_profile_id_raises_like_the_pair_loop(self, unknown):
        """An id between, below or above the known ones is never taken for a
        neighbouring row; the first unknown id in reading order is named."""
        profiles = self._profiles()
        pairs = [(0, 5), (5, unknown), (99, 0)]
        matcher = ThresholdMatcher("jaccard", 0.0)
        with pytest.raises(DataError) as per_pair:
            Matcher.match(matcher, profiles, pairs)
        with pytest.raises(DataError) as array_pass:
            matcher.match(profiles, pairs)
        assert str(array_pass.value) == str(per_pair.value) == f"unknown profile id {unknown}"

    def test_empty_pair_list_builds_no_table(self, monkeypatch):
        def no_table(profiles):
            raise AssertionError("token_table called for no pairs")

        monkeypatch.setattr(tokenize_module, "token_table", no_table)
        graph = ThresholdMatcher("jaccard", 0.0).match(self._profiles(), [])
        assert isinstance(graph, SimilarityGraph) and len(graph) == 0
