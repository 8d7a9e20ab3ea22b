"""Tests of the similarity functions."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MatchingError
from repro.matching.similarity import (
    SIMILARITY_FUNCTIONS,
    cosine_similarity_tokens,
    dice_similarity,
    document_frequencies,
    edit_distance,
    get_similarity_function,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_similarity,
    numeric_similarity,
    overlap_coefficient,
    qgram_similarity,
    tfidf_cosine_similarity,
)
from tests.levenshtein_reference import edit_distance as reference_edit_distance

# A small alphabet makes matches (and so every bit-vector case) common;
# "e" plus combining acute / grave marks are separate code points.
_TEXT = st.text(alphabet="abe\u0301\u0300 é", max_size=24)


class TestTokenSetMeasures:
    def test_jaccard_identical(self):
        assert jaccard_similarity("sony tv", "sony tv") == 1.0

    def test_jaccard_disjoint(self):
        assert jaccard_similarity("sony tv", "canon camera") == 0.0

    def test_jaccard_partial(self):
        assert jaccard_similarity("sony hd tv", "sony tv") == 2 / 3

    def test_jaccard_empty(self):
        assert jaccard_similarity("", "") == 0.0

    def test_dice_ge_jaccard(self):
        a, b = "sony hd tv", "sony bravia tv stand"
        assert dice_similarity(a, b) >= jaccard_similarity(a, b)

    def test_overlap_subset_is_one(self):
        assert overlap_coefficient("sony tv", "sony tv hd bravia") == 1.0

    def test_cosine_identical(self):
        assert math.isclose(cosine_similarity_tokens("a b c", "a b c"), 1.0)

    def test_cosine_orthogonal(self):
        assert cosine_similarity_tokens("a b", "c d") == 0.0

    def test_tfidf_without_corpus_equals_cosine(self):
        a, b = "sony tv hd", "sony tv"
        assert math.isclose(
            tfidf_cosine_similarity(a, b), cosine_similarity_tokens(a, b)
        )

    def test_tfidf_downweights_common_tokens(self):
        frequencies, n = document_frequencies(
            ["sony tv", "sony camera", "sony radio", "panasonic zx100 tv"]
        )
        # "sony" appears everywhere → pairs sharing only rare tokens score higher.
        common_only = tfidf_cosine_similarity("sony tv", "sony radio", frequencies, n)
        rare_shared = tfidf_cosine_similarity(
            "panasonic zx100", "panasonic zx100 deluxe", frequencies, n
        )
        assert rare_shared > common_only


class TestCharacterMeasures:
    def test_edit_distance_basic(self):
        assert edit_distance("kitten", "sitting") == 3

    def test_edit_distance_empty(self):
        assert edit_distance("", "abc") == 3
        assert edit_distance("abc", "") == 3

    def test_edit_distance_equal(self):
        assert edit_distance("same", "same") == 0

    @settings(max_examples=400, deadline=None)
    @given(_TEXT, _TEXT)
    def test_edit_distance_equals_the_dp(self, a, b):
        assert edit_distance(a, b) == reference_edit_distance(a, b)

    @pytest.mark.parametrize("length", [63, 64, 65, 350])
    def test_edit_distance_equals_the_dp_past_a_machine_word(self, length):
        rng = random.Random(length)
        for _ in range(5):
            a = "".join(rng.choice("abé\u0301") for _ in range(length))
            b = "".join(rng.choice("abé\u0301") for _ in range(rng.randrange(1, length + 40)))
            assert edit_distance(a, b) == reference_edit_distance(a, b)

    def test_levenshtein_similarity_range(self):
        assert 0.0 <= levenshtein_similarity("sony", "sonny") <= 1.0

    def test_levenshtein_similarity_typo_high(self):
        assert levenshtein_similarity("panasonic", "panasonik") > 0.8

    def test_jaro_identical(self):
        assert jaro_similarity("martha", "martha") == 1.0

    def test_jaro_known_value(self):
        assert abs(jaro_similarity("martha", "marhta") - 0.9444) < 0.01

    def test_jaro_winkler_prefix_bonus(self):
        assert jaro_winkler_similarity("martha", "marhta") >= jaro_similarity(
            "martha", "marhta"
        )

    def test_jaro_empty(self):
        assert jaro_similarity("", "abc") == 0.0

    def test_qgram_similar_strings(self):
        assert qgram_similarity("panasonic", "panasonik") > 0.5

    def test_qgram_different_strings(self):
        assert qgram_similarity("sony", "whirlpool") < 0.2


class TestNumericSimilarity:
    def test_equal_values(self):
        assert numeric_similarity("100", "100") == 1.0

    def test_close_values(self):
        assert numeric_similarity("100", "105") > 0.9

    def test_far_values(self):
        assert numeric_similarity("10", "1000") < 0.1

    def test_non_numeric(self):
        assert numeric_similarity("abc", "100") == 0.0

    def test_zero_values(self):
        assert numeric_similarity("0", "0") == 1.0

    def test_thousands_separator(self):
        assert numeric_similarity("1,000", "1000") == 1.0


class TestRegistry:
    def test_all_functions_callable(self):
        for name, function in SIMILARITY_FUNCTIONS.items():
            value = function("sony tv", "sony television")
            assert isinstance(value, float), name

    def test_lookup(self):
        assert get_similarity_function("Jaccard") is jaccard_similarity

    def test_unknown_function(self):
        with pytest.raises(MatchingError):
            get_similarity_function("nope")

    def test_symmetry(self):
        for name, function in SIMILARITY_FUNCTIONS.items():
            assert math.isclose(
                function("sony hd tv", "sony bravia"),
                function("sony bravia", "sony hd tv"),
            ), name
