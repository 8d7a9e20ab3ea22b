"""Tests of the text normalisation helpers."""

import re
import unicodedata

from hypothesis import example, given, settings, strategies as st

from repro.utils.text import STOPWORDS, normalize_text, split_words, strip_accents
from repro.utils.tokenize import tokenize


def reference_normalize(text: str) -> str:
    """The definition the pipeline has always used, step by step: NFKD → drop
    combining marks → lower → punctuation to space → collapse whitespace."""
    decomposed = unicodedata.normalize("NFKD", text)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    cleaned = re.sub(r"[^\w\s]", " ", stripped.lower())
    return re.sub(r"\s+", " ", cleaned).strip()


def reference_tokenize(text: str, min_length: int = 1, remove_stopwords: bool = False):
    normalized = reference_normalize(text)
    tokens = normalized.split(" ") if normalized else []
    return [
        token
        for token in tokens
        if len(token) >= min_length and not (remove_stopwords and token in STOPWORDS)
    ]


# Plain text, plus the characters the one-scan tokeniser could get wrong:
# accents and ligatures (NFKD), the dotted capital I (its lower case grows a
# combining dot), no-break and other Unicode spaces, underscores (``\w``),
# digits around punctuation, stop-words.
hostile_text = st.lists(
    st.one_of(
        st.characters(blacklist_categories=("Cs",)),
        st.sampled_from(
            ["İ", "ı", "ﬁ", "ﬀ", "ß", "é", "Å", "\u00a0", "\u2003", "\u0307", "_", "-", ".", ",",
             " ", "\t", "\n", "1", "9", "the", "and", "A", "z"]
        ),
    ),
    max_size=30,
).map("".join)


class TestTokeniserOracle:
    @settings(max_examples=400, deadline=None)
    @given(hostile_text)
    @example("İstanbul_2019 ﬁnal\u00a0cut—12.99€")
    @example("a__b _ _c_")
    @example("1,000.50 x-1")
    def test_normalize_and_split_equal_the_reference(self, text):
        assert normalize_text(text) == reference_normalize(text)
        assert split_words(text) == reference_tokenize(text)

    @settings(max_examples=200, deadline=None)
    @given(hostile_text)
    def test_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once
        assert split_words(once) == split_words(text)

    @settings(max_examples=200, deadline=None)
    @given(hostile_text, st.integers(min_value=1, max_value=4), st.booleans())
    @example("The cat and a dog", 3, True)
    def test_filters_equal_the_reference(self, text, min_length, remove_stopwords):
        assert tokenize(
            text, min_length=min_length, remove_stopwords=remove_stopwords
        ) == reference_tokenize(text, min_length, remove_stopwords)


class TestNormalizeText:
    def test_lowercases(self):
        assert normalize_text("HeLLo World") == "hello world"

    def test_strips_punctuation(self):
        assert normalize_text("meta-blocking, done!") == "meta blocking done"

    def test_collapses_whitespace(self):
        assert normalize_text("  a \t b \n c  ") == "a b c"

    def test_empty_string(self):
        assert normalize_text("") == ""
        assert split_words("") == []

    def test_none_is_empty(self):
        assert normalize_text(None) == ""
        assert split_words(None) == []

    def test_blank_like_empty(self):
        assert normalize_text("   ") == ""

    def test_idempotent(self):
        once = normalize_text("SparkER: Parallel BLAST!")
        assert normalize_text(once) == once

    def test_accents_removed(self):
        assert normalize_text("café Müller") == "cafe muller"

    def test_numbers_preserved(self):
        assert normalize_text("Price: 12.99 USD") == "price 12 99 usd"

    def test_non_string_input_coerced(self):
        assert normalize_text(2017) == "2017"

    def test_falsy_numbers_are_coerced_like_any_other(self):
        # Regression: the emptiness check used to run before str(), so 0 -> "".
        assert normalize_text(0) == "0"
        assert normalize_text(0.0) == "0 0"


class TestStripHelpers:
    def test_strip_accents(self):
        assert strip_accents("résumé") == "resume"

    def test_strip_accents_no_change(self):
        assert strip_accents("plain") == "plain"


class TestStopwords:
    def test_common_words_present(self):
        assert "the" in STOPWORDS
        assert "and" in STOPWORDS

    def test_content_words_absent(self):
        assert "camera" not in STOPWORDS
