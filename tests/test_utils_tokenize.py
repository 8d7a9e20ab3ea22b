"""Tests of tokenization."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.data.dataset import ProfileCollection
from repro.data.profile import EntityProfile, KeyValue
from repro.utils.text import split_words
from repro.utils.tokenize import character_ngrams, token_set, token_table, tokenize


class TestTokenize:
    def test_basic_split(self):
        assert tokenize("Sony HD camcorder") == ["sony", "hd", "camcorder"]

    def test_punctuation_becomes_separator(self):
        assert tokenize("meta-blocking") == ["meta", "blocking"]

    def test_min_length_filters(self):
        assert tokenize("a bb ccc", min_length=2) == ["bb", "ccc"]

    def test_stopword_removal(self):
        assert tokenize("the sony camera", remove_stopwords=True) == ["sony", "camera"]

    def test_stopwords_kept_by_default(self):
        assert "the" in tokenize("the sony camera")

    def test_empty(self):
        assert tokenize("") == []

    def test_token_set_is_set(self):
        assert token_set("sony sony camera") == {"sony", "camera"}


# ---------------------------------------------------------------------------
# the token table against the per-value definition
# ---------------------------------------------------------------------------
# What one joined buffer could get wrong: accents and ligatures (NFKD), a
# Greek capital sigma in final position (its lower case depends on what
# follows), CJK, ``_`` and digits (word characters), punctuation, a NUL (the
# separator) and a newline inside a value, empty values.
FRAGMENTS = [
    "ΟΔΟΣ", "Σ", "όδος", "東京", "データ", "café", "NAÏVE", "ﬁle", "İ", "x_1", "_", "42", "3.14",
    "-", ",", "!", "€", "\x00", "\n", " ", "the", "A", "sony",
]
hostile_values = st.one_of(
    st.text(max_size=12),
    st.lists(st.sampled_from(FRAGMENTS), max_size=8).map("".join),
    st.just(""),
)
ascii_values = st.text(st.characters(max_codepoint=127), max_size=16)


def collection_of(value_strategy):
    """Profiles over 0-3 attributes holding raw values (empty ones included),
    with ids out of row order and one or two sources."""
    profile = st.tuples(
        st.integers(0, 1),
        st.lists(st.tuples(st.sampled_from(["name", "title", "descr"]), value_strategy),
                 max_size=4),
    )
    return st.lists(profile, max_size=6).map(
        lambda rows: [
            EntityProfile(
                profile_id=100 - row,
                source_id=source_id,
                attributes=[KeyValue(attribute, value) for attribute, value in pairs],
            )
            for row, (source_id, pairs) in enumerate(rows)
        ]
    )


collections = st.one_of(collection_of(ascii_values), collection_of(hostile_values))


def values_of(profiles):
    return [(profile, kv) for profile in profiles for kv in profile.attributes]


def tokens_per_value(table, value_of, token_ids):
    tokens = [[] for _ in range(len(table.row_of))]
    for value, token in zip(value_of.tolist(), token_ids.tolist()):
        tokens[value].append(table.forms[token])
    return tokens


class TestTokenTable:
    @settings(max_examples=300, deadline=None)
    @given(collections)
    @example([EntityProfile(0, attributes=[KeyValue("a", "ΟΔΟΣ\x00ΟΔΟΣ"), KeyValue("b", "Σ")])])
    @example([EntityProfile(0, attributes=[KeyValue("a", v) for v in ("", "x\x00y", "")])])
    @example([EntityProfile(0, attributes=[KeyValue("a", v) for v in ("Sony_TV 4K\nHD", "sony")])])
    def test_every_value_tokenises_as_split_words(self, profiles):
        table = token_table(profiles)
        pairs = values_of(profiles)
        words = [split_words(kv.value) for _profile, kv in pairs]
        assert tokens_per_value(table, table.value_of, table.token_ids) == words
        assert table.forms == list(dict.fromkeys(token for tokens in words for token in tokens))
        assert table.row_of.tolist() == [
            row for row, profile in enumerate(profiles) for _kv in profile.attributes
        ]
        assert [table.attributes[key] for key in table.attribute_of.tolist()] == [
            (profile.source_id, kv.attribute) for profile, kv in pairs
        ]
        assert table.attributes == list(dict.fromkeys(table.attributes))
        assert table.profile_ids.tolist() == [profile.profile_id for profile in profiles]
        assert table.source_ids.tolist() == [profile.source_id for profile in profiles]
        for column in (table.value_of, table.token_ids, table.row_of, table.attribute_of):
            assert column.dtype == np.int64

    @settings(max_examples=200, deadline=None)
    @given(collections, st.integers(1, 4), st.booleans())
    @example([EntityProfile(0, attributes=[KeyValue("a", "The cat and a ΟΔΟΣ")])], 3, True)
    def test_selection_equals_tokenize(self, profiles, min_length, remove_stopwords):
        table = token_table(profiles)
        kept = table.select(min_length=min_length, remove_stopwords=remove_stopwords)
        assert tokens_per_value(table, *kept) == [
            tokenize(kv.value, min_length=min_length, remove_stopwords=remove_stopwords)
            for _profile, kv in values_of(profiles)
        ]

    def test_both_buffers_yield_str_forms_and_a_nul_splits_like_a_space(self):
        ascii_only = token_table([EntityProfile(0, attributes=[KeyValue("a", "Sony\x00TV sony")])])
        accented = token_table([EntityProfile(0, attributes=[KeyValue("a", "Café\x00TV café")])])
        assert ascii_only.forms == ["sony", "tv"] and accented.forms == ["cafe", "tv"]
        assert all(type(form) is str for form in ascii_only.forms + accented.forms)
        for table in (ascii_only, accented):
            assert table.value_of.tolist() == [0, 0, 0] and table.token_ids.tolist() == [0, 1, 0]

    def test_an_empty_collection_and_a_profile_without_values(self):
        empty = token_table(ProfileCollection())
        assert empty.forms == [] and empty.attributes == []
        assert all(len(column) == 0 for column in empty[1:])
        bare = token_table([EntityProfile(7), EntityProfile(8, attributes=[KeyValue("a", "x x")])])
        assert bare.forms == ["x"] and bare.row_of.tolist() == [1]
        assert bare.value_of.tolist() == [0, 0] and bare.profile_ids.tolist() == [7, 8]


class TestCharacterNgrams:
    def test_trigrams(self):
        assert character_ngrams("sony", 3) == ["son", "ony"]

    def test_short_string(self):
        assert character_ngrams("so", 3) == ["so"]

    def test_empty_string(self):
        assert character_ngrams("", 3) == []

    def test_padding(self):
        grams = character_ngrams("ab", 3, pad=True)
        assert grams[0].startswith("#")
        assert grams[-1].endswith("#")

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            character_ngrams("abc", 0)

    def test_normalisation_applied(self):
        assert character_ngrams("AB-C", 2) == ["ab", "b ", " c"]
