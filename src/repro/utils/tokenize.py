"""Tokenization used by blocking, the loose-schema generator and matching.

The schema-agnostic model of SparkER treats every profile as a bag of tokens;
tokens are produced here so that every stage of the pipeline shares one
definition of "token".
"""

from __future__ import annotations

import re
import weakref
from collections import defaultdict
from contextlib import suppress
from typing import Any, NamedTuple

import numpy as np

from repro.exceptions import DataError
from repro.utils.text import STOPWORDS, normalize_text, split_words, strip_accents

# Values are joined around a NUL, which no word contains: each separator is a
# token of its own, and the running count of separators numbers the values.
_JOINER = " \x00 "
_TOKEN_RE = re.compile(r"\w+|\x00", re.UNICODE)
# One bytes.translate pass over an ASCII buffer: a word byte is lower-cased,
# NUL stays, anything else becomes a space, so one split() yields the tokens.
_ASCII_TOKEN_BYTES = bytes(
    byte if byte == 0 else ord(chr(byte).lower()) if re.match(r"\w", chr(byte)) else 32
    for byte in range(128)
) + b" " * 128


class TokenTable(NamedTuple):
    """Every token of a profile collection as int64 columns, in reading order:
    value ``value_of[i]`` holds form ``forms[token_ids[i]]``.  Profile rows are
    positions in the collection; forms and attributes are numbered first-seen."""

    forms: list  # distinct surface forms
    value_of: Any  # per occurrence: its value
    token_ids: Any  # per occurrence: its form
    row_of: Any  # per value: its profile row
    attribute_of: Any  # per value: its (source, attribute) key, an index into attributes
    attributes: list  # distinct (source, attribute) keys
    profile_ids: Any  # per profile row: its id
    source_ids: Any  # per profile row: its source

    def select(self, *, min_length: int = 1, remove_stopwords: bool = False) -> tuple:
        """``(value_of, token_ids)`` of the occurrences :func:`tokenize` keeps."""
        if min_length <= 1 and not remove_stopwords:
            return self.value_of, self.token_ids
        dropped = STOPWORDS if remove_stopwords else ()
        keep = np.array([len(f) >= min_length and f not in dropped for f in self.forms], dtype=bool)
        keep = keep[self.token_ids]
        return self.value_of[keep], self.token_ids[keep]

    def members(self, values, clean_clean: bool) -> tuple:
        """``(sides, rows)`` of the occurrences in ``values``: side 1 for a
        source-1 profile of a clean-clean task, else 0, and the profile row."""
        rows = self.row_of[values]
        return (self.source_ids[rows] == 1) & clean_clean, rows


def token_table(profiles) -> TokenTable:
    """Tokenise every value of ``profiles`` in one pass over one joined buffer.

    The tokens of each value are exactly :func:`split_words` of it: a NUL
    inside a value becomes a space first (NUL is no word character, so no
    token changes), an ASCII buffer is lower-cased and split by one
    ``bytes.translate`` + ``split``, any other buffer goes through
    :func:`strip_accents`, ``lower`` and one ``findall``.  Nothing is cached
    on the collection: a pipeline run builds one table and hands it to its
    stages as the ``tokens`` artifact (see :func:`table_for`).
    """
    rows = list(profiles)
    values = [kv.value for profile in rows for kv in profile.attributes]
    attribute_ids: dict = defaultdict()
    attribute_ids.default_factory = attribute_ids.__len__  # a new key takes the next id
    attribute_of = [attribute_ids[profile.source_id, kv.attribute]
                    for profile in rows for kv in profile.attributes]
    text = _JOINER.join(values)
    if text.count("\x00") >= len(values):  # more NULs than separators
        text = _JOINER.join(value.replace("\x00", " ") for value in values)
    if text.isascii():
        separator, tokens = b"\x00", text.encode("ascii").translate(_ASCII_TOKEN_BYTES).split()
    else:
        separator, tokens = "\x00", _TOKEN_RE.findall(strip_accents(text).lower())
    form_ids: dict = defaultdict()
    form_ids.default_factory = form_ids.__len__
    form_ids[separator]  # id 0
    codes = np.fromiter(map(form_ids.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    words = codes > 0
    forms = list(form_ids)[1:]
    if separator == b"\x00":  # no form holds a space: decode them all in one go
        forms = b" ".join(forms).decode("ascii").split(" ") if forms else []
    return TokenTable(
        forms,
        np.cumsum(~words)[words],
        codes[words] - 1,
        np.repeat(np.arange(len(rows)), [len(profile.attributes) for profile in rows]),
        np.array(attribute_of, dtype=np.int64),
        list(attribute_ids),
        np.array([profile.profile_id for profile in rows], dtype=np.int64),
        np.array([profile.source_id for profile in rows], dtype=np.int64),
    )


# Per profile collection, the id column of the last table table_for built from it.
_BUILT_IDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def table_for(profiles, table: TokenTable | None = None) -> TokenTable:
    """``table`` when it was built from ``profiles`` (the same profile ids in
    the same order), a new :func:`token_table` when it is None; a table of
    another collection raises :class:`DataError`.  A table built here from
    this very collection object, of its length, is taken without reading
    the ids: a collection only appends."""
    if table is None:
        table = token_table(profiles)
        with suppress(TypeError):  # a list, say, has no weak reference
            _BUILT_IDS[profiles] = table.profile_ids
        return table
    with suppress(TypeError):
        if _BUILT_IDS.get(profiles) is table.profile_ids and len(profiles) == len(table.profile_ids):
            return table
    if table.profile_ids.tolist() != [profile.profile_id for profile in profiles]:
        raise DataError("the token table was built from another profile collection")
    return table


def tokenize(
    text: str,
    *,
    min_length: int = 1,
    remove_stopwords: bool = False,
) -> list[str]:
    """Split ``text`` into normalised word tokens.

    Parameters
    ----------
    text:
        Raw attribute value.
    min_length:
        Tokens shorter than this many characters are dropped.
    remove_stopwords:
        When True, tokens in :data:`repro.utils.text.STOPWORDS` are dropped.
    """
    tokens = split_words(text)
    if min_length > 1:
        tokens = [token for token in tokens if len(token) >= min_length]
    if remove_stopwords:
        tokens = [token for token in tokens if token not in STOPWORDS]
    return tokens


def token_set(text: str, **kwargs) -> set[str]:
    """Return the set of distinct tokens of ``text`` (see :func:`tokenize`)."""
    return set(tokenize(text, **kwargs))


def character_ngrams(text: str, n: int = 3, *, pad: bool = False) -> list[str]:
    """Return the character ``n``-grams of the normalised ``text``.

    Used by q-gram similarity.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    normalized = normalize_text(text)
    if pad:
        padding = "#" * (n - 1)
        normalized = padding + normalized + padding
    if len(normalized) < n:
        return [normalized] if normalized else []
    return [normalized[i : i + n] for i in range(len(normalized) - n + 1)]
