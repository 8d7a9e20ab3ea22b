"""Tokenization used by blocking, the loose-schema generator and matching.

The schema-agnostic model of SparkER treats every profile as a bag of tokens;
tokens are produced here so that every stage of the pipeline shares one
definition of "token".
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.utils.text import STOPWORDS, normalize_text, split_words


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


def tokenize_profile(
    attribute_values: Iterable[tuple[str, str]],
    *,
    min_length: int = 1,
    remove_stopwords: bool = False,
) -> list[tuple[str, str]]:
    """Tokenize every ``(attribute, value)`` pair of a profile.

    Returns a list of ``(attribute, token)`` pairs preserving which attribute
    each token came from, which the loose-schema blocker needs in order to map
    tokens to attribute-cluster ids.
    """
    pairs: list[tuple[str, str]] = []
    for attribute, value in attribute_values:
        for token in tokenize(value, min_length=min_length, remove_stopwords=remove_stopwords):
            pairs.append((attribute, token))
    return pairs


def ngrams(tokens: list[str], n: int) -> Iterator[tuple[str, ...]]:
    """Yield the word ``n``-grams of a token list."""
    if n <= 0:
        raise ValueError("n must be positive")
    for i in range(len(tokens) - n + 1):
        yield tuple(tokens[i : i + n])


def character_ngrams(text: str, n: int = 3, *, pad: bool = False) -> list[str]:
    """Return the character ``n``-grams of the normalised ``text``.

    Used by the LSH attribute-partitioning step and by q-gram similarity.
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
