"""Similarity and distance functions for entity matching.

The demo lets the user pick among "a wide range of similarity (or distance)
scores, e.g. Jaccard similarity, Edit Distance, CSA"; this module provides the
token-based, character-based and numeric measures the matcher exposes.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterable

from repro.exceptions import MatchingError
from repro.utils.tokenize import character_ngrams, token_set, tokenize
from repro.utils.text import normalize_text


class Similarity:
    """One measure, split so that text is normalised once per string.

    ``prepare(text)`` derives the operand the measure works on (a token set,
    a token counter, the normalised string, a number) and ``compare(fa, fb)``
    scores two prepared operands.  Calling the object on two raw strings is
    ``compare(prepare(a), prepare(b))``; a matcher that scores many pairs
    prepares each profile once and only compares per pair.
    """

    def __init__(self, prepare: Callable, compare: Callable[..., float], doc: str) -> None:
        self.prepare = prepare
        self.compare = compare
        self.__doc__ = doc

    def __call__(self, a: str, b: str, *options, **named_options) -> float:
        return self.compare(self.prepare(a), self.prepare(b), *options, **named_options)


# --------------------------------------------------------------------------
# token-set measures
# --------------------------------------------------------------------------
def _jaccard(items_a: set, items_b: set) -> float:
    union = len(items_a | items_b)
    return len(items_a & items_b) / union if union else 0.0


def _dice(tokens_a: set, tokens_b: set) -> float:
    total = len(tokens_a) + len(tokens_b)
    if total == 0:
        return 0.0
    return 2 * len(tokens_a & tokens_b) / total


def _overlap(tokens_a: set, tokens_b: set) -> float:
    smaller = min(len(tokens_a), len(tokens_b))
    if smaller == 0:
        return 0.0
    return len(tokens_a & tokens_b) / smaller


def _token_counts(text: str) -> Counter:
    return Counter(tokenize(text))


def _tfidf_cosine(
    counts_a: Counter,
    counts_b: Counter,
    document_frequencies: dict[str, int] | None = None,
    num_documents: int = 1,
) -> float:
    if not counts_a or not counts_b:
        return 0.0

    def idf(token: str) -> float:
        if not document_frequencies:
            return 1.0
        df = document_frequencies.get(token, 0)
        return math.log((1 + num_documents) / (1 + df)) + 1.0

    vector_a = {t: c * idf(t) for t, c in counts_a.items()}
    vector_b = {t: c * idf(t) for t, c in counts_b.items()}
    dot = sum(vector_a[t] * vector_b.get(t, 0.0) for t in vector_a)
    norm_a = math.sqrt(sum(v * v for v in vector_a.values()))
    norm_b = math.sqrt(sum(v * v for v in vector_b.values()))
    if norm_a == 0 or norm_b == 0:
        return 0.0
    return dot / (norm_a * norm_b)


def _cosine(counts_a: Counter, counts_b: Counter) -> float:
    if not counts_a or not counts_b:
        return 0.0
    dot = sum(counts_a[t] * counts_b.get(t, 0) for t in counts_a)
    norm_a = math.sqrt(sum(c * c for c in counts_a.values()))
    norm_b = math.sqrt(sum(c * c for c in counts_b.values()))
    return dot / (norm_a * norm_b)


jaccard_similarity = Similarity(
    token_set, _jaccard, "Jaccard similarity of the token sets of two strings."
)
dice_similarity = Similarity(
    token_set, _dice, "Sørensen–Dice coefficient of the token sets of two strings."
)
overlap_coefficient = Similarity(
    token_set, _overlap, "Overlap coefficient (intersection / smaller set size)."
)
cosine_similarity_tokens = Similarity(
    _token_counts, _cosine, "Cosine similarity of the token frequency vectors of two strings."
)
tfidf_cosine_similarity = Similarity(
    _token_counts,
    _tfidf_cosine,
    """TF-IDF weighted cosine similarity of ``(a, b, document_frequencies, num_documents)``.

    When no corpus statistics are supplied every token gets IDF 1 and the
    measure degenerates to plain cosine similarity.
    """,
)


# --------------------------------------------------------------------------
# character-based measures
# --------------------------------------------------------------------------
def edit_distance(a: str, b: str) -> int:
    """Levenshtein edit distance between two raw strings: Myers' bit-parallel
    algorithm (Hyyrö's form), one DP column of ``a`` as two delta bit-vectors."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    matches: dict[str, int] = {}
    for i, char in enumerate(a):
        matches[char] = matches.get(char, 0) | 1 << i
    mask, last = (1 << len(a)) - 1, 1 << (len(a) - 1)
    plus, minus, score = mask, 0, len(a)
    for char in b:
        eq = matches.get(char, 0)
        vertical = eq | minus
        horizontal = (((eq & plus) + plus) ^ plus) | eq
        up = minus | ~(horizontal | plus)
        down = plus & horizontal
        score += 1 if up & last else -1 if down & last else 0
        up = up << 1 | 1
        plus = (down << 1 | ~(vertical | up)) & mask
        minus = up & vertical
    return score


def _levenshtein(a: str, b: str) -> float:
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return 1.0 - edit_distance(a, b) / longest


def _jaro(a: str, b: str) -> float:
    if not a or not b:
        return 0.0
    if a == b:
        return 1.0
    window = max(len(a), len(b)) // 2 - 1
    window = max(window, 0)
    matches_a = [False] * len(a)
    matches_b = [False] * len(b)
    matches = 0
    for i, char_a in enumerate(a):
        start = max(0, i - window)
        end = min(i + window + 1, len(b))
        for j in range(start, end):
            if matches_b[j] or b[j] != char_a:
                continue
            matches_a[i] = matches_b[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, matched in enumerate(matches_a):
        if not matched:
            continue
        while not matches_b[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len(a) + matches / len(b) + (matches - transpositions) / matches
    ) / 3.0


def _jaro_winkler(a: str, b: str, prefix_weight: float = 0.1) -> float:
    jaro = _jaro(a, b)
    prefix = 0
    for char_a, char_b in zip(a, b):
        if char_a != char_b or prefix == 4:
            break
        prefix += 1
    return jaro + prefix * prefix_weight * (1.0 - jaro)


def _qgrams(text: str, q: int = 3) -> set[str]:
    return set(character_ngrams(text, q, pad=True))


def qgram_similarity(a: str, b: str, q: int = 3) -> float:
    """Jaccard similarity of the character q-gram sets of two strings."""
    return _jaccard(_qgrams(a, q), _qgrams(b, q))


levenshtein_similarity = Similarity(
    normalize_text, _levenshtein, "Edit distance normalised to a similarity in [0, 1]."
)
jaro_similarity = Similarity(normalize_text, _jaro, "Jaro similarity of two strings.")
jaro_winkler_similarity = Similarity(
    normalize_text,
    _jaro_winkler,
    "Jaro–Winkler similarity of ``(a, b, prefix_weight=0.1)`` (prefix bonus up to 4 characters).",
)


# --------------------------------------------------------------------------
# numeric measure
# --------------------------------------------------------------------------
def _number(text: object) -> float | None:
    try:
        return float(str(text).replace(",", "").strip())
    except (TypeError, ValueError):
        return None


def _numeric(x: float | None, y: float | None) -> float:
    if x is None or y is None:
        return 0.0
    denominator = max(abs(x), abs(y))
    if denominator == 0:
        return 1.0
    return max(0.0, 1.0 - abs(x - y) / denominator)


numeric_similarity = Similarity(
    _number,
    _numeric,
    """Similarity of two numeric strings: ``1 - |x-y| / max(|x|, |y|)``.

    Non-numeric inputs yield 0.
    """,
)


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------
SIMILARITY_FUNCTIONS: dict[str, Similarity] = {
    "jaccard": jaccard_similarity,
    "dice": dice_similarity,
    "overlap": overlap_coefficient,
    "cosine": cosine_similarity_tokens,
    "tfidf_cosine": tfidf_cosine_similarity,
    "levenshtein": levenshtein_similarity,
    "jaro": jaro_similarity,
    "jaro_winkler": jaro_winkler_similarity,
    "qgram": Similarity(
        _qgrams, _jaccard, "Jaccard similarity of the character 3-gram sets of two strings."
    ),
    "numeric": numeric_similarity,
}


def get_similarity_function(name: str) -> Similarity:
    """Look up a similarity function by name (raises MatchingError if unknown)."""
    try:
        return SIMILARITY_FUNCTIONS[name.lower()]
    except KeyError as exc:
        valid = ", ".join(sorted(SIMILARITY_FUNCTIONS))
        raise MatchingError(
            f"unknown similarity function {name!r}; valid functions: {valid}"
        ) from exc


def document_frequencies(texts: Iterable[str]) -> tuple[dict[str, int], int]:
    """Corpus token document frequencies for :func:`tfidf_cosine_similarity`."""
    frequencies: dict[str, int] = {}
    count = 0
    for text in texts:
        count += 1
        for token in token_set(text):
            frequencies[token] = frequencies.get(token, 0) + 1
    return frequencies, count
