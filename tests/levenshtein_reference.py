"""The O(|a|·|b|) dynamic programme of the Levenshtein distance: the
reference the bit-parallel :func:`repro.matching.similarity.edit_distance`
is checked against.
"""

from __future__ import annotations


def edit_distance(a: str, b: str) -> int:
    """Levenshtein edit distance by the textbook row-by-row DP."""
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]
