"""Candidate pairs as two sorted id columns.

What the blocker hands to the matcher — the distinct comparisons of a block
collection, or the edges meta-blocking retains — is one int64 column per
endpoint, ``a < b`` in every row, the rows ascending in ``(a, b)`` order.
"""

from __future__ import annotations

from collections.abc import Iterable, Set
from itertools import chain

import numpy as np


class CandidatePairs(Set):
    """A read-only set of ``(a, b)`` profile-id pairs held as two int64 columns.

    Iterating yields python-int tuples in row order, which is ``sorted()``
    of the same pairs as a plain set.  ``len``, ``in``, ``<=``, ``==`` and
    set algebra work against any set; ``&``, ``|``, ``-`` and ``^`` return a
    plain ``set``.  There is no ``add``.
    """

    def __init__(self, a=(), b=()) -> None:
        self.a, self.b = (np.asarray(column, dtype=np.int64).view() for column in (a, b))
        self.a.flags.writeable = self.b.flags.writeable = False

    @classmethod
    def from_codes(cls, codes, node_ids) -> "CandidatePairs":
        """The pairs of ascending distinct ``lower * n + upper`` codes over
        dense ids, which ``node_ids`` (ascending, ``n`` of them) maps back."""
        lower, upper = np.divmod(codes.astype(np.int64, copy=False), max(len(node_ids), 1))
        node_ids = np.asarray(node_ids, dtype=np.int64)
        return cls(node_ids[lower], node_ids[upper])

    @classmethod
    def of(cls, pairs: Iterable) -> "CandidatePairs":
        """The pairs of a tuple iterable, each ordered smaller id first."""
        rows = np.array(sorted({(a, b) if a <= b else (b, a) for a, b in pairs}), dtype=np.int64)
        return cls(*rows.reshape(-1, 2).T.copy())

    @classmethod
    def _from_iterable(cls, iterable: Iterable) -> set:
        return set(iterable)

    def __len__(self) -> int:
        return len(self.a)

    def __iter__(self):
        return zip(self.a.tolist(), self.b.tolist())

    def __contains__(self, pair) -> bool:
        """Two binary searches: the run of ``a == x``, then ``y`` inside it."""
        try:
            x, y = pair
            start, stop = self.a.searchsorted(x), self.a.searchsorted(x, "right")
            row = start + self.b[start:stop].searchsorted(y)
            return bool(row < stop and self.b[row] == y)
        except (TypeError, ValueError, OverflowError):
            return False

    def __eq__(self, other) -> bool:
        if isinstance(other, CandidatePairs):
            return np.array_equal(self.a, other.a) and np.array_equal(self.b, other.b)
        return super().__eq__(other)

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return CandidatePairs, (self.a, self.b)

    def __repr__(self) -> str:
        return f"CandidatePairs({len(self)} pairs)"


def pair_columns(pairs) -> tuple:
    """``(a, b)`` int64 columns of candidate pairs: a :class:`CandidatePairs`'s
    own, else the tuples' endpoints in iteration order (repeats kept)."""
    if isinstance(pairs, CandidatePairs):
        return pairs.a, pairs.b
    pairs = list(pairs)
    rows = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs)).reshape(-1, 2)
    return rows[:, 0], rows[:, 1]
