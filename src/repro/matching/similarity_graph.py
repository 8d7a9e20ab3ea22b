"""The similarity graph produced by the entity matcher.

Nodes are profiles, edges are matched pairs annotated with the similarity
score that the matcher assigned.  The entity clusterer consumes this graph.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.data.ground_truth import canonical_pair


@dataclass(frozen=True)
class SimilarityEdge:
    """One matched pair with its similarity score."""

    profile_a: int
    profile_b: int
    score: float

    @property
    def pair(self) -> tuple[int, int]:
        """The canonical (ordered) pair of the edge."""
        return canonical_pair(self.profile_a, self.profile_b)


def _distinct_edges(a, b, score) -> tuple:
    """``(a, b, score)`` with one row per unordered pair: at the position of
    its first row, with the first row of its highest score — what adding the
    rows one by one, a higher score replacing the edge, leaves."""
    lower, upper = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((-score, upper, lower))  # stable: ties keep row order
    new = np.ones(len(order), dtype=bool)
    new[1:] = (lower[order[1:]] != lower[order[:-1]]) | (upper[order[1:]] != upper[order[:-1]])
    if new.all():
        return a, b, score
    starts = np.flatnonzero(new)
    # Per pair: its best row (first in the sorted run) and its first row.
    best = order[starts]
    first = np.minimum.reduceat(order, starts)
    keep = best[np.argsort(first)]
    return a[keep], b[keep], score[keep]


class SimilarityGraph:
    """The weighted match graph handed from the matcher to the clusterer.

    Three columns — the endpoints ``a`` / ``b`` as matched (int64) and the
    ``score`` (float64) — with one row per unordered pair, in the order the
    pairs were first added.  Build it whole with :meth:`from_arrays`;
    :meth:`add` copies the columns, so it suits a handful of edges.
    """

    def __init__(self, edges: Iterable[SimilarityEdge] = ()) -> None:
        rows = [(edge.profile_a, edge.profile_b, edge.score) for edge in edges]
        self._store(*(zip(*rows) if rows else ((), (), ())))

    @classmethod
    def from_arrays(cls, a, b, score) -> "SimilarityGraph":
        """The graph of the matches ``(a[i], b[i], score[i])`` added in row order."""
        graph = cls.__new__(cls)
        graph._store(a, b, score)
        return graph

    def _store(self, a, b, score) -> None:
        self.a, self.b, self.score = _distinct_edges(
            np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64),
            np.asarray(score, dtype=np.float64),
        )

    def add(self, a: int, b: int, score: float) -> None:
        """Add one edge ``(a, b)``; a higher score replaces the pair's edge."""
        self._store(np.append(self.a, a), np.append(self.b, b), np.append(self.score, score))

    def canonical(self) -> tuple:
        """``(lower, upper)`` endpoint columns, smaller id first."""
        return np.minimum(self.a, self.b), np.maximum(self.a, self.b)

    def _row(self, a: int, b: int) -> "int | None":
        lower, upper = self.canonical()
        x, y = canonical_pair(a, b)
        rows = np.flatnonzero((lower == x) & (upper == y))
        return int(rows[0]) if len(rows) else None

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return self._row(*pair) is not None

    def __len__(self) -> int:
        return len(self.score)

    def __iter__(self) -> Iterator[SimilarityEdge]:
        columns = (self.a.tolist(), self.b.tolist(), self.score.tolist())
        return (SimilarityEdge(*row) for row in zip(*columns))

    def pairs(self) -> set[tuple[int, int]]:
        """The set of matched pairs."""
        return set(zip(*(column.tolist() for column in self.canonical())))

    def score_of(self, a: int, b: int) -> float | None:
        """Score of pair (a, b), or None if not matched."""
        row = self._row(a, b)
        return None if row is None else float(self.score[row])

    def nodes(self) -> set[int]:
        """All profile ids with at least one matched edge (added pair by
        pair, smaller id first: the iteration order clusterers rely on)."""
        both = np.stack(self.canonical(), axis=1).ravel()
        return set(both.tolist())

    def edges_above(self, threshold: float) -> "SimilarityGraph":
        """A new graph keeping only edges with score >= threshold."""
        kept = self.score >= threshold
        return SimilarityGraph.from_arrays(self.a[kept], self.b[kept], self.score[kept])

    def __repr__(self) -> str:
        return f"SimilarityGraph(nodes={len(self.nodes())}, edges={len(self)})"
