"""Progressive meta-blocking (extension).

The SparkER authors' related work on *schema-agnostic progressive entity
resolution* (Simonini et al., ICDE 2018, cited as [6] in the demo paper)
emits candidate comparisons in decreasing order of estimated match likelihood
so that, under a limited comparison budget, most true matches are found early.
This module implements the two progressive strategies that build directly on
the meta-blocking graph of this package:

* :class:`ProgressiveSortedComparisons` — weight every edge of the blocking
  graph and emit edges globally sorted by decreasing weight (Progressive
  Global Sorting).
* :class:`ProgressiveNodeScheduling` — order the nodes by the average weight
  of their neighbourhood and emit, for each node in turn, its best unseen
  neighbours first (a simplified Progressive Profile Scheduling).

Both read the CSR index's edge table
(:meth:`~repro.metablocking.backends.NumpyKernel.weight_arrays`) — every edge
weighted once from its lower endpoint, in node-major first-touch order —
with the same weights the meta-blocker prunes.  The kernel caches its full
sweep per index, so the service's delta refresh and a ranking over the same
index share one sweep.

Global sorting is one ``(-weight, pair)`` array ``lexsort`` of the table
(pair tuples are then built chunk by chunk as the stream is pulled); node
scheduling yields node by node, each incident list
sorted exactly once up front.  ``rank()`` is simply ``list(stream())``.  The
benchmark ``bench_extension_progressive.py`` measures recall as a function of
the number of comparisons performed, the paper family's standard
"progressive recall" curve.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.blocking.block import BlockCollection
from repro.metablocking import backends as _backends
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.weights import WeightingScheme

_Edge = tuple[tuple[int, int], float]

#: Pair tuples materialised per pull of the ranking; a budgeted query
#: usually reads a short prefix of a much longer ranking.
_RANK_CHUNK = 1024


def _edge_rank(item: _Edge) -> tuple[float, tuple[int, int]]:
    """Best first: descending weight, ties broken by canonical pair order."""
    return (-item[1], item[0])


def _weight_table(index: CSRBlockIndex, scheme: WeightingScheme):
    """The index's edge table under ``scheme`` (no entropy factor)."""
    return index.kernel().weight_arrays(index.weight_plan(scheme, use_entropy=False))


class ProgressiveSortedComparisons:
    """Emit candidate pairs in globally decreasing weight order.

    Parameters
    ----------
    weighting:
        Edge weighting scheme used to rank the comparisons.
    """

    def __init__(self, weighting: str | WeightingScheme = WeightingScheme.CBS) -> None:
        self.weighting = WeightingScheme.parse(weighting)

    def rank(self, blocks: BlockCollection) -> list[tuple[int, int]]:
        """Return every distinct comparison, best first."""
        return list(self.stream(blocks))

    def stream(self, blocks: BlockCollection) -> Iterator[tuple[int, int]]:
        """Iterate the ranked comparisons, best first."""
        index = CSRBlockIndex.from_blocks(blocks)
        try:
            iterator = self.stream_index(index)
        finally:
            index.close()
        yield from iterator

    def stream_index(self, index: CSRBlockIndex) -> Iterator[tuple[int, int]]:
        """:meth:`stream` over a caller-owned, already-built index.

        The service layer keeps one long-lived index per collection and
        answers every budgeted match query from it — same ranking, but the
        index is neither rebuilt nor closed here.  Weighing and sorting run
        eagerly over arrays the index does not own (so the caller may close
        the index as soon as this returns); only the pair tuples are lazy.
        """
        table = _weight_table(index, self.weighting)
        order = _backends.ranked_positions(table, len(table))
        return (
            pair
            for chunk in _backends.iter_retained_chunks(table, order, _RANK_CHUNK)
            for pair, _weight in chunk
        )


class ProgressiveNodeScheduling:
    """Emit comparisons node by node, best nodes and best neighbours first."""

    def __init__(self, weighting: str | WeightingScheme = WeightingScheme.CBS) -> None:
        self.weighting = WeightingScheme.parse(weighting)

    def rank(self, blocks: BlockCollection) -> list[tuple[int, int]]:
        """Return every distinct comparison following the node schedule."""
        return list(self.stream(blocks))

    def stream(self, blocks: BlockCollection) -> Iterator[tuple[int, int]]:
        """Iterate the scheduled comparisons lazily, one node at a time."""
        index = CSRBlockIndex.from_blocks(blocks)
        try:
            iterator = self.stream_index(index)
        finally:
            index.close()
        yield from iterator

    def stream_index(self, index: CSRBlockIndex) -> Iterator[tuple[int, int]]:
        """:meth:`stream` over a caller-owned, already-built index.

        Sweep, schedule and per-node sorting all run eagerly (the caller may
        close the index as soon as this returns); the emission loop is lazy.
        """
        table = _weight_table(index, self.weighting)

        # Per-node incident edges, built in edge-emission order (the order the
        # node-priority float sums depend on), then each list sorted exactly
        # once up front — not per visit inside the emission loop.
        incident: dict[int, list[_Edge]] = {}
        for edge in table.to_mapping().items():
            for node in edge[0]:
                incident.setdefault(node, []).append(edge)
        priority = {
            node: sum(w for _p, w in edges) / len(edges)
            for node, edges in incident.items()
        }
        for edges in incident.values():
            edges.sort(key=_edge_rank)

        def _emit() -> Iterator[tuple[int, int]]:
            emitted: set[tuple[int, int]] = set()
            for node in sorted(priority, key=lambda n: (-priority[n], n)):
                for pair, _weight in incident[node]:
                    if pair in emitted:
                        continue
                    emitted.add(pair)
                    yield pair

        return _emit()


def progressive_recall_curve(
    ranking: list[tuple[int, int]],
    true_pairs: set[tuple[int, int]],
    *,
    num_points: int = 10,
) -> list[dict[str, float]]:
    """Recall after the first k comparisons, for ``num_points`` budgets.

    Returns rows with ``comparisons`` (the budget) and ``recall`` — the series
    plotted by progressive-ER papers.
    """
    if not ranking or not true_pairs:
        return []
    points = []
    total = len(ranking)
    found = 0
    truth = set(true_pairs)
    checkpoints = {max(1, round(total * (i + 1) / num_points)) for i in range(num_points)}
    for index, pair in enumerate(ranking, start=1):
        if pair in truth:
            found += 1
        if index in checkpoints:
            points.append(
                {"comparisons": index, "recall": round(found / len(truth), 6)}
            )
    return points
