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
weighted once from its lower endpoint, in node-major first-touch order,
range by range under the kernel's scratch budget — with the same weights the
meta-blocker prunes.

Global sorting ranks growing windows of the table by ``(-weight, pair)``,
never sorting past the window a consumer pulls; node scheduling orders the
whole table with one ``lexsort`` up front.  Both materialise pair tuples
only per pulled chunk.  ``rank()`` is simply ``list(stream())``.  The
benchmark ``bench_extension_progressive.py`` measures recall as a function of
the number of comparisons performed, the paper family's standard
"progressive recall" curve.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.blocking.block import BlockCollection
from repro.metablocking import backends as _backends
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.weights import WeightingScheme

_Edge = tuple[tuple[int, int], float]

#: Edges in the first ranked window (and pair tuples materialised per pull);
#: a budgeted query usually reads a short prefix of a much longer ranking.
_RANK_CHUNK = 1024


def _weight_table(index: CSRBlockIndex, scheme: WeightingScheme, table):
    """``table``, or else the index's edge table under ``scheme`` (no entropy factor)."""
    if table is not None:
        return table
    return index.kernel().weight_arrays(index.weight_plan(scheme, use_entropy=False))


def _ranked_windows(table: _backends.EdgeWeights) -> Iterator[list[_Edge]]:
    """The ``(-weight, pair)`` ranking of ``table`` as chunks of edges, ranked
    in windows of ``_RANK_CHUNK`` edges, then ×4 per further pull."""
    done, k = 0, _RANK_CHUNK
    while done < len(table):
        order = _backends.ranked_positions(table, k)
        yield from _backends.iter_retained_chunks(table, order[done:], _RANK_CHUNK)
        done, k = len(order), 4 * k


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
        yield from self.stream_index(CSRBlockIndex.from_blocks(blocks))

    def stream_index(self, index: CSRBlockIndex, table=None) -> Iterator[tuple[int, int]]:
        """:meth:`stream` over a caller-owned, already-built index.

        The service layer keeps one long-lived index per collection and
        answers every budgeted match query from it — same ranking, but the
        index is not rebuilt here.  ``table`` is the index's no-entropy edge
        table when the caller has weighed it already.  Weighing runs
        eagerly; the ranking windows and the pair tuples are lazy.
        """
        table = _weight_table(index, self.weighting, table)
        return (pair for chunk in _ranked_windows(table) for pair, _weight in chunk)


class ProgressiveNodeScheduling:
    """Emit comparisons node by node, best nodes and best neighbours first."""

    def __init__(self, weighting: str | WeightingScheme = WeightingScheme.CBS) -> None:
        self.weighting = WeightingScheme.parse(weighting)

    def rank(self, blocks: BlockCollection) -> list[tuple[int, int]]:
        """Return every distinct comparison following the node schedule."""
        return list(self.stream(blocks))

    def stream(self, blocks: BlockCollection) -> Iterator[tuple[int, int]]:
        """Iterate the scheduled comparisons lazily, one node at a time."""
        yield from self.stream_index(CSRBlockIndex.from_blocks(blocks))

    def stream_index(self, index: CSRBlockIndex, table=None) -> Iterator[tuple[int, int]]:
        """:meth:`stream` over a caller-owned, already-built index.

        Nodes are visited by descending priority — the mean weight of their
        incident edges, WNP's threshold — ties by id; a visit emits the
        node's not yet emitted edges by ``(-weight, pair)``.  So an edge
        comes out at the visit of its earlier-scheduled endpoint: one
        ``lexsort`` keyed by that visit and then by ``(-weight, pair)``
        orders the whole table.  Weighing and ordering run eagerly; the pair
        tuples are materialised lazily, chunk by chunk.
        """
        table = _weight_table(index, self.weighting, table)
        n = table.num_nodes
        visit = np.empty(n, dtype=np.int64)
        visit[np.argsort(-_backends.node_means(table), kind="stable")] = np.arange(n)
        first_visit = np.minimum(visit[table.a], visit[table.b])
        order = np.lexsort((table.a * n + table.b, -table.w, first_visit))
        chunks = _backends.iter_retained_chunks(table, order, _RANK_CHUNK)
        return (pair for chunk in chunks for pair, _weight in chunk)


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
