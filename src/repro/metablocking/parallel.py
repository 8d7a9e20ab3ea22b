"""Broadcast-join parallel meta-blocking on the range pool — one map.

The paper (Section 2.1) describes the parallel meta-blocking as *inspired by
the broadcast join*: the nodes of the blocking graph are partitioned, the
compact block index is shared with every task, and each task materialises
the neighbourhoods of its own nodes and weighs their edges.  This module
keeps that shape and moves every edge as an *array element*, never as a
python object, until the retained set is known:

1. **Driver.**  Build the :class:`~repro.metablocking.index.CSRBlockIndex`
   and, on a process pool, export its buffers to one shared-memory segment
   (the index then pickles as a segment reference).  Split the dense node
   ids ``[0, n)`` into ``default_parallelism`` contiguous ranges balanced by
   *sweep cost* — per node, the summed size of the blocks it sits in, read
   off the offset arrays without materialising a neighbourhood
   (:func:`balanced_ranges`).
2. **One map, ``metablocking.weights``.**  A task receives one ``(lo, hi)``
   range, runs one partial kernel sweep over it against the shared index
   and returns ``(a, b, w)`` ndarrays: dense endpoints and
   weight of every edge whose *lower* endpoint is in the range.  Each edge
   is emitted exactly once, so there is nothing to deduplicate and nothing
   to shuffle.
3. **Driver.**  Concatenate the task results in range order into one
   :class:`~repro.metablocking.backends.EdgeWeights` table and prune it with
   the retention tail of the sequential
   :class:`~repro.metablocking.metablocker.MetaBlocker`, which this class
   extends: only the weighing step differs.

**Range order is emission order.**  The kernel emits edges node-major (dense
ids ascending), first-touch within a node, each from its lower endpoint.  A
contiguous range covers consecutive nodes, so concatenating the ranges in
order reproduces the sequential full sweep's edge stream exactly — whatever
the number of ranges.  Every order-sensitive float (WEP's global mean, WNP's
per-node means) is then computed by the *same* code over the *same* array,
so retained edges, weights and the result dict's order are bit-for-bit the
sequential ones by construction.

**Pruning stays on the driver.**  It is a handful of array expressions, an
order of magnitude cheaper than the weighing; WEP and CEP need the global
view anyway; and distributing the node-centric votes would re-create a
shuffle whose per-edge records cost more than the votes they carry.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate

import numpy as np

from repro.engine.context import EngineContext
from repro.metablocking.backends import EdgeWeights
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.pruning import PruningStrategy
from repro.metablocking.weights import WeightingScheme


def balanced_ranges(costs, parts: int) -> list[tuple[int, int]]:
    """Split ``[0, len(costs))`` into contiguous ranges of near-equal cost.

    ``costs`` are non-negative integers.  Returns at most ``parts`` non-empty
    ``(lo, hi)`` ranges that are disjoint, ascending and cover every index;
    the ``k``-th cut is the first index whose cost prefix reaches ``k/parts``
    of the total, so no range outweighs the ideal share by more than the
    heaviest single element.  Zero-cost stretches never get a range of their
    own (an all-zero vector yields one range).
    """
    n = len(costs)
    if n == 0:
        return []
    prefix = [0, *accumulate(costs)]
    total = prefix[-1]
    cuts = {0, n}
    for k in range(1, parts):
        cuts.add(bisect_left(prefix, -(-k * total // parts)))
    bounds = sorted(cuts)
    return list(zip(bounds, bounds[1:]))


class _RangeWeigher:
    """``(lo, hi)`` → the ``(a, b, w)`` edge arrays of that dense node range.

    The task function of the ``metablocking.weights`` map: a module-level
    callable with bound arguments (not a closure), so it pickles for the
    process pool.  The weight plan is cached on the index, i.e. resolved once
    per worker process.
    """

    __slots__ = ("index", "scheme", "use_entropy")

    def __init__(self, index: CSRBlockIndex, scheme: WeightingScheme, use_entropy: bool) -> None:
        self.index = index
        self.scheme = scheme
        self.use_entropy = use_entropy

    def __call__(self, bounds: tuple[int, int]) -> tuple:
        index = self.index
        plan = index.weight_plan(self.scheme, self.use_entropy)
        return index.kernel().range_weights(*bounds, plan)


class ParallelMetaBlocker(MetaBlocker):
    """Parallel meta-blocking with the broadcast-join structure of SparkER.

    Parameters
    ----------
    context:
        The engine context whose pool runs the range tasks.
    weighting / pruning / use_entropy:
        Same meaning as for :class:`~repro.metablocking.metablocker.MetaBlocker`.
    """

    def __init__(
        self,
        context: EngineContext,
        weighting: str | WeightingScheme = WeightingScheme.CBS,
        pruning: str | PruningStrategy = "wnp",
        *,
        use_entropy: bool = False,
    ) -> None:
        super().__init__(weighting, pruning, use_entropy=use_entropy)
        self.context = context

    def _weigh(self, index: CSRBlockIndex) -> EdgeWeights:
        """Weigh on the pool: one task per cost-balanced node range.

        The index (and the shared segment it exported) is closed by the
        caller, also when a task raises.
        """
        if index.num_nodes == 0:
            return super()._weigh(index)
        # Resolved before the index ships: what the plan reads beyond the
        # CSR buffers (EJS's degree vector and edge count) travels with the
        # index instead of being re-swept per worker.
        index.weight_plan(self.weighting, self.use_entropy)
        if self.context.workers:
            # The index then pickles as a segment reference: pool workers
            # map it instead of deserialising copies.
            index.export_shared()
        ranges = balanced_ranges(
            index.kernel().sweep_costs(), self.context.default_parallelism
        )
        parts = self.context.map(
            _RangeWeigher(index, self.weighting, self.use_entropy),
            ranges,
            "metablocking.weights",
        )
        a, b, w = (np.concatenate(column) for column in zip(*parts))
        return EdgeWeights(a, b, w, index.num_nodes, index.kernel().node_ids)
