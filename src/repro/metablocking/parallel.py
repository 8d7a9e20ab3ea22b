"""Broadcast-join parallel meta-blocking on the range pool — one map.

The paper (Section 2.1) describes the parallel meta-blocking as *inspired by
the broadcast join*: the nodes of the blocking graph are partitioned, the
compact block index is shared with every task, and each task materialises
the neighbourhoods of its own nodes and weighs their edges.  The sequential
:class:`~repro.metablocking.metablocker.MetaBlocker` already weighs that way,
range by range (:meth:`~repro.metablocking.backends.NumpyKernel.
weight_arrays`); this class only maps the same ranges over the engine:

1. **Driver.**  Build the :class:`~repro.metablocking.index.CSRBlockIndex`
   — the broadcast: the driver weighs its own share of the ranges on it,
   and the map's children are forked after it exists and inherit it
   copy-on-write (where they are not forked, it pickles by value once per
   child).  Split the dense node ids ``[0, n)`` into the kernel's
   contiguous ranges balanced by *sweep cost* — per node, the
   summed size of the blocks it sits in, read off the offset arrays without
   materialising a neighbourhood — with at least
   ``default_parallelism`` parts and none over the scratch budget
   (:meth:`~repro.metablocking.backends.NumpyKernel.ranges`).
2. **One map, ``metablocking.weights``.**  A task receives one ``(lo, hi)``
   range, runs one range sweep over it against the inherited index and
   returns ``(a, b, w)`` ndarrays: dense endpoints and weight of every edge whose
   *lower* endpoint is in the range.  Each edge is emitted exactly once, so
   there is nothing to deduplicate and nothing to shuffle.
3. **Driver.**  Concatenate the task results in range order into one
   :class:`~repro.metablocking.backends.EdgeWeights` table and prune it with
   the retention tail of the sequential meta-blocker, which this class
   extends: only the weighing step differs.

**Range order is emission order.**  The kernel emits edges node-major (dense
ids ascending), first-touch within a node, each from its lower endpoint.  A
contiguous range covers consecutive nodes, so concatenating the ranges in
order reproduces one edge stream whatever the number of ranges — the
sequential path is this map at width 1.  Every order-sensitive float (WEP's
global mean, WNP's per-node means) is then computed by the *same* code over
the *same* array, so retained edges, weights and the result dict's order are
bit-for-bit the sequential ones by construction.

**Pruning stays on the driver.**  It is a handful of array expressions, an
order of magnitude cheaper than the weighing; WEP and CEP need the global
view anyway; and distributing the node-centric votes would re-create a
shuffle whose per-edge records cost more than the votes they carry.
"""

from __future__ import annotations

from repro.engine.context import EngineContext
from repro.metablocking.backends import EdgeWeights
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.pruning import PruningStrategy
from repro.metablocking.weights import WeightingScheme


class _RangeWeigher:
    """``(lo, hi)`` → the ``(a, b, w)`` edge arrays of that dense node range.

    The task function of the ``metablocking.weights`` map: a module-level
    callable with bound arguments (not a closure), so it also pickles where
    the map's children are not forked.  The weight plan is cached on the
    index, i.e. resolved once per process.
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
        The engine context whose map runs the range tasks.
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
        """Weigh on the engine: the sequential range list, mapped.

        The ranges are the kernel's budgeted ones, split into at least
        ``default_parallelism`` parts.
        """
        if index.num_nodes == 0:
            return super()._weigh(index)
        # Resolved before the children fork: what the plan reads beyond the
        # CSR buffers (EJS's degree vector and edge count) is inherited with
        # the index instead of being re-swept per child.
        index.weight_plan(self.weighting, self.use_entropy)
        kernel = index.kernel()
        parts = self.context.map(
            _RangeWeigher(index, self.weighting, self.use_entropy),
            kernel.ranges(self.context.default_parallelism),
            "metablocking.weights",
        )
        return kernel.edge_table(parts)
