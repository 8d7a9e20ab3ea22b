"""The CSR meta-blocking kernel and the one retention tail behind it.

The CSR index (:class:`~repro.metablocking.index.CSRBlockIndex`) stores its
offset/entry/cardinality/entropy buffers as contiguous ``int64`` /
``float64`` ndarrays.  :class:`NumpyKernel` reads them zero-copy and
materialises node neighbourhoods with gather / stable-sort /
``np.bincount`` expressions; :meth:`NumpyKernel.weight_arrays` turns them
into an :class:`EdgeWeights` table — every edge once, from its lower
endpoint, in node-major first-touch order.  :func:`retain_edges` prunes that
table: the WEP / CEP / WNP / CNP rules as array expressions
(:func:`retained_positions`), and a custom strategy's own ``prune`` over the
weight dict.  The sequential meta-blocker, the range pool and the service's
delta refresh all run this one tail.

**Determinism is the contract.**  Every float is accumulated in one fixed
order, so the same graph yields the same bits whichever driver weighs it and
however its node range is split:

* arcs / entropy sums accumulate through ``np.bincount(group, weights=...)``,
  whose C loop adds occurrences strictly left to right — in ascending block
  order, because a stable key sort never reorders the occurrences *within*
  one (node, neighbour) group;
* the ``log10`` factors of ECBS / EJS depend only on one endpoint, so they
  are computed per *node* with ``math.log10`` and merely gathered per edge —
  no vectorised transcendental ever enters a weight;
* the WEP / WNP threshold sums run through single-target ``np.bincount``
  accumulation in emission order; CEP / CNP top-k selection sorts by
  ``(-weight, canonical edge rank)`` — comparisons only, no arithmetic.

Agreement with the definitions (not just between drivers) is checked by the
test suite's brute-force reference, ``tests/metablocking_oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Any

import numpy as np

from repro.exceptions import MetaBlockingError


def expand_ranges(starts, counts):
    """Concatenated ``arange(start, start + count)`` for every range."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    firsts = np.concatenate(([0], np.cumsum(counts[:-1])))
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(firsts, counts)
        + np.repeat(starts, counts)
    )


# --------------------------------------------------------------- weight plans
@dataclass
class WeightPlan:
    """Everything one weighting job needs beyond the neighbourhood aggregates.

    Built once per (index, scheme, use_entropy) via
    :meth:`~repro.metablocking.index.CSRBlockIndex.weight_plan` and cached on
    the index, driver- and worker-side alike.  ``log_blocks`` / ``log_degrees``
    are the per-*node* ECBS / EJS factors, precomputed with ``math.log10`` so
    the vectorised per-edge expression never calls a (potentially SIMD-
    drifting) vectorised transcendental.
    """

    scheme: Any  # WeightingScheme; typed loosely to avoid an import cycle
    use_entropy: bool
    total_blocks: int
    total_edges: int = 0  # EJS only
    log_blocks: Any = None  # float64 per dense node (ECBS only)
    log_degrees: Any = None  # float64 per dense node (EJS only)


def _log_factors(total: int, counts) -> Any:
    """Per node ``log10(max(total / count, 1) + 1e-12)``; 0 where count is 0."""
    factors = np.zeros(len(counts), dtype=np.float64)
    if total > 0:
        for node, count in enumerate(counts.tolist()):
            if count:
                factors[node] = math.log10(max(total / count, 1.0) + 1e-12)
    return factors


def make_weight_plan(index, scheme, use_entropy: bool) -> WeightPlan:
    """Precompute the per-node vectors of one weighting job."""
    from repro.metablocking.weights import WeightingScheme  # import-cycle guard

    scheme = WeightingScheme.parse(scheme)
    plan = WeightPlan(
        scheme=scheme, use_entropy=use_entropy, total_blocks=index.total_blocks
    )
    if scheme is WeightingScheme.ECBS:
        plan.log_blocks = _log_factors(plan.total_blocks, index.node_block_count)
    elif scheme is WeightingScheme.EJS:
        plan.total_edges = index.num_edges()
        plan.log_degrees = _log_factors(plan.total_edges, index.degree_vector())
    return plan


# --------------------------------------------------------------------- kernel
@dataclass
class _Sweep:
    """One vectorised neighbourhood sweep over a set of owner nodes.

    Edges are grouped per owner (owner-major, first-touch order within each
    owner), *including* the lower-endpoint direction; consumers filter
    ``other > owner`` when they emit each edge once.  ``arcs`` /
    ``entropies`` are ``None`` when the sweep was computed for a job that
    does not read them (e.g. a CBS weight table) — :meth:`NumpyKernel.sweep`
    recomputes on demand.
    """

    owners: Any  # int64[m] dense owner per edge, non-decreasing
    others: Any  # int64[m] dense neighbour per edge
    common: Any  # int64[m]
    arcs: Any  # float64[m] or None
    entropies: Any  # float64[m] or None
    offsets: Any = None  # int64[k+1] segment bounds per swept node

    def segment(self, position: int) -> tuple[int, int]:
        return int(self.offsets[position]), int(self.offsets[position + 1])

    def has(self, *, need_arcs: bool, need_entropies: bool) -> bool:
        return (self.arcs is not None or not need_arcs) and (
            self.entropies is not None or not need_entropies
        )


class NumpyKernel:
    """Vectorised neighbourhood materialisation over zero-copy buffer views.

    Neighbourhoods are materialised by a gather of the owner's block member
    ranges, grouped per ``(owner, neighbour)`` key with one stable integer
    sort, and aggregated with ``np.bincount`` — see the module docstring for
    the accumulation order this fixes.
    """

    def __init__(self, index) -> None:
        self._index = index
        self.node_block_offsets = np.asarray(index.node_block_offsets, dtype=np.int64)
        self.node_block_entries = np.asarray(index.node_block_entries, dtype=np.int64)
        self.node_block_count = np.asarray(index.node_block_count, dtype=np.int64)
        self.block_offsets = np.asarray(index.block_offsets, dtype=np.int64)
        self.block_nodes = np.asarray(index.block_nodes, dtype=np.int64)
        self.block_split = np.asarray(index.block_split, dtype=np.int64)
        self.block_inv_cardinality = np.asarray(index.block_inv_cardinality, dtype=np.float64)
        self.block_entropy = np.asarray(index.block_entropy, dtype=np.float64)
        self.node_ids = np.asarray(index.node_ids, dtype=np.int64)
        self._full_sweep: _Sweep | None = None

    # ------------------------------------------------------------- the sweep
    def sweep(self, nodes=None, *, need_arcs: bool = True, need_entropies: bool = True) -> _Sweep:
        """Materialise the neighbourhoods of ``nodes`` (all nodes if None).

        The whole-graph sweep is computed once and cached; partition sweeps
        (worker tasks) compute only their own nodes, preserving the parallel
        path's work partitioning.  ``need_arcs`` / ``need_entropies`` let
        weight jobs skip the float aggregates their scheme never reads; a
        cached sweep missing a later-needed aggregate is recomputed.
        """
        if nodes is None:
            cached = self._full_sweep
            if cached is not None:
                if cached.has(need_arcs=need_arcs, need_entropies=need_entropies):
                    return cached
                # Upgrade: keep whatever the cached sweep already carries.
                need_arcs = need_arcs or cached.arcs is not None
                need_entropies = need_entropies or cached.entropies is not None
            self._full_sweep = self._sweep(
                np.arange(self._index.num_nodes),
                need_arcs=need_arcs,
                need_entropies=need_entropies,
            )
            return self._full_sweep
        return self._sweep(
            np.asarray(nodes, dtype=np.int64),
            need_arcs=need_arcs,
            need_entropies=need_entropies,
        )

    def _sweep(self, nodes, *, need_arcs: bool, need_entropies: bool) -> _Sweep:
        n = self._index.num_nodes
        empty_i = np.empty(0, dtype=np.int64)
        empty_f = np.empty(0, dtype=np.float64)
        if len(nodes) == 0:
            return _Sweep(empty_i, empty_i, empty_i, empty_f, empty_f, np.zeros(1, np.int64))

        # 1. Every (node, block entry) of the swept nodes, node-major.
        entry_counts = self.node_block_offsets[nodes + 1] - self.node_block_offsets[nodes]
        entries = self.node_block_entries[
            expand_ranges(self.node_block_offsets[nodes], entry_counts)
        ]
        owner_per_entry = np.repeat(nodes, entry_counts)

        # 2. Member ranges per entry, side-filtered for clean-clean blocks.
        blocks = entries >> 1
        side = entries & 1
        lo = self.block_offsets[blocks]
        hi = self.block_offsets[blocks + 1]
        split = self.block_split[blocks]
        clean = split >= 0
        hi = np.where(clean & (side == 1), lo + split, hi)
        lo = np.where(clean & (side == 0), lo + split, lo)
        counts = hi - lo

        # 3. Occurrence expansion: one row per (owner, co-member) incidence,
        # ascending block order per owner.
        others = self.block_nodes[expand_ranges(lo, counts)]
        owners = np.repeat(owner_per_entry, counts)
        occ_inv = (
            np.repeat(self.block_inv_cardinality[blocks], counts) if need_arcs else None
        )
        occ_ent = (
            np.repeat(self.block_entropy[blocks], counts) if need_entropies else None
        )
        self_mask = others != owners
        if not self_mask.all():
            others = others[self_mask]
            owners = owners[self_mask]
            if occ_inv is not None:
                occ_inv = occ_inv[self_mask]
            if occ_ent is not None:
                occ_ent = occ_ent[self_mask]

        # 4. Group by (owner, other).  The stable sort keeps each group's
        # occurrences in original relative order, so accumulating the sorted
        # stream adds the floats in ascending block order.
        keys = owners * n + others
        if n and n * n <= np.iinfo(np.int32).max:
            keys = keys.astype(np.int32)  # narrower radix sort, same order
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        total = len(sorted_keys)
        if total == 0:
            offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
            return _Sweep(empty_i, empty_i, empty_i, empty_f, empty_f, offsets)
        new_group = np.empty(total, dtype=bool)
        new_group[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_group[1:])
        boundaries = np.flatnonzero(new_group)
        first_occurrence = order[new_group]
        num_groups = len(boundaries)
        common = np.diff(np.concatenate((boundaries, [total])))
        arcs = entropies = None
        if need_arcs or need_entropies:
            group_of_sorted = np.cumsum(new_group) - 1
            if need_arcs:
                arcs = np.bincount(
                    group_of_sorted, weights=occ_inv[order], minlength=num_groups
                )
            if need_entropies:
                entropies = np.bincount(
                    group_of_sorted, weights=occ_ent[order], minlength=num_groups
                )

        # 5. Reorder the groups into owner-major first-touch order (ascending
        # first-occurrence position).
        emit_order = np.argsort(first_occurrence, kind="stable")
        first_ordered = first_occurrence[emit_order]
        edge_owners = owners[first_ordered]
        edge_others = others[first_ordered]
        offsets = np.searchsorted(edge_owners, nodes, side="left")
        offsets = np.concatenate((offsets, [len(edge_owners)]))
        return _Sweep(
            owners=edge_owners,
            others=edge_others,
            common=common[emit_order],
            arcs=arcs[emit_order] if arcs is not None else None,
            entropies=entropies[emit_order] if entropies is not None else None,
            offsets=offsets,
        )

    # ------------------------------------------------------------ weights
    def _edge_weights(self, sweep: _Sweep, keep, plan: WeightPlan):
        """The weight vector of ``sweep``'s edges selected by ``keep``.

        One whole-neighbourhood ufunc expression per scheme (definitions in
        :mod:`repro.metablocking.weights`); the entropy factor is applied
        last, as ``weight * (entropy_sum / common_blocks)``.
        """
        from repro.metablocking.weights import WeightingScheme

        scheme = plan.scheme
        owners = sweep.owners[keep]
        others = sweep.others[keep]
        cbs = sweep.common[keep].astype(np.float64)
        if scheme is WeightingScheme.CBS:
            weights = cbs
        elif scheme is WeightingScheme.ARCS:
            weights = sweep.arcs[keep]
        elif scheme in (WeightingScheme.JS, WeightingScheme.EJS):
            blocks_sum = (
                self.node_block_count[owners] + self.node_block_count[others]
            ).astype(np.float64)
            denominator = blocks_sum - cbs
            weights = np.divide(
                cbs,
                denominator,
                out=np.zeros(len(cbs), dtype=np.float64),
                where=denominator > 0,
            )
            if scheme is WeightingScheme.EJS:
                # Both endpoints of an edge have a degree, so both factors apply.
                weights = weights * plan.log_degrees[owners] * plan.log_degrees[others]
        elif scheme is WeightingScheme.ECBS:
            weights = cbs * plan.log_blocks[owners] * plan.log_blocks[others]
        else:  # pragma: no cover - the enum is closed
            raise MetaBlockingError(f"unsupported weighting scheme: {scheme}")
        if plan.use_entropy:
            weights = weights * (sweep.entropies[keep] / cbs)
        return weights

    def _plan_sweep(self, plan: WeightPlan, nodes=None) -> _Sweep:
        """The sweep for one weight plan, skipping aggregates it never reads."""
        from repro.metablocking.weights import WeightingScheme

        return self.sweep(
            nodes,
            need_arcs=plan.scheme is WeightingScheme.ARCS,
            need_entropies=plan.use_entropy,
        )

    # ----------------------------------------------------------- public API
    def neighbours(self, node: int) -> list[int]:
        """All neighbours of ``node`` in first-touch order (python ints)."""
        sweep = self.sweep(need_arcs=False, need_entropies=False)
        start, end = sweep.segment(node)
        return sweep.others[start:end].tolist()

    def _upper_edges(self, sweep: _Sweep, plan: WeightPlan) -> tuple:
        """``(a, b, w)`` of ``sweep``'s edges, each from its lower endpoint."""
        keep = sweep.others > sweep.owners
        return sweep.owners[keep], sweep.others[keep], self._edge_weights(sweep, keep, plan)

    def range_weights(self, lo: int, hi: int, plan: WeightPlan) -> tuple:
        """The weighted upper edges of the dense nodes ``[lo, hi)`` as arrays.

        One partial sweep; ``(a, b, w)`` are aligned ndarrays over dense node
        ids in node-major first-touch order, so the concatenation over
        consecutive ranges is exactly :meth:`weight_arrays`.
        """
        return self._upper_edges(self._plan_sweep(plan, np.arange(lo, hi)), plan)

    def sweep_costs(self) -> list[int]:
        """Per dense node, the summed size of the blocks it sits in.

        What a partial sweep over the node gathers before grouping — read
        off the offset arrays, no neighbourhood is materialised.
        """
        sizes = np.diff(self.block_offsets)
        running = np.concatenate(([0], np.cumsum(sizes[self.node_block_entries >> 1])))
        return np.diff(running[self.node_block_offsets]).tolist()

    def weight_arrays(self, plan: WeightPlan) -> "EdgeWeights":
        """Every edge weight of the graph as aligned dense arrays — no dict.

        ``node_ids`` carries the dense→profile-id vector, so pair tuples are
        materialised lazily, per retained chunk.  The O(E) footprint is three
        numeric arrays (~24 bytes/edge) instead of a dict of tuples
        (~200 bytes/edge).
        """
        a, b, w = self._upper_edges(self._plan_sweep(plan), plan)
        return EdgeWeights(a, b, w, self._index.num_nodes, self.node_ids)

    def weight_table(self, plan: WeightPlan) -> "EdgeWeights":
        """:meth:`weight_arrays` plus the full ``(a, b) → weight`` dict."""
        table = self.weight_arrays(plan)
        table.mapping = table.to_mapping()
        return table

    def degrees(self):
        """Blocking-graph degree of every node, from the (cached) full sweep.

        Only the edge structure is needed, so a cold cache computes the
        cheap aggregate-free sweep.
        """
        sweep = self.sweep(need_arcs=False, need_entropies=False)
        return np.bincount(sweep.owners, minlength=self._index.num_nodes).astype(np.int64)


# ------------------------------------------------------- vectorised pruning
@dataclass
class EdgeWeights:
    """Every edge of the blocking graph as aligned dense arrays.

    ``a`` / ``b`` / ``w`` are the dense endpoints and the weight of each edge
    in emission (node-major first-touch) order, and ``node_ids`` maps dense
    ids back to profile ids.  Pair tuples are only materialised for what a
    consumer asks for: the retained edges, chunk by chunk
    (:func:`iter_retained_chunks`), or the whole graph (:meth:`to_mapping`).
    ``mapping`` caches the latter for :meth:`NumpyKernel.weight_table`.
    """

    a: Any
    b: Any
    w: Any
    num_nodes: int
    node_ids: Any = None
    mapping: "dict | None" = None
    _canonical_rank: Any = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.a)

    def to_mapping(self) -> dict:
        """The full ``(a, b) → weight`` dict, in emission order."""
        ids = self.node_ids
        return dict(
            zip(zip(ids[self.a].tolist(), ids[self.b].tolist()), self.w.tolist())
        )

    def canonical_rank(self):
        """Position of each edge in canonical (sorted-pair) order.

        Ordering by ``(-weight, rank)`` is therefore the ``(-weight, pair)``
        tie-break of the pruning definitions.  Cached: CEP and CNP both
        consume it.
        """
        if self._canonical_rank is None:
            # Pairs are distinct, so one sort of the composite key is the
            # (a, b) lexicographic order (~9x faster than a two-key lexsort).
            order = np.argsort(self.a * self.num_nodes + self.b, kind="stable")
            rank = np.empty(len(self.a), dtype=np.int64)
            rank[order] = np.arange(len(self.a), dtype=np.int64)
            self._canonical_rank = rank
        return self._canonical_rank


def _sequential_sum(values):
    """Left-to-right float sum, bit-identical to ``sum()`` over the same list.

    ``np.sum`` uses pairwise summation (different rounding); a single-bin
    weighted ``np.bincount`` accumulates strictly in order instead.
    """
    if len(values) == 0:
        return 0.0
    return float(
        np.bincount(np.zeros(len(values), dtype=np.int64), weights=values, minlength=1)[0]
    )


def _wep_mask(table: EdgeWeights):
    """WEP's boolean retention mask: at or above the global mean weight."""
    threshold = _sequential_sum(table.w) / len(table)
    return table.w >= threshold


def ranked_positions(table: EdgeWeights, k: int):
    """The top-``k`` edge positions in ranked ``(-weight, pair)`` order.

    CEP's retention, and with ``k = len(table)`` progressive global sorting.
    """
    return np.lexsort((table.canonical_rank(), -table.w))[:k]


def _interleaved_incidence(table: EdgeWeights):
    """The per-node incidence stream ``a0, b0, a1, b1, …``.

    Each node's subsequence lists its incident edges in emission order —
    the order its WNP threshold sum accumulates in.
    """
    m = len(table)
    nodes = np.empty(2 * m, dtype=np.int64)
    nodes[0::2] = table.a
    nodes[1::2] = table.b
    return nodes


def _wnp_mask(table: EdgeWeights, required: int):
    """WNP's boolean retention mask (per-node mean threshold votes)."""
    nodes = _interleaved_incidence(table)
    occurrence_w = np.repeat(table.w, 2)
    sums = np.bincount(nodes, weights=occurrence_w, minlength=table.num_nodes)
    counts = np.bincount(nodes, minlength=table.num_nodes)
    thresholds = sums / np.maximum(counts, 1)
    votes = (table.w >= thresholds[table.a]).astype(np.int64)
    votes += table.w >= thresholds[table.b]
    return votes >= required


def _cnp_mask(table: EdgeWeights, k: int, required: int):
    """CNP's boolean retention mask (per-node top-``k`` votes)."""
    m = len(table)
    # Rank the edges once by (-weight, canonical pair order), then sort the
    # interleaved incidence stream by a single (node, edge position) integer
    # key — stable radix sort, no float arithmetic, exact tie-breaks.
    edge_order = np.lexsort((table.canonical_rank(), -table.w))
    edge_position = np.empty(m, dtype=np.int64)
    edge_position[edge_order] = np.arange(m, dtype=np.int64)
    nodes = _interleaved_incidence(table)
    occurrence_edge = np.repeat(np.arange(m, dtype=np.int64), 2)
    composite = nodes * m + edge_position[occurrence_edge]
    order = np.argsort(composite, kind="stable")
    sorted_nodes = nodes[order]
    segment_starts = np.searchsorted(sorted_nodes, np.arange(table.num_nodes))
    position_in_node = np.arange(2 * m, dtype=np.int64) - segment_starts[sorted_nodes]
    kept = position_in_node < k
    votes = np.bincount(occurrence_edge[order][kept], minlength=m)
    return votes >= required


def supports_strategy(strategy) -> bool:
    """True when the vectorised dispatch covers ``strategy`` exactly.

    Only the *stock* strategy classes qualify — any subclass may override
    ``prune`` or one of its hooks (e.g. ``WeightedNodePruning.
    node_thresholds``), and the array rules must never silently replace
    customised behaviour.  ``ReciprocalWeightedNodePruning`` is the one
    sanctioned subclass: it only flips the ``reciprocal`` flag.
    """
    from repro.metablocking.pruning import (  # import-cycle guard
        CardinalityEdgePruning,
        CardinalityNodePruning,
        ReciprocalWeightedNodePruning,
        WeightedEdgePruning,
        WeightedNodePruning,
    )

    return type(strategy) in (
        WeightedEdgePruning,
        CardinalityEdgePruning,
        CardinalityNodePruning,
        WeightedNodePruning,
        ReciprocalWeightedNodePruning,
    )


# ----------------------------------------------------------- streamed pruning
DEFAULT_CHUNK_EDGES = 65536


def retained_positions(strategy, table: EdgeWeights, index):
    """Retained edge positions of ``table``, in retention order, or ``None``.

    The vectorised retention definition: the *positions* (indices into
    ``table.a/b/w``) of the retained edges — in emission (node-major
    first-touch) order for WEP/WNP/CNP, in ranked ``(-weight, pair)`` order
    for CEP.  Returns ``None`` for custom strategy subclasses (the caller
    runs their own ``prune``).  Default ``k`` derivations delegate to the
    shared :func:`~repro.metablocking.pruning.default_cep_k` /
    :func:`~repro.metablocking.pruning.default_cnp_k` formulas.
    """
    from repro.metablocking.pruning import (  # import-cycle guard
        CardinalityEdgePruning,
        CardinalityNodePruning,
        WeightedEdgePruning,
        default_cep_k,
        default_cnp_k,
    )

    if not supports_strategy(strategy):
        return None
    if not len(table):
        return np.empty(0, dtype=np.int64)
    if type(strategy) is WeightedEdgePruning:
        return np.flatnonzero(_wep_mask(table))
    if type(strategy) is CardinalityEdgePruning:
        k = strategy.k
        if k is None:
            k = default_cep_k(int(index.node_block_count.sum()))
        return ranked_positions(table, k)
    if isinstance(strategy, CardinalityNodePruning):
        k = strategy.k
        if k is None:
            k = default_cnp_k(int(index.node_block_count.sum()), index.num_nodes)
        return np.flatnonzero(_cnp_mask(table, k, 2 if strategy.reciprocal else 1))
    return np.flatnonzero(_wnp_mask(table, 2 if strategy.reciprocal else 1))


def iter_retained_chunks(
    table: EdgeWeights, positions, chunk_edges: int = DEFAULT_CHUNK_EDGES
):
    """Yield the retained edges as bounded lists of ``((a, b), weight)``.

    ``positions`` is a :func:`retained_positions` result; each yielded chunk
    materialises at most ``chunk_edges`` python records (profile-id pair
    tuples and float weights), so the peak python-object footprint of a
    consumer that processes chunks as they arrive is O(chunk), not
    O(retained).
    """
    if chunk_edges <= 0:
        raise MetaBlockingError("chunk_edges must be positive")
    node_ids = table.node_ids
    for start in range(0, len(positions), chunk_edges):
        chunk = positions[start : start + chunk_edges]
        yield list(
            zip(
                zip(
                    node_ids[table.a[chunk]].tolist(),
                    node_ids[table.b[chunk]].tolist(),
                ),
                table.w[chunk].tolist(),
            )
        )


def retained_dict(table: EdgeWeights, positions) -> dict:
    """The retained-edge dict of a :func:`retained_positions` result."""
    return dict(chain.from_iterable(iter_retained_chunks(table, positions)))


def prune_edge_weights(strategy, table: EdgeWeights, index) -> "dict | None":
    """:func:`retained_positions` materialised as the retained-edge dict.

    ``None`` for custom strategy subclasses, like the positions dispatch.
    """
    positions = retained_positions(strategy, table, index)
    return None if positions is None else retained_dict(table, positions)


def retain_edges(strategy, table: EdgeWeights, index) -> tuple:
    """The retention tail over a weighed table: ``(positions, retained)``.

    A stock strategy retains through the array rules — ``positions`` set,
    ``retained`` ``None``.  A custom strategy runs its own ``prune`` over
    :class:`~repro.metablocking.pruning.IndexStats` and the full weight dict
    — ``positions`` ``None``, ``retained`` the dict.  Shared by the
    sequential meta-blocker, the range-pool job and the service's delta
    refresh.
    """
    positions = retained_positions(strategy, table, index)
    if positions is not None:
        return positions, None
    from repro.metablocking.pruning import IndexStats  # import-cycle guard

    return None, strategy.prune(IndexStats(index), table.to_mapping())


def iter_dict_chunks(retained: dict, chunk_edges: int = DEFAULT_CHUNK_EDGES):
    """Slice an already-built retained dict into ``items()`` chunks.

    The streaming form of a custom strategy's retention: correct, but the
    dict is O(retained) by then.
    """
    if chunk_edges <= 0:
        raise MetaBlockingError("chunk_edges must be positive")
    items = list(retained.items())
    for start in range(0, len(items), chunk_edges):
        yield items[start : start + chunk_edges]
