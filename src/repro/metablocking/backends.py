"""The CSR meta-blocking kernel and the one retention tail behind it.

The CSR index (:class:`~repro.metablocking.index.CSRBlockIndex`) stores its
offset/entry/cardinality/entropy buffers as contiguous ``int64`` /
``float64`` ndarrays.  :class:`NumpyKernel` reads them zero-copy and sweeps
one contiguous node range at a time — gather / sort / ``np.bincount``
over the *upper* edges only (neighbour above owner).
:meth:`NumpyKernel.weight_arrays` joins the cost-balanced range sweeps, each
under :data:`SWEEP_BUDGET`, into an :class:`EdgeWeights` table — every edge
once, from its lower endpoint, in node-major first-touch order — so the
weighing scratch is O(budget) and only the table is O(edges).  The
sequential meta-blocker loops over the ranges, the range map maps them.
:func:`retained_positions` prunes that table: the WEP / CEP / WNP / CNP
rules as array expressions, dispatched on the strategy's exact class — the
only definition of the rules.  The sequential meta-blocker, the range map
and the service's delta refresh all run this one tail.

**Determinism is the contract.**  Every float is accumulated in one fixed
order, so the same graph yields the same bits whichever driver weighs it and
however its node range is split:

* arcs / entropy sums accumulate through ``np.bincount(group, weights=...)``,
  whose C loop adds occurrences strictly left to right — in ascending block
  order, because the position bits of every sort code (:func:`stable_sort`)
  keep the occurrences *within* one (node, neighbour) group in stream order;
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
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate
from typing import Any

import numpy as np

from repro.exceptions import MetaBlockingError
from repro.metablocking.pruning import (
    CardinalityEdgePruning,
    CardinalityNodePruning,
    WeightedEdgePruning,
    make_pruning_strategy,
)


def expand_ranges(starts, counts):
    """Concatenated ``arange(start, start + count)`` for every range."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    firsts = np.concatenate(([0], np.cumsum(counts[:-1])))
    expanded = np.repeat(starts - firsts, counts)
    expanded += np.arange(total, dtype=np.int64)
    return expanded


def stable_sort(keys):
    """``(keys[order], order)`` for ``order = np.argsort(keys, kind="stable")``
    of integer ``keys``, which it consumes: one in-place ``np.sort`` of int64
    codes ``(key − min) << bits | position`` (the position bits keep equal keys
    in input order); keys too wide for 63 bits take the stable argsort."""
    bits = max(len(keys) - 1, 0).bit_length()
    low, high = (int(keys.min()), int(keys.max())) if len(keys) else (0, 0)
    if (high - low).bit_length() + bits > 63:
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    codes = keys.astype(np.int64, copy=False)
    codes -= low
    codes <<= bits
    codes |= np.arange(len(codes), dtype=np.int64)
    codes.sort()
    order = codes & ((1 << bits) - 1)
    codes >>= bits
    codes += low
    return codes, order


def unique_inverse(values):
    """``np.unique(values, return_inverse=True)`` of integers, by :func:`stable_sort`."""
    ordered, order = stable_sort(values.astype(np.int64))
    new = np.diff(ordered, prepend=ordered[:1] - 1) != 0
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


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
    elif scheme is WeightingScheme.EJS:  # each edge adds 2 to the degree sum
        plan.total_edges = int(index.degree_vector().sum()) // 2
        plan.log_degrees = _log_factors(plan.total_edges, index.degree_vector())
    return plan


# --------------------------------------------------------------------- kernel
#: The sweep cost (:meth:`NumpyKernel.sweep_costs`) one range sweep takes on.
#: Every weighing splits the nodes into ``⌈total cost / SWEEP_BUDGET⌉``
#: cost-balanced ranges, so its scratch stays O(budget) however large the
#: graph (a single node heavier than the budget still gets one range).
SWEEP_BUDGET = 1 << 18


def _join(column: list, dtype: str):
    """Concatenate ``column``'s arrays (empty: a ``dtype`` array) and clear it."""
    joined = np.concatenate(column) if column else np.empty(0, dtype=dtype)
    column.clear()
    return joined


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


@dataclass
class _Sweep:
    """The upper edges of one node range, grouped per ``(owner, other)``.

    Owner-major, first-touch order within each owner, and only edges with
    ``other > owner``: every edge once, from its lower endpoint.  ``arcs`` /
    ``entropies`` are ``None`` when the job does not read them (e.g. a CBS
    weight table).
    """

    owners: Any  # int64[m] dense owner per edge, non-decreasing
    others: Any  # int64[m] dense neighbour per edge, > its owner
    common: Any  # int64[m]
    arcs: Any  # float64[m] or None
    entropies: Any  # float64[m] or None


class NumpyKernel:
    """Vectorised neighbourhood materialisation over zero-copy buffer views.

    Neighbourhoods are materialised by a gather of the owner's block member
    ranges, grouped per ``(owner, neighbour)`` key with one sort of position-packed
    codes, and aggregated with ``np.bincount`` — see the module docstring for the
    accumulation order this fixes.  The edge table and the degree vector are
    passes of range sweeps; nothing of a sweep outlives its range.
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

    # ------------------------------------------------------------- the sweep
    def _gather(self, nodes: range) -> tuple:
        """``(owners, others, blocks, counts)`` of a contiguous node range.

        ``others`` has one row per (owner, co-member) incidence, self
        included, node-major and in ascending block order per owner.
        ``owners``, ``blocks`` and ``counts`` are the owner, the block and
        the row count of each (owner, block entry); ``np.repeat(x, counts)``
        expands them per row.
        """
        nodes = np.arange(nodes.start, nodes.stop)
        # 1. Every (node, block entry) of the swept nodes, node-major.
        entry_counts = self.node_block_offsets[nodes + 1] - self.node_block_offsets[nodes]
        entries = self.node_block_entries[
            expand_ranges(self.node_block_offsets[nodes], entry_counts)
        ]
        owners = np.repeat(nodes, entry_counts)
        # 2. Member ranges per entry, side-filtered for clean-clean blocks.
        blocks = entries >> 1
        side = entries & 1
        first = self.block_offsets[blocks]
        last = self.block_offsets[blocks + 1]
        split = self.block_split[blocks]
        clean = split >= 0
        last = np.where(clean & (side == 1), first + split, last)
        first = np.where(clean & (side == 0), first + split, first)
        counts = last - first
        # 3. Occurrence expansion.
        return owners, self.block_nodes[expand_ranges(first, counts)], blocks, counts

    def _sweep(self, nodes: range, *, need_arcs: bool, need_entropies: bool) -> _Sweep:
        """The upper edges of a contiguous node range and their aggregates."""
        n, lo = self._index.num_nodes, nodes.start
        owners, others, blocks, counts = self._gather(nodes)
        keys = np.repeat(owners, counts)
        # Only other > owner: the dropped rows are whole (owner, other)
        # groups, so first-touch order and every group's sums are unchanged.
        upper = others > keys
        # One key encodes both endpoints: (owner - lo) * n + other, built in
        # place (fresh scratch pages cost as much as the arithmetic).
        keys -= lo
        keys *= n
        keys += others
        keys = keys[upper]
        del others  # the sort below is the scratch peak
        occ_blocks = np.repeat(blocks, counts)[upper] if need_arcs or need_entropies else None
        total = len(keys)

        # 4. Group by (owner, other), sorting ``keys`` in place.  Position in
        # the low bits keeps each group's occurrences in stream order, so the
        # sorted stream adds the floats in ascending block order.
        keys, order = stable_sort(keys)
        new_group = np.empty(total, dtype=bool)
        new_group[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=new_group[1:])
        boundaries = np.flatnonzero(new_group)
        first_occurrence = order[new_group]
        num_groups = len(boundaries)
        common = np.diff(np.concatenate((boundaries, [total])))
        arcs = entropies = None
        if occ_blocks is not None:
            group_of_sorted = np.cumsum(new_group) - 1
            sorted_blocks = occ_blocks[order]
            if need_arcs:
                arcs = np.bincount(
                    group_of_sorted,
                    weights=self.block_inv_cardinality[sorted_blocks],
                    minlength=num_groups,
                )
            if need_entropies:
                entropies = np.bincount(
                    group_of_sorted,
                    weights=self.block_entropy[sorted_blocks],
                    minlength=num_groups,
                )

        # 5. Reorder the groups into owner-major first-touch order (ascending
        # first-occurrence position): mark the first occurrences, read them
        # off in stream order, and look up each one's group — no sort.
        is_first = np.zeros(total, dtype=bool)
        is_first[first_occurrence] = True
        first_ordered = np.flatnonzero(is_first)
        group_at = np.empty(total, dtype=np.int64)
        group_at[first_occurrence] = np.arange(num_groups)
        emit_order = group_at[first_ordered]
        edge_owners, edge_others = np.divmod(keys[boundaries[emit_order]], n)
        edge_owners += lo
        return _Sweep(
            owners=edge_owners,
            others=edge_others,
            common=common[emit_order],
            arcs=arcs[emit_order] if arcs is not None else None,
            entropies=entropies[emit_order] if entropies is not None else None,
        )

    def ranges(self, parts: int = 1) -> list[tuple[int, int]]:
        """The cost-balanced node ranges of one pass: at least ``parts``, and
        as many as :data:`SWEEP_BUDGET` asks for."""
        costs = self.sweep_costs()
        return balanced_ranges(costs, max(parts, -(-sum(costs) // SWEEP_BUDGET)))

    # ------------------------------------------------------------ weights
    def _edge_weights(self, sweep: _Sweep, plan: WeightPlan):
        """The weight vector of ``sweep``'s edges.

        One whole-range ufunc expression per scheme (definitions in
        :mod:`repro.metablocking.weights`); the entropy factor is applied
        last, as ``weight * (entropy_sum / common_blocks)``.
        """
        from repro.metablocking.weights import WeightingScheme

        scheme = plan.scheme
        owners = sweep.owners
        others = sweep.others
        cbs = sweep.common.astype(np.float64)
        if scheme is WeightingScheme.CBS:
            weights = cbs
        elif scheme is WeightingScheme.ARCS:
            weights = sweep.arcs
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
            weights = weights * (sweep.entropies / cbs)
        return weights

    # ----------------------------------------------------------- public API
    def neighbours(self, node: int) -> list[int]:
        """All neighbours of ``node`` in first-touch order (python ints).

        A one-node gather, both directions: the co-members of its blocks in
        ascending block order, each kept where it first appears.
        """
        _owners, others, _blocks, _counts = self._gather(range(node, node + 1))
        return list(dict.fromkeys(others[others != node].tolist()))

    def range_weights(self, lo: int, hi: int, plan: WeightPlan) -> tuple:
        """The weighted upper edges of the dense nodes ``[lo, hi)`` as arrays.

        One range sweep, skipping the aggregates the plan never reads;
        ``(a, b, w)`` are aligned ndarrays over dense node ids in node-major
        first-touch order, so the concatenation over consecutive ranges is
        exactly :meth:`weight_arrays`.
        """
        from repro.metablocking.weights import WeightingScheme

        sweep = self._sweep(
            range(lo, hi),
            need_arcs=plan.scheme is WeightingScheme.ARCS,
            need_entropies=plan.use_entropy,
        )
        return sweep.owners, sweep.others, self._edge_weights(sweep, plan)

    def sweep_costs(self) -> list[int]:
        """Per dense node, the summed size of the blocks it sits in.

        What a range sweep over the node gathers before grouping — read
        off the offset arrays, no neighbourhood is materialised.
        """
        sizes = np.diff(self.block_offsets)
        running = np.concatenate(([0], np.cumsum(sizes[self.node_block_entries >> 1])))
        return np.diff(running[self.node_block_offsets]).tolist()

    def edge_table(self, parts) -> "EdgeWeights":
        """Per-range ``(a, b, w)`` parts, in range order, as one table.

        Joined column by column, each column's parts dropped once joined,
        so the join holds the parts plus one column, not two tables.
        """
        columns = [list(column) for column in zip(*parts)] or [[], [], []]
        a, b, w = (_join(column, dtype) for column, dtype in zip(columns, "qqd"))
        return EdgeWeights(a, b, w, self._index.num_nodes, self.node_ids)

    def weight_arrays(self, plan: WeightPlan) -> "EdgeWeights":
        """Every edge weight of the graph as aligned dense arrays — no dict.

        :meth:`range_weights` over :meth:`ranges`, concatenated in range
        order.  ``node_ids`` carries the dense→profile-id vector, so pair
        tuples are materialised lazily, per retained chunk.  The O(E)
        footprint is three numeric arrays (~24 bytes/edge) instead of a dict
        of tuples (~200 bytes/edge).
        """
        return self.edge_table(self.range_weights(lo, hi, plan) for lo, hi in self.ranges())

    weight_table = weight_arrays  # the name the repo benchmark calls

    def degrees(self):
        """Blocking-graph degree of every node.

        One aggregate-free pass of range sweeps; each upper edge counts at
        both endpoints.
        """
        n = self._index.num_nodes
        degrees = np.zeros(n, dtype=np.int64)
        for lo, hi in self.ranges():
            sweep = self._sweep(range(lo, hi), need_arcs=False, need_entropies=False)
            degrees += np.bincount(sweep.owners, minlength=n)
            degrees += np.bincount(sweep.others, minlength=n)
        return degrees


# ------------------------------------------------------- vectorised pruning
@dataclass
class EdgeWeights:
    """Every edge of the blocking graph as aligned dense arrays.

    ``a`` / ``b`` / ``w`` are the dense endpoints and the weight of each edge
    in emission (node-major first-touch) order, and ``node_ids`` maps dense
    ids back to profile ids.  Pair tuples are only materialised for what a
    consumer asks for: the retained edges, chunk by chunk
    (:func:`iter_retained_chunks`), or the whole graph (:meth:`to_mapping`).
    """

    a: Any
    b: Any
    w: Any
    num_nodes: int
    node_ids: Any = None

    def __len__(self) -> int:
        return len(self.a)

    def to_mapping(self) -> dict:
        """The full ``(a, b) → weight`` dict, in emission order."""
        ids = self.node_ids
        return dict(
            zip(zip(ids[self.a].tolist(), ids[self.b].tolist()), self.w.tolist())
        )


def _sequential_sum(values):
    """Left-to-right float sum: one rounding per value, in array order.

    Neither ``np.sum`` (pairwise summation) nor Python's ``sum()`` (which
    compensates float sums from 3.12 on) rounds that way; a single-bin
    weighted ``np.bincount`` accumulates strictly in order.
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
    Only the edges at or above the ``k``-th largest weight (ties included)
    are lexsorted; the key ``a·n + b`` orders the dense pairs ``(a, b)``.
    """
    negated = -table.w
    candidates = np.arange(len(table))
    if 0 < k < len(table):
        candidates = np.flatnonzero(negated <= np.partition(negated, k - 1)[k - 1])
    pairs = table.a[candidates] * table.num_nodes + table.b[candidates]
    return candidates[np.lexsort((pairs, negated[candidates]))[:k]]


def _interleaved_incidence(table: EdgeWeights):
    """The per-node incidence stream ``a0, b0, a1, b1, …``.

    Each node's subsequence lists its incident edges in emission order —
    the order its mean incident weight accumulates in.
    """
    m = len(table)
    nodes = np.empty(2 * m, dtype=np.int64)
    nodes[0::2] = table.a
    nodes[1::2] = table.b
    return nodes


def node_means(table: EdgeWeights):
    """Every dense node's mean incident edge weight (0.0 without edges).

    WNP's thresholds and progressive node scheduling's priorities.  Each
    node's sum adds its incident weights left to right in emission order.
    """
    nodes = _interleaved_incidence(table)
    sums = np.bincount(nodes, weights=np.repeat(table.w, 2), minlength=table.num_nodes)
    counts = np.bincount(nodes, minlength=table.num_nodes)
    return sums / np.maximum(counts, 1)


def _wnp_mask(table: EdgeWeights, required: int):
    """WNP's boolean retention mask (per-node mean threshold votes)."""
    thresholds = node_means(table)
    votes = (table.w >= thresholds[table.a]).astype(np.int64)
    votes += table.w >= thresholds[table.b]
    return votes >= required


def _cnp_mask(table: EdgeWeights, k: int, required: int):
    """CNP's boolean retention mask (per-node top-``k`` votes)."""
    m = len(table)
    # Rank the edges once by (-weight, pair), then sort the incidence
    # stream's distinct ``node << bits | edge rank`` codes.
    edge_order = np.lexsort((table.a * table.num_nodes + table.b, -table.w))
    edge_position = np.empty(m, dtype=np.int64)
    edge_position[edge_order] = np.arange(m, dtype=np.int64)
    bits = (m - 1).bit_length()
    codes = _interleaved_incidence(table) << bits
    codes |= np.repeat(edge_position, 2)
    codes.sort()
    sorted_nodes = codes >> bits
    segment_starts = np.searchsorted(sorted_nodes, np.arange(table.num_nodes))
    position_in_node = np.arange(2 * m, dtype=np.int64) - segment_starts[sorted_nodes]
    kept = position_in_node < k
    votes = np.bincount(edge_order[codes[kept] & ((1 << bits) - 1)], minlength=m)
    return votes >= required


# ----------------------------------------------------------- streamed pruning
DEFAULT_CHUNK_EDGES = 65536


def retained_positions(strategy, table: EdgeWeights, index):
    """Retained edge positions of ``table``, in retention order.

    The pruning rules' one definition: the *positions* (indices into
    ``table.a/b/w``) of the retained edges — in emission (node-major
    first-touch) order for WEP/WNP/CNP, in ranked ``(-weight, pair)`` order
    for CEP.  ``strategy`` goes through :func:`~repro.metablocking.pruning.
    make_pruning_strategy`, so anything but a stock strategy (or its name)
    raises.  ``index`` is read only for the default ``k`` of CEP / CNP,
    which derive from the total block assignments ``B`` (Papadakis et al.):
    ``K = B / 2`` edges, ``k = B / |P| - 1`` per node, both at least 1.
    """
    strategy = make_pruning_strategy(strategy)
    kind = type(strategy)
    if not len(table):
        return np.empty(0, dtype=np.int64)
    if kind is WeightedEdgePruning:
        return np.flatnonzero(_wep_mask(table))
    if kind is CardinalityEdgePruning:
        k = strategy.k or max(1, int(index.node_block_count.sum()) // 2)
        return ranked_positions(table, k)
    required = 2 if strategy.reciprocal else 1
    if kind is CardinalityNodePruning:
        k = strategy.k or max(
            1, math.floor(int(index.node_block_count.sum()) / max(1, index.num_nodes)) - 1
        )
        return np.flatnonzero(_cnp_mask(table, k, required))
    return np.flatnonzero(_wnp_mask(table, required))


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


class RetainedEdges(Mapping):
    """The retained edges, ``(a, b) → weight``, read-only.

    Holds the profile-id endpoints and weights at ``positions`` of ``table``
    (in retention order) as three columns, not the table; no table, no
    edges.  The dict — the floats and the order of
    :func:`iter_retained_chunks` — is built on the first read that needs an
    edge (``len`` does not) and never pickled.
    """

    def __init__(self, table: "EdgeWeights | None" = None, positions=None) -> None:
        if table is None:
            self.a = self.b = np.empty(0, dtype=np.int64)
            self.w = np.empty(0, dtype=np.float64)
        else:
            ids = table.node_ids
            self.a, self.b, self.w = ids[table.a[positions]], ids[table.b[positions]], table.w[positions]
        self._edges: "dict | None" = None

    def as_dict(self) -> dict:
        """A new plain dict of the edges."""
        return dict(zip(zip(self.a.tolist(), self.b.tolist()), self.w.tolist()))

    def _mapping(self) -> dict:
        if self._edges is None:
            self._edges = self.as_dict()
        return self._edges

    def __len__(self) -> int:
        return len(self.w)

    def __getitem__(self, pair):
        return self._mapping()[pair]

    def __iter__(self):
        return iter(self._mapping())

    def items(self):
        return self._mapping().items()

    def items_of(self, node: int) -> list:
        """The edges with endpoint ``node``, in retention order; no dict."""
        hit = np.flatnonzero((self.a == node) | (self.b == node))
        return list(zip(zip(self.a[hit].tolist(), self.b[hit].tolist()), self.w[hit].tolist()))

    def __getstate__(self) -> dict:
        return {"a": self.a, "b": self.b, "w": self.w, "_edges": None}


def prune_edge_weights(strategy, table: EdgeWeights, index) -> dict:
    """:func:`retained_positions` materialised as the retained-edge dict."""
    return RetainedEdges(table, retained_positions(strategy, table, index)).as_dict()
