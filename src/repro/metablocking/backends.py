"""Pluggable kernel backends for the CSR meta-blocking kernel.

The CSR index (:class:`~repro.metablocking.index.CSRBlockIndex`) stores its
offset/entry/cardinality/entropy buffers as contiguous ``int64`` / ``float64``
vectors (stdlib :mod:`array` or ndarray, depending on which builder filled
them).  Two interchangeable kernels materialise node neighbourhoods and
edge weights from those buffers:

* :class:`PythonKernel` — the interpreted scratch-buffer kernel that has
  driven every path since the CSR rewrite.  Always available; zero
  dependencies.
* :class:`NumpyKernel` — a vectorised kernel that reads the same buffers
  zero-copy (ndarrays in place, anything else via ``np.frombuffer``) and
  replaces the per-block inner loops
  with gather / ``np.bincount`` / ufunc expressions.  Lazily imported and
  only selectable when numpy is importable.

Backend selection is the ``kernel_backend`` engine option
(:mod:`repro.options`): ``auto`` picks numpy when importable, python
otherwise.

**Bit-for-bit parity is the contract.**  Both kernels produce the same
neighbour order (node-major, first-touch), the same integer counts and the
same *float* aggregates to the last ulp, because the numpy kernel fixes its
accumulation order to the Python kernel's:

* arcs / entropy sums accumulate through ``np.bincount(group, weights=...)``
  whose C loop adds occurrences strictly left-to-right — the exact order the
  Python kernel's ``+=`` visits them (a stable key sort never reorders the
  occurrences *within* one (node, neighbour) group);
* per-edge weight expressions use only ``* / + max`` ufuncs whose operand
  order mirrors :func:`~repro.metablocking.weights.compute_edge_weight`
  exactly; the ``log10`` factors of ECBS / EJS depend only on one endpoint,
  so they are precomputed per *node* with ``math.log10`` (the same libm call
  the scalar path makes) and merely gathered per edge — no vectorised
  transcendental ever enters the weight;
* the WEP / WNP threshold sums run through single-target ``np.bincount``
  accumulation in weight-map insertion order, matching ``sum()`` over the
  same floats; CEP / CNP top-k selection sorts by ``(-weight, canonical
  edge rank)`` — pure comparisons, no float arithmetic at all.

The equivalence test grid asserts this parity for every weighting × pruning
× entropy × executor combination, so no tolerance is needed anywhere.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import Any

from repro.exceptions import MetaBlockingError

_numpy_checked = False
_numpy_module: Any = None


def numpy_or_none():
    """The :mod:`numpy` module, imported lazily, or ``None`` if unavailable."""
    global _numpy_checked, _numpy_module
    if not _numpy_checked:
        try:
            import numpy  # noqa: PLC0415 - optional dependency, lazy by design

            _numpy_module = numpy
        except Exception:  # pragma: no cover - exercised in the no-numpy CI leg
            _numpy_module = None
        _numpy_checked = True
    return _numpy_module


def numpy_available() -> bool:
    """True when the numpy backend can be selected."""
    return numpy_or_none() is not None


def expand_ranges(np, starts, counts):
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


def make_kernel(index) -> "PythonKernel | NumpyKernel":
    """Build the scratch kernel matching ``index.backend``."""
    if index.backend == "numpy":
        return NumpyKernel(index)
    return PythonKernel(index)


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
    degrees: Any = None  # indexable per dense node (EJS only)
    total_edges: int = 0
    log_blocks: Any = None  # ndarray, numpy backend + ECBS only
    log_degrees: Any = None  # ndarray, numpy backend + EJS only


def make_weight_plan(index, scheme, use_entropy: bool) -> WeightPlan:
    """Precompute the per-node vectors of one weighting job."""
    from repro.metablocking.weights import WeightingScheme  # import-cycle guard

    scheme = WeightingScheme.parse(scheme)
    plan = WeightPlan(
        scheme=scheme, use_entropy=use_entropy, total_blocks=index.total_blocks
    )
    if scheme is WeightingScheme.EJS:
        # Degrees resolve on a private sweep, so this is safe to run even
        # while a shared kernel holds live neighbourhood state.
        plan.degrees = index.degree_vector()
        plan.total_edges = index.num_edges()
    if index.backend != "numpy":
        return plan
    np = numpy_or_none()
    n = index.num_nodes
    if scheme is WeightingScheme.ECBS:
        total = plan.total_blocks
        counts = index.node_block_count
        log_blocks = np.zeros(n, dtype=np.float64)
        if total > 0:
            for node in range(n):
                blocks = counts[node]
                if blocks:
                    # Exactly compute_edge_weight's per-endpoint factor.
                    log_blocks[node] = math.log10(max(total / blocks, 1.0) + 1e-12)
        plan.log_blocks = log_blocks
    elif scheme is WeightingScheme.EJS:
        total_edges = plan.total_edges
        degrees = plan.degrees
        log_degrees = np.zeros(n, dtype=np.float64)
        if total_edges > 0:
            for node in range(n):
                degree = degrees[node]
                if degree:
                    log_degrees[node] = math.log10(
                        max(total_edges / degree, 1.0) + 1e-12
                    )
        plan.log_degrees = log_degrees
    return plan


# -------------------------------------------------------------- python kernel
class PythonKernel:
    """Materialise one node neighbourhood at a time into reusable buffers.

    After :meth:`neighbours` returns, the per-neighbour aggregates sit in
    ``common_blocks`` / ``arcs`` / ``entropy_sum`` indexed by dense node id;
    they stay valid until the next :meth:`neighbours` call, which resets only
    the previously touched entries.
    """

    name = "python"

    __slots__ = ("_index", "common_blocks", "arcs", "entropy_sum", "_touched")

    def __init__(self, index) -> None:
        n = index.num_nodes
        self._index = index
        self.common_blocks = [0] * n
        self.arcs = [0.0] * n
        self.entropy_sum = [0.0] * n
        self._touched: list[int] = []

    def neighbours(self, node: int) -> list[int]:
        """Fill the scratch buffers for ``node``; return its neighbour list.

        Neighbours appear in first-touch order (ascending block id, member
        order within a block) — the accumulation order is therefore identical
        no matter which code path drives the kernel, keeping float sums
        bit-for-bit reproducible.
        """
        index = self._index
        common, arcs, entropy = self.common_blocks, self.arcs, self.entropy_sum
        touched = self._touched
        for previous in touched:
            common[previous] = 0
            arcs[previous] = 0.0
            entropy[previous] = 0.0
        del touched[:]

        entries = index.node_block_entries
        block_offsets = index.block_offsets
        block_nodes = index.block_nodes
        block_split = index.block_split
        inv_cardinality = index.block_inv_cardinality
        block_entropy = index.block_entropy
        start = index.node_block_offsets[node]
        end = index.node_block_offsets[node + 1]
        for position in range(start, end):
            entry = entries[position]
            block = entry >> 1
            split = block_split[block]
            lo = block_offsets[block]
            hi = block_offsets[block + 1]
            if split >= 0:
                # Clean-clean block: neighbours are the members of the other
                # source; the entry's low bit says which side this node is on.
                if entry & 1:
                    hi = lo + split
                else:
                    lo = lo + split
            inv = inv_cardinality[block]
            block_ent = block_entropy[block]
            for other in block_nodes[lo:hi]:
                if other == node:
                    continue
                if common[other] == 0:
                    touched.append(other)
                common[other] += 1
                arcs[other] += inv
                entropy[other] += block_ent
        return touched

    # -------------------------------------------------------- edge emission
    def edge_items(self, node: int) -> list[tuple]:
        """``[(other_dense, EdgeInfo)]`` for the upper edges of ``node``.

        Only neighbours with a dense id greater than ``node`` (each edge from
        its lower endpoint, exactly once), in first-touch order; one direct
        pass over the scratch buffers.
        """
        from repro.metablocking.graph import EdgeInfo

        touched = self.neighbours(node)
        common, arcs, entropy = self.common_blocks, self.arcs, self.entropy_sum
        return [
            (other, EdgeInfo(common[other], arcs[other], entropy[other]))
            for other in touched
            if other > node
        ]

    def weighted_edges(self, node: int, plan: WeightPlan) -> list[tuple[int, float]]:
        """``[(other_dense, weight)]`` for the upper edges of ``node``.

        The one scalar per-edge loop, shared by every consumer, so there is
        exactly one reference path.
        """
        from repro.metablocking.graph import EdgeInfo
        from repro.metablocking.weights import WeightingScheme, compute_edge_weight

        index = self._index
        needs_degrees = plan.scheme is WeightingScheme.EJS
        touched = self.neighbours(node)
        block_counts = index.node_block_count
        common, arcs, entropy = self.common_blocks, self.arcs, self.entropy_sum
        blocks_node = block_counts[node]
        degrees = plan.degrees
        use_entropy = plan.use_entropy
        results: list[tuple[int, float]] = []
        for other in touched:
            if other <= node:
                continue
            info = EdgeInfo(
                common_blocks=common[other],
                arcs=arcs[other],
                entropy_sum=entropy[other],
            )
            weight = compute_edge_weight(
                plan.scheme,
                info,
                blocks_a=blocks_node,
                blocks_b=block_counts[other],
                total_blocks=plan.total_blocks,
                degree_a=degrees[node] if needs_degrees else 0,
                degree_b=degrees[other] if needs_degrees else 0,
                total_edges=plan.total_edges if needs_degrees else 0,
            )
            if use_entropy:
                weight *= info.mean_entropy
            results.append((other, weight))
        return results

    def range_weights(self, lo: int, hi: int, plan: WeightPlan) -> tuple:
        """The weighted upper edges of the dense nodes ``[lo, hi)`` as arrays.

        ``(a, b, w)`` — two ``array('q')`` of dense endpoints and an
        ``array('d')`` of weights, node-major first-touch order: the same
        records :meth:`weighted_edges` emits node by node, without a python
        tuple per edge on the wire.
        """
        a, b, w = array("q"), array("q"), array("d")
        for node in range(lo, hi):
            for other, weight in self.weighted_edges(node, plan):
                a.append(node)
                b.append(other)
                w.append(weight)
        return a, b, w

    def sweep_costs(self) -> list[int]:
        """Per dense node, the summed size of the blocks it sits in."""
        index = self._index
        offsets = index.block_offsets
        entries = index.node_block_entries
        bounds = index.node_block_offsets
        return [
            sum(
                offsets[(entry >> 1) + 1] - offsets[entry >> 1]
                for entry in entries[bounds[node] : bounds[node + 1]]
            )
            for node in range(index.num_nodes)
        ]

    def weight_arrays(self, plan: WeightPlan) -> "EdgeWeights":
        """Every edge weight of the graph as one table (stdlib arrays)."""
        n = self._index.num_nodes
        return EdgeWeights(*self.range_weights(0, n, plan), n, self._index.node_ids)

    def degrees(self) -> array:
        """Blocking-graph degree of every node (one full sweep).

        Runs on a private kernel so a caller holding live :meth:`neighbours`
        results never has its scratch buffers clobbered.
        """
        index = self._index
        sweeper = PythonKernel(index)
        degrees = array("q", bytes(8 * index.num_nodes))
        for node in range(index.num_nodes):
            degrees[node] = len(sweeper.neighbours(node))
        return degrees


# --------------------------------------------------------------- numpy kernel
@dataclass
class _Sweep:
    """One vectorised neighbourhood sweep over a set of owner nodes.

    Edges are grouped per owner (owner-major, first-touch order within each
    owner — the Python kernel's emission order exactly), *including* the
    lower-endpoint direction; consumers filter ``other > owner`` when they
    emit each edge once.  ``arcs`` / ``entropies`` are ``None`` when the
    sweep was computed for a job that does not read them (e.g. a CBS weight
    table) — :meth:`NumpyKernel.sweep` recomputes on demand.
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
    why the result is bit-for-bit identical to :class:`PythonKernel`.
    """

    name = "numpy"

    def __init__(self, index) -> None:
        np = numpy_or_none()
        if np is None:  # pragma: no cover - guarded by the kernel_backend option
            raise MetaBlockingError("NumpyKernel requires numpy")
        self._np = np
        self._index = index
        as_view = self._as_view
        self.node_block_offsets = as_view(index.node_block_offsets, np.int64)
        self.node_block_entries = as_view(index.node_block_entries, np.int64)
        self.node_block_count = as_view(index.node_block_count, np.int64)
        self.block_offsets = as_view(index.block_offsets, np.int64)
        self.block_nodes = as_view(index.block_nodes, np.int64)
        self.block_split = as_view(index.block_split, np.int64)
        self.block_inv_cardinality = as_view(index.block_inv_cardinality, np.float64)
        self.block_entropy = as_view(index.block_entropy, np.float64)
        self.node_ids = np.asarray(index.node_ids, dtype=np.int64)
        self._full_sweep: _Sweep | None = None

    def _as_view(self, buffer, dtype):
        """Zero-copy ndarray view over a stdlib array (or a ready ndarray)."""
        np = self._np
        if isinstance(buffer, np.ndarray):
            return buffer
        if len(buffer) == 0:
            return np.empty(0, dtype=dtype)
        return np.frombuffer(buffer, dtype=dtype)

    # ------------------------------------------------------------- the sweep
    def sweep(self, nodes=None, *, need_arcs: bool = True, need_entropies: bool = True) -> _Sweep:
        """Materialise the neighbourhoods of ``nodes`` (all nodes if None).

        The whole-graph sweep is computed once and cached; partition sweeps
        (worker tasks) compute only their own nodes, preserving the parallel
        path's work partitioning.  ``need_arcs`` / ``need_entropies`` let
        weight jobs skip the float aggregates their scheme never reads; a
        cached sweep missing a later-needed aggregate is recomputed.
        """
        np = self._np
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
        np = self._np
        n = self._index.num_nodes
        empty_i = np.empty(0, dtype=np.int64)
        empty_f = np.empty(0, dtype=np.float64)
        if len(nodes) == 0:
            return _Sweep(empty_i, empty_i, empty_i, empty_f, empty_f, np.zeros(1, np.int64))

        # 1. Every (node, block entry) of the swept nodes, node-major.
        entry_counts = self.node_block_offsets[nodes + 1] - self.node_block_offsets[nodes]
        entries = self.node_block_entries[
            expand_ranges(np, self.node_block_offsets[nodes], entry_counts)
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
        # in exactly the order the Python kernel's nested loop visits them.
        others = self.block_nodes[expand_ranges(np, lo, counts)]
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
        # stream adds the same floats in the same order as the scalar `+=`
        # loop visits them.
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
        # first-occurrence position == the Python kernel's emission order).
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

        A whole-neighbourhood ufunc expression per scheme; every operation
        mirrors the operand order of ``compute_edge_weight`` (see module
        docstring), so the floats come out bit-identical.
        """
        from repro.metablocking.weights import WeightingScheme

        np = self._np
        scheme = plan.scheme
        owners = sweep.owners[keep]
        others = sweep.others[keep]
        cbs = sweep.common[keep].astype(np.float64)
        if scheme is WeightingScheme.CBS:
            weights = cbs
        elif scheme is WeightingScheme.ARCS:
            weights = sweep.arcs[keep]
        elif scheme is WeightingScheme.JS:
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
        elif scheme is WeightingScheme.ECBS:
            if plan.total_blocks == 0:
                weights = np.zeros(len(cbs), dtype=np.float64)
            else:
                weights = cbs * plan.log_blocks[owners] * plan.log_blocks[others]
        elif scheme is WeightingScheme.EJS:
            blocks_sum = (
                self.node_block_count[owners] + self.node_block_count[others]
            ).astype(np.float64)
            denominator = blocks_sum - cbs
            js = np.divide(
                cbs,
                denominator,
                out=np.zeros(len(cbs), dtype=np.float64),
                where=denominator > 0,
            )
            if plan.total_edges == 0:
                weights = js
            else:
                degrees = self._as_view(plan.degrees, np.int64)
                scaled = js * plan.log_degrees[owners] * plan.log_degrees[others]
                applies = (degrees[owners] > 0) & (degrees[others] > 0)
                weights = np.where(applies, scaled, js)
        else:  # pragma: no cover - the enum is closed
            raise MetaBlockingError(f"unsupported weighting scheme: {scheme}")
        if plan.use_entropy:
            # weight * mean entropy, the exact scalar expression
            # (entropy_sum / common_blocks applied after the base weight).
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

    def edge_items(self, node: int) -> list[tuple]:
        """``[(other_dense, EdgeInfo)]`` for the upper edges of ``node``."""
        from repro.metablocking.graph import EdgeInfo

        sweep = self.sweep()
        start, end = sweep.segment(node)
        keep = sweep.others[start:end] > node
        return list(
            zip(
                sweep.others[start:end][keep].tolist(),
                map(
                    EdgeInfo,
                    sweep.common[start:end][keep].tolist(),
                    sweep.arcs[start:end][keep].tolist(),
                    sweep.entropies[start:end][keep].tolist(),
                ),
            )
        )

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
        return self._upper_edges(self._plan_sweep(plan, self._np.arange(lo, hi)), plan)

    def sweep_costs(self) -> list[int]:
        """Per dense node, the summed size of the blocks it sits in.

        What a partial sweep over the node gathers before grouping — read
        off the offset arrays, no neighbourhood is materialised.
        """
        np = self._np
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

    def degrees(self) -> array:
        """Blocking-graph degree of every node, from the (cached) full sweep.

        Only the edge structure is needed, so a cold cache computes the
        cheap aggregate-free sweep.
        """
        np = self._np
        sweep = self.sweep(need_arcs=False, need_entropies=False)
        counts = np.bincount(sweep.owners, minlength=self._index.num_nodes)
        return array("q", counts.tolist())


# ------------------------------------------------------- vectorised pruning
@dataclass
class EdgeWeights:
    """Every edge of the blocking graph as aligned dense arrays.

    ``a`` / ``b`` / ``w`` are the dense endpoints and the weight of each edge
    in emission (node-major first-touch) order — ndarrays under the numpy
    kernel, stdlib arrays under the python kernel — and ``node_ids`` maps
    dense ids back to profile ids.  Pair tuples are only materialised for
    what a consumer asks for: the retained edges, chunk by chunk
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
        if isinstance(ids, list):  # python kernel: stdlib arrays, plain id list
            pairs = zip(map(ids.__getitem__, self.a), map(ids.__getitem__, self.b))
            return dict(zip(pairs, self.w))
        return dict(
            zip(zip(ids[self.a].tolist(), ids[self.b].tolist()), self.w.tolist())
        )

    def canonical_rank(self):
        """Position of each edge in canonical (sorted-pair) order.

        Ordering by ``(-weight, rank)`` therefore equals the scalar paths'
        ``(-weight, pair)`` tie-break exactly.  Cached: CEP and CNP both
        consume it.
        """
        if self._canonical_rank is None:
            np = numpy_or_none()
            # Pairs are distinct, so one sort of the composite key is the
            # (a, b) lexicographic order (~9x faster than a two-key lexsort).
            order = np.argsort(self.a * self.num_nodes + self.b, kind="stable")
            rank = np.empty(len(self.a), dtype=np.int64)
            rank[order] = np.arange(len(self.a), dtype=np.int64)
            self._canonical_rank = rank
        return self._canonical_rank


def _sequential_sum(np, values):
    """Left-to-right float sum, bit-identical to ``sum()`` over the same list.

    ``np.sum`` uses pairwise summation (different rounding); a single-bin
    weighted ``np.bincount`` accumulates strictly in order instead.
    """
    if len(values) == 0:
        return 0.0
    return float(
        np.bincount(np.zeros(len(values), dtype=np.int64), weights=values, minlength=1)[0]
    )


def _wep_mask(np, table: EdgeWeights):
    """WEP's boolean retention mask: at or above the global mean weight."""
    threshold = _sequential_sum(np, table.w) / len(table)
    return table.w >= threshold


def ranked_positions(np, table: EdgeWeights, k: int):
    """The top-``k`` edge positions in ranked ``(-weight, pair)`` order.

    CEP's retention, and with ``k = len(table)`` progressive global sorting.
    """
    return np.lexsort((table.canonical_rank(), -table.w))[:k]


def _interleaved_incidence(np, table: EdgeWeights):
    """The per-node incidence stream in scalar append order.

    The scalar paths append each edge to ``incidence[a]`` then
    ``incidence[b]`` while scanning the weight map; the interleaved
    ``a0, b0, a1, b1, …`` stream reproduces each node's subsequence — and
    therefore every per-node float accumulation order — exactly.
    """
    m = len(table)
    nodes = np.empty(2 * m, dtype=np.int64)
    nodes[0::2] = table.a
    nodes[1::2] = table.b
    return nodes


def _wnp_mask(np, table: EdgeWeights, required: int):
    """WNP's boolean retention mask (per-node mean threshold votes)."""
    nodes = _interleaved_incidence(np, table)
    occurrence_w = np.repeat(table.w, 2)
    sums = np.bincount(nodes, weights=occurrence_w, minlength=table.num_nodes)
    counts = np.bincount(nodes, minlength=table.num_nodes)
    thresholds = sums / np.maximum(counts, 1)
    votes = (table.w >= thresholds[table.a]).astype(np.int64)
    votes += table.w >= thresholds[table.b]
    return votes >= required


def _cnp_mask(np, table: EdgeWeights, k: int, required: int):
    """CNP's boolean retention mask (per-node top-``k`` votes)."""
    m = len(table)
    # Rank the edges once by (-weight, canonical pair order), then sort the
    # interleaved incidence stream by a single (node, edge position) integer
    # key — stable radix sort, no float arithmetic, exact tie-breaks.
    edge_order = np.lexsort((table.canonical_rank(), -table.w))
    edge_position = np.empty(m, dtype=np.int64)
    edge_position[edge_order] = np.arange(m, dtype=np.int64)
    nodes = _interleaved_incidence(np, table)
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
    node_thresholds``), and the fast paths must never silently replace
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

    The one vectorised retention definition: the *positions* (indices into
    ``table.a/b/w``) of the retained edges, in the order the scalar
    strategies insert them into their result dict — emission (node-major
    first-touch) order for WEP/WNP/CNP, ranked ``(-weight, pair)`` order for
    CEP.  Returns ``None`` for custom strategy subclasses (the caller falls
    back to the scalar ``prune``).  Default ``k`` derivations delegate to the
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

    np = numpy_or_none()
    if not supports_strategy(strategy):
        return None
    if not len(table):
        return np.empty(0, dtype=np.int64)
    if type(strategy) is WeightedEdgePruning:
        return np.flatnonzero(_wep_mask(np, table))
    if type(strategy) is CardinalityEdgePruning:
        k = strategy.k
        if k is None:
            k = default_cep_k(int(sum(index.node_block_count)))
        return ranked_positions(np, table, k)
    if isinstance(strategy, CardinalityNodePruning):
        k = strategy.k
        if k is None:
            k = default_cnp_k(int(sum(index.node_block_count)), index.num_nodes)
        return np.flatnonzero(_cnp_mask(np, table, k, 2 if strategy.reciprocal else 1))
    return np.flatnonzero(_wnp_mask(np, table, 2 if strategy.reciprocal else 1))


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

    On the numpy kernel a stock strategy retains through the array tail —
    ``positions`` set, ``retained`` ``None``.  The python kernel and custom
    strategies run the scalar ``strategy.prune`` over the full weight dict —
    ``positions`` ``None``, ``retained`` the dict.  Shared by the range-pool
    job and the service's delta refresh.
    """
    if index.backend == "numpy":
        positions = retained_positions(strategy, table, index)
        if positions is not None:
            return positions, None
    from repro.metablocking.pruning import IndexStats  # import-cycle guard

    return None, strategy.prune(IndexStats(index), table.to_mapping())


def iter_dict_chunks(retained: dict, chunk_edges: int = DEFAULT_CHUNK_EDGES):
    """Slice an already-built retained dict into ``items()`` chunks.

    The streaming fallback of the scalar pruning paths (python kernel,
    custom strategies): correct, but the dict is O(retained) by then.
    """
    if chunk_edges <= 0:
        raise MetaBlockingError("chunk_edges must be positive")
    items = list(retained.items())
    for start in range(0, len(items), chunk_edges):
        yield items[start : start + chunk_edges]
