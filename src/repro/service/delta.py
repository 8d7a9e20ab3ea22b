"""Neighbourhood-local incremental meta-blocking.

The batch meta-blocker re-weights and re-prunes the whole blocking graph per
run.  After an append, though, almost nothing changed: appends only ever *add*
block members, so

* a new edge has **both** endpoints among the touched profiles (both sit in a
  touched block);
* an existing edge's weight can change only when an endpoint is touched (the
  shared-block aggregates and the per-endpoint block counts of untouched
  profiles are untouched);
* a node's pruning statistics (WNP mean threshold, CNP top-k set) can change
  only when an incident edge did — i.e. for touched profiles and their
  current neighbours.

:class:`DeltaMetaBlocker` exploits exactly that: it keeps the weighted
adjacency and the per-node pruning state between refreshes, re-sweeps only
the touched nodes through the index's kernel backend
(:meth:`~repro.metablocking.backends.PythonKernel.weighted_neighbourhoods`),
and re-evaluates retention only for edges incident to the affected
neighbourhood.  The retained-edge mapping is maintained **bit-for-bit equal**
to a from-scratch :class:`~repro.metablocking.metablocker.MetaBlocker` run on
the union collection:

* weights of the endpoint-symmetric schemes (CBS, JS, ARCS, optionally
  entropy-scaled) are exact from either endpoint's sweep — the aggregates
  accumulate over the same shared blocks in the same ascending-block order,
  and the remaining arithmetic is commutative-exact;
* WNP thresholds are float sums in the canonical incidence order (edges from
  lower-id neighbours in ascending order, then the node's own emissions in
  first-touch order — exactly the order the batch path's weight-map scan
  appends them), so the recomputed mean is the same float;
* CNP top-k sets are pure ``(-weight, pair)`` sorts — no float accumulation
  at all.

Global schemes (ECBS, EJS — their factors depend on every node) and global
prunings (WEP's global mean, CEP's global top-K) cannot be localised without
approximation, so those configurations transparently fall back to a full
recompute through the same kernel paths (``last_mode`` reports which route a
refresh took).  Every supported (kernel backend × buffer backend) combination
works unchanged — the delta path only talks to the kernel API.
"""

from __future__ import annotations

from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.pruning import (
    CardinalityNodePruning,
    IndexStats,
    PruningStrategy,
    ReciprocalWeightedNodePruning,
    WeightedNodePruning,
    default_cnp_k,
    make_pruning_strategy,
)
from repro.metablocking.weights import WeightingScheme

#: Schemes whose edge weight is bit-identical computed from either endpoint.
LOCAL_SCHEMES = (
    WeightingScheme.CBS,
    WeightingScheme.JS,
    WeightingScheme.ARCS,
)

#: Stock per-node pruning strategies the local path reproduces exactly.
_LOCAL_PRUNINGS = (
    WeightedNodePruning,
    ReciprocalWeightedNodePruning,
    CardinalityNodePruning,
)


class DeltaMetaBlocker:
    """Maintain the retained candidate edges of a growing index.

    Parameters mirror :class:`~repro.metablocking.metablocker.MetaBlocker`
    (weighting scheme, pruning strategy, entropy flag); the kernel and buffer
    backends are whatever the refreshed index was built with.

    Call :meth:`refresh` with the current (compacted) index and the profile
    ids touched since the previous refresh; read :attr:`retained` afterwards.
    The first refresh always primes with a full recompute.
    """

    def __init__(
        self,
        weighting: "str | WeightingScheme" = WeightingScheme.CBS,
        pruning: "str | PruningStrategy" = "wnp",
        *,
        use_entropy: bool = False,
    ) -> None:
        self.weighting = WeightingScheme.parse(weighting)
        self.pruning = make_pruning_strategy(pruning)
        self.use_entropy = use_entropy
        # type() (not isinstance) deliberately: a custom subclass may
        # override any hook and the local path must not replicate stock
        # behaviour in its place — same rule as the vectorised dispatch.
        self._local_capable = self.weighting in LOCAL_SCHEMES and type(
            self.pruning
        ) in _LOCAL_PRUNINGS
        # pair -> weight, == the batch meta-blocker's retained_edges.
        self.retained: dict[tuple[int, int], float] = {}
        # profile id -> {neighbour profile id -> weight}, both directions.
        self._adj: dict[int, dict[int, float]] = {}
        # profile id -> its upper neighbours in first-touch emission order
        # (the order its own threshold contributions accumulate in).
        self._upper_order: dict[int, list[int]] = {}
        self._thresholds: dict[int, float] = {}
        self._kept: dict[int, set[tuple[int, int]]] = {}
        self._k: "int | None" = None
        self._primed = False
        self.refreshes = 0
        self.full_refreshes = 0
        self.local_refreshes = 0
        self.last_mode: "str | None" = None
        self.last_affected = 0
        self.last_reweighed = 0

    # ---------------------------------------------------------------- public
    @property
    def local_capable(self) -> bool:
        """True when this configuration can refresh neighbourhood-locally."""
        return self._local_capable

    def refresh(
        self,
        index: CSRBlockIndex,
        touched_profile_ids=None,
    ) -> dict[tuple[int, int], float]:
        """Bring :attr:`retained` up to date with ``index``.

        ``touched_profile_ids`` is the union of
        :attr:`~repro.metablocking.index.AppendDelta.touched_profile_ids`
        over every append since the last refresh; ``None`` forces a full
        recompute (as does the first call, a global scheme/pruning, or a
        CNP default-k change).  Returns :attr:`retained`.
        """
        self.refreshes += 1
        if not self._primed or not self._local_capable or touched_profile_ids is None:
            return self._refresh_full(index)
        node_of = index.node_of
        touched = sorted(
            pid for pid in touched_profile_ids if pid in node_of
        )
        if isinstance(self.pruning, CardinalityNodePruning):
            if self._resolve_cnp_k(index) != self._k:
                # The default k moved with the append — every node's top-k
                # may change, so localising would be wrong, not just slow.
                return self._refresh_full(index)
        if not touched:
            # Appends that created no comparison-inducing block (or an empty
            # batch): the blocking graph is unchanged.
            self.local_refreshes += 1
            self.last_mode = "local"
            self.last_affected = 0
            self.last_reweighed = 0
            return self.retained
        return self._refresh_local(index, touched)

    def candidates_of(self, profile_id: int) -> list[tuple[tuple[int, int], float]]:
        """The retained edges incident to one profile, best first."""
        incident = [
            (pair, weight)
            for pair, weight in self.retained.items()
            if profile_id in pair
        ]
        incident.sort(key=lambda item: (-item[1], item[0]))
        return incident

    def stats(self) -> dict:
        """Counters for the service /metrics endpoint."""
        return {
            "weighting": self.weighting.value,
            "pruning": type(self.pruning).__name__,
            "local_capable": self._local_capable,
            "refreshes": self.refreshes,
            "full_refreshes": self.full_refreshes,
            "local_refreshes": self.local_refreshes,
            "last_mode": self.last_mode,
            "last_affected_nodes": self.last_affected,
            "last_reweighed_nodes": self.last_reweighed,
            "retained_edges": len(self.retained),
        }

    # ------------------------------------------------------------- full path
    def _resolve_cnp_k(self, index: CSRBlockIndex) -> int:
        explicit = self.pruning.k
        if explicit is not None:
            return explicit
        return default_cnp_k(int(sum(index.node_block_count)), index.num_nodes)

    def _refresh_full(self, index: CSRBlockIndex) -> dict[tuple[int, int], float]:
        """Recompute everything through the canonical kernel emission."""
        self.full_refreshes += 1
        self.last_mode = "full"
        self.last_affected = index.num_nodes
        self.last_reweighed = index.num_nodes
        plan = index.weight_plan(self.weighting, self.use_entropy)
        per_node = index.kernel().weighted_edges_by_node(plan)
        weights: dict[tuple[int, int], float] = {}
        adj: dict[int, dict[int, float]] = {}
        upper_order: dict[int, list[int]] = {}
        for edges in per_node:
            for pair, weight in edges:
                a, b = pair
                weights[pair] = weight
                if self._local_capable:
                    adj.setdefault(a, {})[b] = weight
                    adj.setdefault(b, {})[a] = weight
                    upper_order.setdefault(a, []).append(b)
        self._adj = adj
        self._upper_order = upper_order
        self._thresholds = {}
        self._kept = {}
        self._k = None
        if self._local_capable:
            if isinstance(self.pruning, CardinalityNodePruning):
                self._k = self._resolve_cnp_k(index)
                incidence = PruningStrategy._node_incidence(weights)
                self._kept = {
                    node: {
                        pair
                        for pair, _w in sorted(
                            edges, key=lambda item: (-item[1], item[0])
                        )[: self._k]
                    }
                    for node, edges in incidence.items()
                }
            else:
                self._thresholds = self.pruning.node_thresholds(weights)
        self.retained = self.pruning.prune(IndexStats(index), weights)
        self._primed = True
        return self.retained

    # ------------------------------------------------------------ local path
    def _refresh_local(
        self, index: CSRBlockIndex, touched: list[int]
    ) -> dict[tuple[int, int], float]:
        """Re-weight the touched neighbourhood; re-prune only around it."""
        self.local_refreshes += 1
        self.last_mode = "local"
        self.last_reweighed = len(touched)
        node_of = index.node_of
        ids = index.node_ids
        # ``touched`` is ascending in profile-id order and dense ids are
        # order-isomorphic to profile ids, so the dense list is ascending
        # too (the numpy partial sweep requires that).
        dense = [node_of[pid] for pid in touched]
        plan = index.weight_plan(self.weighting, self.use_entropy)
        per_node = index.kernel().weighted_neighbourhoods(dense, plan)

        affected: set[int] = set(touched)
        for pid, edges in zip(touched, per_node):
            mine = self._adj.setdefault(pid, {})
            upper: list[int] = []
            for other_dense, weight in edges:
                other = ids[other_dense]
                mine[other] = weight
                self._adj.setdefault(other, {})[pid] = weight
                if other > pid:
                    upper.append(other)
                affected.add(other)
            self._upper_order[pid] = upper

        if isinstance(self.pruning, CardinalityNodePruning):
            self._update_kept(affected)
        else:
            self._update_thresholds(affected)

        # Re-evaluate retention for every edge incident to the affected
        # neighbourhood; all other edges kept their weight and both their
        # endpoints' pruning statistics, so their verdict stands.
        pairs: set[tuple[int, int]] = set()
        for node in affected:
            for other in self._adj.get(node, ()):  # noqa: B020 - dict iteration
                pairs.add((node, other) if node < other else (other, node))
        reciprocal = getattr(self.pruning, "reciprocal", False)
        if isinstance(self.pruning, CardinalityNodePruning):
            kept = self._kept
            for pair in pairs:
                a, b = pair
                in_a = pair in kept.get(a, ())
                in_b = pair in kept.get(b, ())
                keep = (in_a and in_b) if reciprocal else (in_a or in_b)
                if keep:
                    self.retained[pair] = self._adj[a][b]
                else:
                    self.retained.pop(pair, None)
        else:
            thresholds = self._thresholds
            for pair in pairs:
                a, b = pair
                weight = self._adj[a][b]
                keep_a = weight >= thresholds.get(a, 0.0)
                keep_b = weight >= thresholds.get(b, 0.0)
                keep = (keep_a and keep_b) if reciprocal else (keep_a or keep_b)
                if keep:
                    self.retained[pair] = weight
                else:
                    self.retained.pop(pair, None)
        self.last_affected = len(affected)
        return self.retained

    def _incidence_of(self, node: int) -> list[tuple[tuple[int, int], float]]:
        """``[(pair, weight)]`` of one node in canonical incidence order.

        The batch path appends a node's incident edges while scanning the
        weight map in emission (node-major) order: first the edges owned by
        lower-id neighbours (ascending), then the node's own upper emissions
        in first-touch order.  Threshold float sums must accumulate in
        exactly that order to stay bit-identical.
        """
        adjacency = self._adj.get(node)
        if not adjacency:
            return []
        incidence: list[tuple[tuple[int, int], float]] = []
        for other in sorted(u for u in adjacency if u < node):
            incidence.append(((other, node), adjacency[other]))
        for other in self._upper_order.get(node, ()):
            incidence.append(((node, other), adjacency[other]))
        return incidence

    def _update_thresholds(self, affected: set[int]) -> None:
        for node in affected:
            incidence = self._incidence_of(node)
            if incidence:
                self._thresholds[node] = sum(
                    weight for _pair, weight in incidence
                ) / len(incidence)

    def _update_kept(self, affected: set[int]) -> None:
        k = self._k if self._k is not None else 0
        for node in affected:
            incidence = self._incidence_of(node)
            if incidence:
                ranked = sorted(incidence, key=lambda item: (-item[1], item[0]))
                self._kept[node] = {pair for pair, _w in ranked[:k]}
