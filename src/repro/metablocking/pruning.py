"""Pruning strategies for meta-blocking.

Given the weighted blocking graph, a pruning strategy decides which edges
(candidate comparisons) to retain:

* **WEP** — Weighted Edge Pruning: keep edges whose weight is at least the
  global average edge weight (this is the rule of the paper's Figure 1(c)).
* **CEP** — Cardinality Edge Pruning: keep the globally top-K edges, with
  ``K = sum_p |blocks(p)| / 2`` by default.
* **WNP** — Weighted Node Pruning: for every node keep the incident edges
  whose weight is at least that node's local average; an edge survives if it
  is retained by *either* endpoint (OR semantics).
* **Reciprocal WNP** — as WNP but an edge survives only if *both* endpoints
  retain it (AND semantics) — BLAST's pruning rule.
* **CNP** — Cardinality Node Pruning: every node keeps its top-k incident
  edges, ``k = B/|P| - 1`` blocks-per-profile based by default; OR semantics.

Stock strategies run as array expressions over the kernel's edge table
(:func:`~repro.metablocking.backends.retained_positions`).  The ``prune``
methods below are the same rules over a weight dict: what a subclass
inherits or overrides.  ``prune`` receives :class:`IndexStats` (node-level
statistics for the default ``k``) plus the ``(a, b) → weight`` mapping and
returns the retained pairs with their weights.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import defaultdict

from repro.exceptions import MetaBlockingError
from repro.metablocking.index import CSRBlockIndex


def default_cep_k(total_assignments: int) -> int:
    """CEP's default K: half the total block assignments (Papadakis et al.).

    The single definition shared by the dict-based ``prune`` and the array
    rules — the two must retain the same edge set, so the formula must not
    fork.
    """
    return max(1, total_assignments // 2)


def default_cnp_k(total_assignments: int, num_profiles: int) -> int:
    """CNP's default per-node k: blocks-per-profile minus one (same sharing)."""
    return max(1, math.floor(total_assignments / max(1, num_profiles)) - 1)


class IndexStats:
    """The node-level statistics a strategy's ``prune`` receives.

    The stock strategies read only ``blocks_per_profile`` (CEP / CNP default
    k) and ``num_nodes`` (CNP default k); both derive directly from the CSR
    index.  Every driver hands a custom strategy this object.
    """

    __slots__ = ("blocks_per_profile", "num_nodes")

    def __init__(self, index: CSRBlockIndex) -> None:
        ids = index.node_ids
        counts = index.node_block_count
        self.blocks_per_profile = {
            int(ids[dense]): int(counts[dense]) for dense in range(index.num_nodes)
        }
        self.num_nodes = index.num_nodes


class PruningStrategy(ABC):
    """Base class of pruning strategies."""

    @abstractmethod
    def prune(
        self,
        stats: IndexStats,
        weights: dict[tuple[int, int], float],
    ) -> dict[tuple[int, int], float]:
        """Return the retained edges (pair → weight)."""

    def __call__(
        self, stats: IndexStats, weights: dict[tuple[int, int], float]
    ) -> dict[tuple[int, int], float]:
        return self.prune(stats, weights)

    # ---------------------------------------------------------------- helpers
    @staticmethod
    def _node_incidence(
        weights: dict[tuple[int, int], float]
    ) -> dict[int, list[tuple[tuple[int, int], float]]]:
        """Group the weighted edges by incident node."""
        incidence: dict[int, list[tuple[tuple[int, int], float]]] = defaultdict(list)
        for pair, weight in weights.items():
            a, b = pair
            incidence[a].append((pair, weight))
            incidence[b].append((pair, weight))
        return incidence


class WeightedEdgePruning(PruningStrategy):
    """WEP: keep edges with weight >= the global mean edge weight."""

    def prune(
        self, stats: IndexStats, weights: dict[tuple[int, int], float]
    ) -> dict[tuple[int, int], float]:
        if not weights:
            return {}
        threshold = sum(weights.values()) / len(weights)
        return {pair: w for pair, w in weights.items() if w >= threshold}


class CardinalityEdgePruning(PruningStrategy):
    """CEP: keep the globally top-K edges.

    Parameters
    ----------
    k:
        Number of edges to keep; when ``None`` it defaults to half the total
        block assignments (sum of blocks per profile / 2), following
        Papadakis et al.
    """

    def __init__(self, k: int | None = None) -> None:
        if k is not None and k <= 0:
            raise MetaBlockingError("k must be positive when given")
        self.k = k

    def prune(
        self, stats: IndexStats, weights: dict[tuple[int, int], float]
    ) -> dict[tuple[int, int], float]:
        if not weights:
            return {}
        k = self.k
        if k is None:
            k = default_cep_k(sum(stats.blocks_per_profile.values()))
        ranked = sorted(weights.items(), key=lambda item: (-item[1], item[0]))
        return dict(ranked[:k])


class WeightedNodePruning(PruningStrategy):
    """WNP: per-node average threshold, edge retained if either endpoint keeps it."""

    def __init__(self, *, reciprocal: bool = False) -> None:
        self.reciprocal = reciprocal

    def node_thresholds(
        self, weights: dict[tuple[int, int], float]
    ) -> dict[int, float]:
        """Average incident edge weight of every node."""
        incidence = self._node_incidence(weights)
        return {
            node: (sum(w for _pair, w in edges) / len(edges)) if edges else 0.0
            for node, edges in incidence.items()
        }

    def prune(
        self, stats: IndexStats, weights: dict[tuple[int, int], float]
    ) -> dict[tuple[int, int], float]:
        if not weights:
            return {}
        thresholds = self.node_thresholds(weights)
        retained: dict[tuple[int, int], float] = {}
        for pair, weight in weights.items():
            a, b = pair
            keep_a = weight >= thresholds.get(a, 0.0)
            keep_b = weight >= thresholds.get(b, 0.0)
            keep = (keep_a and keep_b) if self.reciprocal else (keep_a or keep_b)
            if keep:
                retained[pair] = weight
        return retained


class ReciprocalWeightedNodePruning(WeightedNodePruning):
    """Reciprocal WNP (BLAST): both endpoints must retain the edge."""

    def __init__(self) -> None:
        super().__init__(reciprocal=True)


class CardinalityNodePruning(PruningStrategy):
    """CNP: every node keeps its top-k incident edges (OR semantics).

    Parameters
    ----------
    k:
        Edges each node retains; ``None`` uses ``max(1, B/|P| - 1)`` where B is
        the total number of block assignments and |P| the number of profiles.
    reciprocal:
        When True an edge must be in the top-k of both endpoints (AND).
    """

    def __init__(self, k: int | None = None, *, reciprocal: bool = False) -> None:
        if k is not None and k <= 0:
            raise MetaBlockingError("k must be positive when given")
        self.k = k
        self.reciprocal = reciprocal

    def prune(
        self, stats: IndexStats, weights: dict[tuple[int, int], float]
    ) -> dict[tuple[int, int], float]:
        if not weights:
            return {}
        k = self.k
        if k is None:
            k = default_cnp_k(
                sum(stats.blocks_per_profile.values()), stats.num_nodes
            )

        incidence = self._node_incidence(weights)
        kept_by_node: dict[int, set[tuple[int, int]]] = {}
        for node, edges in incidence.items():
            ranked = sorted(edges, key=lambda item: (-item[1], item[0]))
            kept_by_node[node] = {pair for pair, _w in ranked[:k]}

        retained: dict[tuple[int, int], float] = {}
        for pair, weight in weights.items():
            a, b = pair
            in_a = pair in kept_by_node.get(a, ())
            in_b = pair in kept_by_node.get(b, ())
            keep = (in_a and in_b) if self.reciprocal else (in_a or in_b)
            if keep:
                retained[pair] = weight
        return retained


_PRUNING_ALIASES = {
    "wep": lambda: WeightedEdgePruning(),
    "cep": lambda: CardinalityEdgePruning(),
    "wnp": lambda: WeightedNodePruning(),
    "rwnp": lambda: ReciprocalWeightedNodePruning(),
    "reciprocal_wnp": lambda: ReciprocalWeightedNodePruning(),
    "cnp": lambda: CardinalityNodePruning(),
}


def make_pruning_strategy(name: "str | PruningStrategy") -> PruningStrategy:
    """Build a pruning strategy from its short name (wep, cep, wnp, rwnp, cnp)."""
    if isinstance(name, PruningStrategy):
        return name
    try:
        return _PRUNING_ALIASES[name.lower()]()
    except KeyError as exc:
        valid = ", ".join(sorted(_PRUNING_ALIASES))
        raise MetaBlockingError(
            f"unknown pruning strategy {name!r}; valid strategies: {valid}"
        ) from exc
