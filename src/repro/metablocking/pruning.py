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

The classes below only carry a rule's parameters (``k``, ``reciprocal``);
the rules themselves are array expressions over the kernel's edge table,
dispatched on the exact class by
:func:`~repro.metablocking.backends.retained_positions`.  The five classes
are closed: :func:`make_pruning_strategy` refuses a subclass, whose
overrides no rule would honour.
"""

from __future__ import annotations

from repro.exceptions import MetaBlockingError


class PruningStrategy:
    """Base class of the pruning strategies."""


class WeightedEdgePruning(PruningStrategy):
    """WEP: keep edges with weight >= the global mean edge weight."""


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


class WeightedNodePruning(PruningStrategy):
    """WNP: per-node average threshold, edge retained if either endpoint keeps it."""

    def __init__(self, *, reciprocal: bool = False) -> None:
        self.reciprocal = reciprocal


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


_PRUNING_ALIASES = {
    "wep": WeightedEdgePruning,
    "cep": CardinalityEdgePruning,
    "wnp": WeightedNodePruning,
    "rwnp": ReciprocalWeightedNodePruning,
    "reciprocal_wnp": ReciprocalWeightedNodePruning,
    "cnp": CardinalityNodePruning,
}

#: The strategy classes a rule exists for.
STOCK_STRATEGIES = tuple(dict.fromkeys(_PRUNING_ALIASES.values()))


def make_pruning_strategy(name: "str | PruningStrategy") -> PruningStrategy:
    """The strategy of a short name (wep, cep, wnp, rwnp, cnp), or ``name``
    itself when it is an instance of one of the five stock classes.

    Anything else — a subclass included — is a :class:`MetaBlockingError`.
    """
    if type(name) in STOCK_STRATEGIES:
        return name
    if isinstance(name, str) and name.lower() in _PRUNING_ALIASES:
        return _PRUNING_ALIASES[name.lower()]()
    raise MetaBlockingError(
        f"unknown pruning strategy {name!r}; valid strategies: "
        f"{', '.join(sorted(_PRUNING_ALIASES))} or an instance of "
        f"{', '.join(cls.__name__ for cls in STOCK_STRATEGIES)}"
    )
