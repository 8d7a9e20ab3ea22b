"""Retained candidate edges of a growing index, recomputed per compaction.

The service's blocking graph only changes when its
:class:`~repro.metablocking.index.IncrementalBlockIndex` compacts, so
:class:`DeltaMetaBlocker` keeps the retained-edge map of the last compacted
index and recomputes it — whole — when the compaction count moves.  The
recompute is the batch meta-blocker's own array path: the kernel weighs the
graph into an :class:`~repro.metablocking.backends.EdgeWeights` table
(``index.kernel().weight_arrays(plan)``) and the shared retention tail
(:func:`~repro.metablocking.backends.retain_edges`) prunes it, so the map is
bit-for-bit — values *and* order — what a fresh
:class:`~repro.metablocking.metablocker.MetaBlocker` run on the union
collection returns, for every weighting scheme and pruning strategy.

A full recompute beats re-weighing a neighbourhood: appends land in common
token blocks, so on real traffic they touch most nodes anyway, and the array
sweep plus tail costs milliseconds where the per-node dict bookkeeping it
replaces cost a quarter of a second.  The kernel caches its full sweep per
index, so a ranked ``matches`` query on the same compaction reuses it.
"""

from __future__ import annotations

from repro.metablocking import backends as _backends
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.pruning import PruningStrategy, make_pruning_strategy
from repro.metablocking.weights import WeightingScheme

#: Attributes a snapshot keeps — configuration and O(1) counters.  The
#: retained map is O(edges) and recomputed on the first refresh instead.
_PICKLED = (
    "weighting",
    "pruning",
    "use_entropy",
    "refreshes",
    "full_refreshes",
    "local_refreshes",
    "last_mode",
)


class DeltaMetaBlocker:
    """Maintain the retained candidate edges of a growing index.

    Parameters mirror :class:`~repro.metablocking.metablocker.MetaBlocker`
    (weighting scheme, pruning strategy, entropy flag); the buffer backend is
    whatever the refreshed index was built with.

    Call :meth:`refresh` with the current compacted index and its compaction
    count; read :attr:`retained` afterwards.
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
        # pair -> weight, == the batch meta-blocker's retained_edges.
        self.retained: dict[tuple[int, int], float] = {}
        # Compaction count the retained map was computed at (None: never).
        self._compactions: "int | None" = None
        self.refreshes = 0
        self.full_refreshes = 0
        self.local_refreshes = 0
        self.last_mode: "str | None" = None

    def refresh(
        self, index: CSRBlockIndex, compactions: "int | None" = None
    ) -> dict[tuple[int, int], float]:
        """Bring :attr:`retained` up to date with ``index``; return it.

        ``compactions`` is the owning index's
        :attr:`~repro.metablocking.index.IncrementalBlockIndex.compactions`
        count when ``index`` was built.  The same count as the previous
        refresh means the same graph: nothing is recomputed and
        :attr:`last_mode` reads ``"local"``.  Any other count — or ``None``
        — recomputes the whole map (``"full"``).
        """
        self.refreshes += 1
        if compactions is not None and compactions == self._compactions:
            self.local_refreshes += 1
            self.last_mode = "local"
            return self.retained
        plan = index.weight_plan(self.weighting, self.use_entropy)
        table = index.kernel().weight_arrays(plan)
        positions, retained = _backends.retain_edges(self.pruning, table, index)
        if positions is not None:
            retained = _backends.retained_dict(table, positions)
        self.retained = retained
        self._compactions = compactions
        self.full_refreshes += 1
        self.last_mode = "full"
        return self.retained

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
            "refreshes": self.refreshes,
            "full_refreshes": self.full_refreshes,
            "local_refreshes": self.local_refreshes,
            "last_mode": self.last_mode,
            "retained_edges": len(self.retained),
        }

    # -------------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in _PICKLED}

    def __setstate__(self, state: dict) -> None:
        """Restore configuration and counters; force one recompute.

        Snapshots written before the array path also carry the dict-of-dicts
        state of the neighbourhood-local refresh (``_adj``, ``_upper_order``,
        ``_thresholds``, ``_kept``, ``_primed``, ...) and the retained map;
        all of it is dropped here.
        """
        for name in _PICKLED:
            setattr(self, name, state[name])
        self.retained = {}
        self._compactions = None
