"""Union-find: a disjoint-set forest over hashable items.

Merge-center clustering and attribute partitioning merge sets with it;
connected-components clustering labels its components with arrays instead
(:mod:`repro.clustering.connected_components`).
"""

from __future__ import annotations

from collections.abc import Hashable


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    def __init__(self) -> None:
        self._parent: dict[Hashable, Hashable] = {}
        self._size: dict[Hashable, int] = {}

    def add(self, item: Hashable) -> None:
        """Register ``item`` as a singleton set if unseen."""
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def find(self, item: Hashable) -> Hashable:
        """Return the representative of ``item``'s set (adds it if unseen)."""
        self.add(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: Hashable, b: Hashable) -> None:
        """Merge the sets containing ``a`` and ``b``."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]

    def components(self) -> dict[Hashable, list[Hashable]]:
        """Return representative → members mapping."""
        groups: dict[Hashable, list[Hashable]] = {}
        for item in self._parent:
            groups.setdefault(self.find(item), []).append(item)
        return groups

    def __contains__(self, item: Hashable) -> bool:
        return item in self._parent

    def __len__(self) -> int:
        return len(self._parent)
