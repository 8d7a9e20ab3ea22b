"""Union-find and the connected components built on it.

Connected components is the GraphX primitive SparkER clusters entities with;
on one machine a disjoint-set forest computes the same components.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable


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


def connected_components(
    edges: Iterable[tuple[Hashable, Hashable]],
    nodes: Iterable[Hashable] = (),
) -> dict[Hashable, Hashable]:
    """Union-find connected components.

    Returns a mapping node → component id, where the component id is the
    minimum node id (by Python ordering of ``repr`` for mixed types, natural
    ordering otherwise) in the component.
    """
    uf = UnionFind()
    for node in nodes:
        uf.add(node)
    for a, b in edges:
        uf.union(a, b)
    components: dict[Hashable, Hashable] = {}
    for members in uf.components().values():
        try:
            label = min(members)
        except TypeError:
            label = min(members, key=repr)
        for member in members:
            components[member] = label
    return components
