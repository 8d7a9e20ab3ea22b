"""Union-find connected components over any hashable ids: the reference the
array labelling of :mod:`repro.clustering.connected_components` is checked
against.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro.utils.unionfind import UnionFind


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
