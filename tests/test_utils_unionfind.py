"""Tests of union-find and the connected components built on it."""

from repro.utils.unionfind import UnionFind, connected_components


class TestUnionFind:
    def test_singletons(self):
        uf = UnionFind()
        uf.add("a")
        uf.add("b")
        assert uf.find("a") != uf.find("b")

    def test_union(self):
        uf = UnionFind()
        uf.union("a", "b")
        assert uf.find("a") == uf.find("b")

    def test_transitive_union(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(2, 3)
        assert uf.find(1) == uf.find(3)

    def test_components(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.add(3)
        groups = uf.components()
        sizes = sorted(len(members) for members in groups.values())
        assert sizes == [1, 2]

    def test_len_and_contains(self):
        uf = UnionFind()
        uf.union("a", "b")
        assert len(uf) == 2
        assert "a" in uf
        assert "z" not in uf

    def test_idempotent_union(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(1, 2)
        assert len(uf.components()) == 1


class TestConnectedComponents:
    def test_single_chain(self):
        assignment = connected_components([(1, 2), (2, 3)])
        assert assignment[1] == assignment[2] == assignment[3] == 1

    def test_two_components(self):
        assignment = connected_components([(1, 2), (3, 4)])
        assert assignment[1] == assignment[2]
        assert assignment[3] == assignment[4]
        assert assignment[1] != assignment[3]

    def test_isolated_nodes(self):
        assignment = connected_components([], nodes=[7, 8])
        assert assignment == {7: 7, 8: 8}

    def test_component_label_is_minimum(self):
        assignment = connected_components([(5, 3), (3, 9)])
        assert assignment[5] == 3
        assert assignment[9] == 3

    def test_empty(self):
        assert connected_components([]) == {}

    def test_long_chain_is_one_component(self):
        assignment = connected_components([(i, i + 1) for i in range(30)])
        assert set(assignment.values()) == {0}

    def test_mixed_types_label_by_repr(self):
        assignment = connected_components([(1, "a")])
        assert assignment[1] == assignment["a"] == min([1, "a"], key=repr)
