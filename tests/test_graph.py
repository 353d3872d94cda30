"""Graph construction, traversal, and combination primitives."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vecdom import (
    build_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    join,
    path_graph,
    star_graph,
)
from vecdom.errors import DuplicateEdgeError, OutOfRangeError, SelfLoopError
from vecdom.generators import random_gnp
from vecdom.graph import tree_order

from .strategies import PROPERTY_SETTINGS, graphs


class TestBuildGraph:
    def test_single_edge(self) -> None:
        g = build_graph(2, [(0, 1)])
        assert g.degree(0) == 1
        assert g.degree(1) == 1
        assert g.m == 1

    def test_self_loop_rejected(self) -> None:
        with pytest.raises(SelfLoopError):
            build_graph(3, [(0, 0)])

    def test_cycle_degrees(self) -> None:
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.degrees() == (2, 2, 2, 2)

    def test_out_of_range_rejected(self) -> None:
        with pytest.raises(OutOfRangeError):
            build_graph(2, [(0, 2)])
        with pytest.raises(OutOfRangeError):
            build_graph(2, [(-1, 0)])

    def test_duplicate_rejected(self) -> None:
        with pytest.raises(DuplicateEdgeError):
            build_graph(3, [(0, 1), (1, 0)])

    def test_empty_graph(self) -> None:
        g = build_graph(0, [])
        assert g.n == 0
        assert g.m == 0

    def test_edge_list_is_not_copied_while_building(self) -> None:
        # the two columns, the rows and their tuples take about 50 bytes per
        # edge; a copy of the list of pairs, or a set of arc keys beside
        # them, takes the peak past 80
        edges = list(random_gnp(2000, 0.05, random.Random("build-peak")).edges())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = build_graph(2000, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m == len(edges) > 90_000
        assert peak - before < 80 * len(edges), (peak - before) / len(edges)

    @given(graphs())
    @PROPERTY_SETTINGS
    def test_adjacency_symmetric_and_sorted(self, g) -> None:
        for v in range(g.n):
            nbrs = g.neighbors(v)
            assert list(nbrs) == sorted(set(nbrs))
            assert v not in nbrs
            for u in nbrs:
                assert v in g.neighbors(u)

    @given(graphs())
    @PROPERTY_SETTINGS
    def test_handshake(self, g) -> None:
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m

    @given(graphs())
    @PROPERTY_SETTINGS
    def test_edges_consistent_with_adjacency(self, g) -> None:
        listed = set(g.edges())
        assert len(listed) == g.m
        for u, v in listed:
            assert u < v
            assert v in g.neighbors(u)
            assert u in g.neighbors(v)


class TestNamedFamilies:
    def test_complete(self) -> None:
        g = complete_graph(5)
        assert g.m == 10
        assert g.is_complete()

    def test_path_and_cycle(self) -> None:
        assert path_graph(4).degrees() == (1, 2, 2, 1)
        assert cycle_graph(5).m == 5

    def test_star(self) -> None:
        g = star_graph(3)
        assert g.degrees() == (3, 1, 1, 1)

    def test_path_is_tree_cycle_is_not(self) -> None:
        assert path_graph(6).is_tree()
        assert not cycle_graph(6).is_tree()
        assert not disjoint_union([path_graph(2), path_graph(2)])[0].is_tree()
        assert not build_graph(0, []).is_tree()

    def test_tree_order_is_bfs_from_zero_with_parents(self) -> None:
        g = build_graph(5, [(3, 4), (0, 3), (1, 3), (1, 2)])
        assert tree_order(g) == ([0, 3, 1, 4, 2], [0, 3, 1, 0, 3])
        assert tree_order(build_graph(1, [])) == ([0], [0])
        assert tree_order(cycle_graph(4)) is None
        assert tree_order(build_graph(0, [])) is None


class TestDisjointUnion:
    def test_two_edges(self) -> None:
        g, maps = disjoint_union([path_graph(2), path_graph(2)])
        assert g.n == 4
        assert g.m == 2
        assert len(maps) == 2
        assert not g.is_connected()

    def test_empty_list(self) -> None:
        g, maps = disjoint_union([])
        assert g.n == 0
        assert maps == ()

    def test_counts_add(self) -> None:
        g, _ = disjoint_union([path_graph(3)] * 3)
        assert g.n == 9
        assert g.m == 6

    @given(graphs(max_n=6), graphs(max_n=6))
    @PROPERTY_SETTINGS
    def test_relabeling_preserves_edges(self, g1, g2) -> None:
        g, (m1, m2) = disjoint_union([g1, g2])
        assert g.m == g1.m + g2.m
        for u, v in g1.edges():
            assert m1[v] in g.neighbors(m1[u])
        for u, v in g2.edges():
            assert m2[v] in g.neighbors(m2[u])
        assert set(m1.values()) | set(m2.values()) == set(range(g.n))


class TestJoin:
    def test_star_from_join(self) -> None:
        center = build_graph(1, [])
        two = build_graph(2, [])
        g = join(center, two)
        assert g.degrees() == (2, 1, 1)

    def test_c4_from_join(self) -> None:
        two = build_graph(2, [])
        g = join(two, two)
        assert g.degrees() == (2, 2, 2, 2)
        assert 1 not in g.neighbors(0)
        assert 3 not in g.neighbors(2)

    def test_join_with_empty_is_identity(self) -> None:
        g = join(build_graph(1, []), build_graph(0, []))
        assert g.n == 1
        assert g.m == 0

    @given(graphs(max_n=6), graphs(max_n=6))
    @PROPERTY_SETTINGS
    def test_edge_count_formula(self, g1, g2) -> None:
        g = join(g1, g2)
        assert g.m == g1.m + g2.m + g1.n * g2.n
        for u in range(g1.n):
            for v in range(g2.n):
                assert g1.n + v in g.neighbors(u)
