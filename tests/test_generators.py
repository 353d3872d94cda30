"""Instance generators: exhaustive tree enumeration and seeded families."""

from __future__ import annotations

import random
import tracemalloc
from itertools import product

from hypothesis import given
from hypothesis import strategies as st

from vecdom import build_graph, demand_bound, is_cograph, is_threshold
from vecdom.generators import (
    all_demand_vectors,
    all_labeled_trees,
    prufer_to_tree,
    random_cograph,
    random_demand_vector,
    random_gnp,
    random_threshold,
    random_tree,
    threshold_graph,
)
from vecdom import Neighborhood

from .strategies import PROPERTY_SETTINGS, graphs


class TestPrufer:
    def test_decode_is_a_tree(self) -> None:
        for n in (1, 2, 5):
            for seq in ([] if n <= 2 else [[0] * (n - 2), list(range(n - 2))]):
                g = prufer_to_tree(n, seq)
                assert g.n == n
                assert g.m == max(n - 1, 0)
                assert g.is_tree() or n <= 1

    def test_known_decode(self) -> None:
        # sequence (0, 0) makes vertex 0 the center of a star
        g = prufer_to_tree(4, (0, 0))
        assert g.degrees() == (3, 1, 1, 1)

    def test_cayley_counts(self) -> None:
        for n in (3, 4, 5, 6):
            seen = {tuple(sorted(t.edges())) for t in all_labeled_trees(n)}
            assert len(seen) == n ** (n - 2)

    def test_all_outputs_are_trees(self) -> None:
        for t in all_labeled_trees(5):
            assert t.is_tree()

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    @PROPERTY_SETTINGS
    def test_random_tree_valid(self, n, seed) -> None:
        g = random_tree(n, random.Random(seed))
        assert g.n == n
        assert g.is_tree() or n == 1


class TestFamilies:
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    @PROPERTY_SETTINGS
    def test_random_cograph_is_p4_free(self, n, seed) -> None:
        g = random_cograph(n, random.Random(seed))
        assert g.n == n
        assert is_cograph(g)

    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    @PROPERTY_SETTINGS
    def test_random_threshold_is_threshold(self, n, seed) -> None:
        g = random_threshold(n, random.Random(seed))
        assert g.n == n
        assert is_threshold(g)

    def test_threshold_build_sequence(self) -> None:
        # seed, dominating, isolated, dominating
        g = threshold_graph([True, False, True])
        assert sorted(g.edges()) == [(0, 1), (0, 3), (1, 3), (2, 3)]

    def test_threshold_all_dominating_is_complete(self) -> None:
        assert threshold_graph([True, True, True]).is_complete()

    def test_threshold_rows_match_the_edge_list_build(self) -> None:
        rng = random.Random(60)
        for _ in range(300):
            dominating = [rng.random() < rng.random() for _ in range(rng.randint(0, 59))]
            edges = [(u, v) for v, dom in enumerate(dominating, start=1) if dom for u in range(v)]
            g = threshold_graph(dominating)
            assert g == build_graph(len(dominating) + 1, edges)
            assert (g.m, g.max_degree()) == (len(edges), max(g.degrees()))

    def test_threshold_build_holds_rows_not_edges(self) -> None:
        rng = random.Random(2000)
        dominating = [rng.random() < 0.5 for _ in range(1999)]
        tracemalloc.start()
        try:
            g = threshold_graph(dominating)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the rows hold 2m entries of 8 bytes; an edge list of tuples costs about 250 bytes an edge
        assert peak < 20 * g.m + 1_000_000

    def test_gnp_extremes(self) -> None:
        rng = random.Random(7)
        assert random_gnp(6, 0.0, rng).m == 0
        assert random_gnp(6, 1.0, rng).is_complete()

    def test_gnp_deterministic_for_fixed_seed(self) -> None:
        a = random_gnp(10, 0.4, random.Random(11))
        b = random_gnp(10, 0.4, random.Random(11))
        assert sorted(a.edges()) == sorted(b.edges())


class TestDemandVectors:
    def test_exhaustive_count(self) -> None:
        g = build_graph(3, [(0, 1)])  # degrees 1, 1, 0
        vectors = list(all_demand_vectors(g))
        assert len(vectors) == 2 * 2 * 1
        assert len(set(vectors)) == len(vectors)

    def test_extra_widens_the_range(self) -> None:
        g = build_graph(2, [(0, 1)])
        vectors = set(all_demand_vectors(g, extra=1))
        assert (2, 2) in vectors
        assert len(vectors) == 9

    def test_matches_direct_product(self) -> None:
        g = build_graph(3, [(0, 1), (1, 2)])
        expect = set(product(range(2), range(3), range(2)))
        assert set(all_demand_vectors(g)) == expect

    @given(graphs(), st.integers(0, 2**32 - 1), st.integers(0, 2))
    @PROPERTY_SETTINGS
    def test_random_vector_within_bounds(self, g, seed, extra) -> None:
        demands = random_demand_vector(g, random.Random(seed), extra=extra)
        assert len(demands) == g.n
        for v in range(g.n):
            assert 0 <= demands[v] <= demand_bound(Neighborhood.OPEN, g.degree(v)) + extra
