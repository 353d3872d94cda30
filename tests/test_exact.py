"""Exact solvers against the brute-force oracle.

Every solver is held to size equality with the oracle on small inputs
and to self-certification (its own output must pass is_feasible).
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vecdom import (
    Instance,
    Neighborhood,
    Scope,
    auto_solve,
    brute_force_minimum,
    build_graph,
    complete_graph,
    cycle_graph,
    is_feasible,
    join,
    path_graph,
    solve_cograph,
    solve_complete_total,
    solve_complete_vector,
    solve_threshold_vector,
    solve_tree_vector,
    star_graph,
)
from vecdom.errors import InfeasibleError, NotCompleteError, TooLargeError
from vecdom.generators import random_demand_vector, random_gnp

from .strategies import (
    PROPERTY_SETTINGS,
    THOROUGH_SETTINGS,
    cographs,
    demands_for,
    instances,
    threshold_graphs,
    trees,
)


def _partial_open(g, demands) -> Instance:
    return Instance(graph=g, neighborhood=Neighborhood.OPEN, scope=Scope.PARTIAL, demands=demands)


def _total_open(g, demands) -> Instance:
    return Instance(graph=g, neighborhood=Neighborhood.OPEN, scope=Scope.TOTAL, demands=demands)


class TestOracle:
    def test_cycle(self) -> None:
        sol = brute_force_minimum(_partial_open(cycle_graph(4), (1, 1, 1, 1)))
        assert len(sol.vertices) == 2
        assert sol.quality == "optimal"

    def test_zero_demands(self) -> None:
        sol = brute_force_minimum(_total_open(cycle_graph(4), (0, 0, 0, 0)))
        assert sol.vertices == frozenset()

    def test_total_infeasible_single_vertex(self) -> None:
        with pytest.raises(InfeasibleError):
            brute_force_minimum(_total_open(build_graph(1, []), (1,)))

    def test_cap_enforced(self) -> None:
        big = _partial_open(complete_graph(25), (0,) * 25)
        with pytest.raises(TooLargeError):
            brute_force_minimum(big)
        assert brute_force_minimum(big, cap=25).vertices == frozenset()

    def test_enumeration_order_returns_lex_smallest_minimum(self) -> None:
        # among the feasible pairs of C_4 the (0,1) pair comes first
        sol = brute_force_minimum(_partial_open(cycle_graph(4), (1, 1, 1, 1)))
        assert sol.sorted_vertices() == (0, 1)

    @given(instances(extra=1))
    @PROPERTY_SETTINGS
    def test_matches_direct_enumeration(self, inst) -> None:
        n = inst.graph.n
        if n > 8:
            return
        best = None
        for size in range(n + 1):
            for combo in combinations(range(n), size):
                if is_feasible(inst, combo).feasible:
                    best = frozenset(combo)
                    break
            if best is not None:
                break
        try:
            sol = brute_force_minimum(inst)
        except InfeasibleError:
            assert best is None
            return
        assert best is not None
        assert sol.vertices == best


class TestCompleteVector:
    def test_descending_demands(self) -> None:
        assert len(solve_complete_vector(complete_graph(4), (3, 2, 1, 0)).vertices) == 2

    def test_unit_demands(self) -> None:
        assert len(solve_complete_vector(complete_graph(3), (1, 1, 1)).vertices) == 1

    def test_zero_demands(self) -> None:
        assert solve_complete_vector(complete_graph(3), (0, 0, 0)).vertices == frozenset()

    def test_not_complete_rejected(self) -> None:
        with pytest.raises(NotCompleteError):
            solve_complete_vector(path_graph(3), (0, 0, 0))

    @given(st.integers(1, 6), st.data())
    @THOROUGH_SETTINGS
    def test_matches_oracle(self, n, data) -> None:
        g = complete_graph(n)
        demands = tuple(data.draw(st.integers(0, n)) for _ in range(n))
        sol = solve_complete_vector(g, demands)
        inst = _partial_open(g, demands)
        assert is_feasible(inst, sol.vertices).feasible
        assert len(sol.vertices) == len(brute_force_minimum(inst).vertices)


class TestCompleteTotal:
    def test_uniform_two(self) -> None:
        assert len(solve_complete_total(complete_graph(4), (2, 2, 2, 2)).vertices) == 3

    def test_single_peak_avoids_argmax(self) -> None:
        sol = solve_complete_total(complete_graph(4), (2, 1, 0, 0))
        assert len(sol.vertices) == 2
        assert 0 not in sol.vertices

    def test_zero_demands(self) -> None:
        assert solve_complete_total(complete_graph(5), (0,) * 5).vertices == frozenset()

    def test_demand_at_n_infeasible(self) -> None:
        with pytest.raises(InfeasibleError):
            solve_complete_total(complete_graph(3), (3, 0, 0))

    @given(st.integers(1, 6), st.data())
    @THOROUGH_SETTINGS
    def test_matches_oracle(self, n, data) -> None:
        g = complete_graph(n)
        demands = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n))
        sol = solve_complete_total(g, demands)
        inst = _total_open(g, demands)
        assert is_feasible(inst, sol.vertices).feasible
        assert len(sol.vertices) == len(brute_force_minimum(inst).vertices)


class TestTreeVector:
    def test_path_middle(self) -> None:
        sol = solve_tree_vector(path_graph(3), (1, 1, 1))
        assert sol.sorted_vertices() == (1,)

    def test_star_center(self) -> None:
        sol = solve_tree_vector(star_graph(4), (2, 1, 1, 1, 1))
        assert sol.sorted_vertices() == (0,)

    def test_zero_demands(self) -> None:
        assert solve_tree_vector(path_graph(5), (0,) * 5).vertices == frozenset()

    def test_forced_leaf(self) -> None:
        # leaf demand above its degree: the leaf itself must join
        sol = solve_tree_vector(path_graph(2), (2, 0))
        assert 0 in sol.vertices

    @given(trees(max_n=9), st.data())
    @THOROUGH_SETTINGS
    def test_matches_oracle_with_sweep_invariant(self, g, data) -> None:
        demands = data.draw(demands_for(g, Neighborhood.OPEN, extra=1))
        sol = solve_tree_vector(g, demands, check_invariant=True)
        inst = _partial_open(g, demands)
        assert is_feasible(inst, sol.vertices).feasible
        assert len(sol.vertices) == len(brute_force_minimum(inst).vertices)


class TestCograph:
    def test_star_partial(self) -> None:
        sol = solve_cograph(_partial_open(star_graph(2), (1, 1, 1)))
        assert len(sol.vertices) == 1

    def test_cycle_total(self) -> None:
        sol = solve_cograph(_total_open(cycle_graph(4), (1, 1, 1, 1)))
        assert len(sol.vertices) == 2

    def test_total_infeasible(self) -> None:
        with pytest.raises(InfeasibleError):
            solve_cograph(_total_open(build_graph(1, []), (1,)))

    @given(cographs(), st.data())
    @THOROUGH_SETTINGS
    def test_partial_matches_oracle(self, g, data) -> None:
        demands = data.draw(demands_for(g, Neighborhood.OPEN, extra=1))
        inst = _partial_open(g, demands)
        sol = solve_cograph(inst)
        assert is_feasible(inst, sol.vertices).feasible
        assert len(sol.vertices) == len(brute_force_minimum(inst).vertices)

    @given(cographs(), st.data())
    @THOROUGH_SETTINGS
    def test_total_matches_oracle_including_infeasibility(self, g, data) -> None:
        demands = data.draw(demands_for(g, Neighborhood.OPEN, extra=1))
        inst = _total_open(g, demands)
        try:
            sol = solve_cograph(inst)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                brute_force_minimum(inst)
            return
        assert is_feasible(inst, sol.vertices).feasible
        assert len(sol.vertices) == len(brute_force_minimum(inst).vertices)

    @given(cographs(max_n=5), cographs(max_n=5), st.data())
    @PROPERTY_SETTINGS
    def test_join_recurrence_consistency(self, g1, g2, data) -> None:
        # explicit two-part joins: recurrence value equals the joined optimum
        g = join(g1, g2)
        demands = data.draw(demands_for(g, Neighborhood.OPEN))
        inst = _partial_open(g, demands)
        assert len(solve_cograph(inst).vertices) == len(brute_force_minimum(inst).vertices)


class TestThresholdVector:
    def test_last_dominating_vertex(self) -> None:
        g = build_graph(4, [(0, 1), (0, 3), (1, 3), (2, 3)])
        sol = solve_threshold_vector(g, (1, 1, 1, 1))
        assert sol.sorted_vertices() == (3,)

    def test_star(self) -> None:
        sol = solve_threshold_vector(star_graph(2), (1, 1, 1))
        assert len(sol.vertices) == 1

    def test_edgeless_zero(self) -> None:
        assert solve_threshold_vector(build_graph(3, []), (0, 0, 0)).vertices == frozenset()

    @given(threshold_graphs(), st.data())
    @THOROUGH_SETTINGS
    def test_matches_oracle(self, g, data) -> None:
        demands = data.draw(demands_for(g, Neighborhood.OPEN, extra=2))
        inst = _partial_open(g, demands)
        sol = solve_threshold_vector(g, demands)
        assert is_feasible(inst, sol.vertices).feasible
        assert len(sol.vertices) == len(brute_force_minimum(inst).vertices)


class TestAutoSolve:
    def test_complete_routes_to_direct_formula(self) -> None:
        inst = _partial_open(complete_graph(5), (1,) * 5)
        sol = auto_solve(inst)
        assert sol.quality == "optimal"
        assert sol.method == "complete-vector"

    def test_large_random_routes_to_greedy(self) -> None:
        g = random_gnp(30, 0.5, random.Random(1))
        sol = auto_solve(_partial_open(g, (1,) * 30))
        assert sol.quality == "approx"
        assert sol.bound is not None

    def test_path_routes_to_tree_solver(self) -> None:
        sol = auto_solve(_partial_open(path_graph(4), (1, 1, 1, 1)))
        assert sol.method == "tree"
        assert len(sol.vertices) == 2

    def test_empty_graph(self) -> None:
        inst = _partial_open(build_graph(0, []), ())
        assert auto_solve(inst).vertices == frozenset()

    @given(instances(extra=1))
    @THOROUGH_SETTINGS
    def test_optimal_on_oracle_range_and_self_certified(self, inst) -> None:
        try:
            sol = auto_solve(inst)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                brute_force_minimum(inst)
            return
        assert sol.status == "feasible"
        assert is_feasible(inst, sol.vertices).feasible
        if inst.graph.n <= 10 and sol.quality == "optimal":
            assert len(sol.vertices) == len(brute_force_minimum(inst).vertices)
