"""Exact solvers against the brute-force oracle.

Every solver is held to size equality with the oracle on small inputs
and to self-certification (its own output must pass is_feasible).  The
cograph DP, whose rows stop at the largest demand, is also compared set
for set with the DP whose rows ran to the maximum degree, and the
threshold DP with the cograph DP well past the oracle's cap.
"""

from __future__ import annotations

import random
import sys
from itertools import combinations, combinations_with_replacement, product
from typing import Iterator, NamedTuple
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vecdom import (
    Cotree,
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
from vecdom import exact
from vecdom.decomposition import build_modified_cotree
from vecdom.errors import InfeasibleError, NotCompleteError, TooLargeError, VecdomError
from vecdom.generators import (
    random_cograph,
    random_demand_vector,
    random_gnp,
    random_threshold,
)

from .strategies import (
    PROPERTY_SETTINGS,
    THOROUGH_SETTINGS,
    caterpillar_2k2,
    cographs,
    demands_for,
    instances,
    relabelled,
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


def _lex_first_minimum(inst: Instance) -> frozenset[int] | None:
    """The first feasible set by size, then by its sorted vertex tuple."""
    n = inst.graph.n
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            if is_feasible(inst, combo).feasible:
                return frozenset(combo)
    return None


def _streamed_oracle_returns_lex_first() -> None:
    # above the cached masks' size, so the oracle streams its subsets
    for case in range(12):
        rng = random.Random(f"oracle-lex-first:{case}")
        n = 13 + case % 3
        g = random_gnp(n, 0.3, rng)
        demands = tuple(rng.randint(0, min(2, g.degree(v))) for v in range(n))
        inst = (_total_open if case % 2 else _partial_open)(g, demands)
        assert n > exact._CACHED_MASKS
        assert brute_force_minimum(inst).vertices == _lex_first_minimum(inst), case


def test_streamed_oracle_returns_lex_first_minimum() -> None:
    _streamed_oracle_returns_lex_first()


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
        # the sweep's invariant is re-checked after every step
        with mock.patch.dict(exact._EXACT, tree=_checked_tree(_assert_sweep_invariant)):
            sol = solve_tree_vector(g, demands)
        inst = _partial_open(g, demands)
        assert is_feasible(inst, sol.vertices).feasible
        assert len(sol.vertices) == len(brute_force_minimum(inst).vertices)

    def test_sweep_invariant_checked_after_every_step(self) -> None:
        processed = []

        def check(state: dict) -> None:
            _assert_sweep_invariant(state)
            processed.append(sum(state["processed"]))

        with mock.patch.dict(exact._EXACT, tree=_checked_tree(check)):
            sol = solve_tree_vector(path_graph(5), (1, 1, 1, 1, 1))
        assert sol.sorted_vertices() == (0, 3)
        # one check after each of the five steps, on the sweep's state then:
        # vertex 4 pulls in 3, 3 is skipped, 2 is served, 1 pulls in 0
        assert processed == [2, 2, 3, 5, 5]


def _assert_sweep_invariant(state: dict) -> None:
    """Every processed, unchosen vertex of the tree sweep is already served."""
    adj, k, in_s = state["adj"], state["k"], state["in_s"]
    for v in range(len(adj)):
        if state["in_forced"][v] or not state["processed"][v] or in_s[v]:
            continue
        have = sum(1 for u in adj[v] if in_s[u])
        assert have >= k[v], f"vertex {v} processed with {have} < {k[v]} chosen neighbours"


class _CheckedOrder(list):
    """A BFS order whose reversed walk calls ``check`` between the tree sweep's steps.

    The sweep walks ``reversed(order)``: when it asks for the next vertex
    the step before is done, and ``check`` gets the sweep's local
    variables, read off the frame that asked.
    """

    def __init__(self, order, check) -> None:
        super().__init__(order)
        self.check = check

    def __reversed__(self):
        for v in super().__reversed__():
            yield v
            self.check(dict(sys._getframe(1).f_locals))


def _checked_tree(check):
    """``exact._tree`` with ``check`` called on its state after every step."""

    def tree(inst, walk, forced):
        order, parent = walk
        return exact._tree(inst, (_CheckedOrder(order, check), parent), forced)

    return tree


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


class NestedCotree(NamedTuple):
    """A cotree node in nested form: its kind, its vertices ascending, its children."""

    kind: str
    vertices: tuple[int, ...]
    children: tuple["NestedCotree", ...]

    @property
    def vertex(self) -> int:
        return self.vertices[0]


def nested(tree: Cotree) -> NestedCotree:
    """The flat cotree's root as nested nodes, rebuilt bottom-up without recursion."""
    kinds, ends, starts, leaves = tree
    built: list = [None] * len(kinds)
    for k in range(len(kinds) - 1, -1, -1):
        verts = tuple(sorted(leaves[starts[k] : starts[ends[k]]]))
        built[k] = NestedCotree(kinds[k], verts, tuple(built[c] for c in tree.children(k)))
    return built[0]


def _unpruned_cograph(inst, tree, *_):
    """The cograph DP with every row running to the maximum degree, and no cap on the join search."""
    work = inst.graph
    if work.n == 0:
        return ()
    tree = nested(build_modified_cotree(work) if tree is None else tree)
    work_k = inst.demands
    delta = work.max_degree()
    infeasible = work.n + 1
    alone = infeasible if inst.scope is Scope.TOTAL else 1
    nodes = [tree]
    for node in nodes:
        nodes.extend(node.children)
    sizes, choices = {}, {}
    for node in reversed(nodes):
        if node.kind == "leaf":
            kv = work_k[node.vertex]
            if kv > work.degree(node.vertex):
                # forced: no discount reaches a demand above the degree
                sizes[id(node)] = [1] * (delta + 1)
            else:
                sizes[id(node)] = [0 if kv <= r else alone for r in range(delta + 1)]
        elif node.kind == "union":
            parts = [sizes[id(child)] for child in node.children]
            sizes[id(node)] = [min(sum(column), infeasible) for column in zip(*parts)]
        else:
            left_node, right_node = node.children
            left, right = sizes[id(left_node)], sizes[id(right_node)]
            n_left, n_right = len(left_node.vertices), len(right_node.vertices)
            row, chosen = [], []
            for r in range(delta + 1):
                best, best_value = (0, 0), infeasible
                right_at = [right[min(r + j, delta)] for j in range(n_left + 1)]
                for i in range(n_right + 1):
                    own = left[min(r + i, delta)]
                    if own == infeasible:
                        continue
                    for j, other in enumerate(right_at):
                        if other == infeasible:
                            continue
                        value = max(own, j) + max(other, i)
                        if value < best_value:
                            best_value, best = value, (i, j)
                row.append(best_value)
                chosen.append(best)
            sizes[id(node)], choices[id(node)] = row, chosen
    if sizes[id(tree)][0] == infeasible:
        raise InfeasibleError("no vertex subset satisfies the instance")
    discount = {id(tree): 0}
    for node in nodes:
        r = discount[id(node)]
        shifts = choices[id(node)][r] if node.kind == "join" else (0,) * len(node.children)
        for child, shift in zip(node.children, shifts):
            discount[id(child)] = min(r + shift, delta)
    in_set = bytearray(work.n)
    for node in reversed(nodes):
        if node.kind == "leaf":
            in_set[node.vertex] = sizes[id(node)][discount[id(node)]]
        elif node.kind == "join":
            i, j = choices[id(node)][discount[id(node)]]
            for side, want in zip(node.children, (j, i)):
                short = want - sizes[id(side)][discount[id(side)]]
                for v in side.vertices:
                    if short <= 0:
                        break
                    if not in_set[v]:
                        in_set[v] = 1
                        short -= 1
    return [v for v in range(work.n) if in_set[v]]


def _scanned_join_row(left, right, n_left, n_right, infeasible):
    """A join's row by scanning every (i, j), as the cograph DP once did."""
    top_left, top_right = len(left) - 1, len(right) - 1
    row, chosen = [], []
    for r in range(max(top_left, top_right) + 1):
        cap_i = min(n_right, max(top_left - r, 0))
        cap_j = min(n_left, max(top_right - r, 0))
        best, best_value = (0, 0), infeasible
        right_at = [right[min(r + j, top_right)] for j in range(cap_j + 1)]
        for i in range(cap_i + 1):
            own = left[min(r + i, top_left)]
            if own == infeasible:
                continue
            for j, other in enumerate(right_at):
                if other == infeasible:
                    continue
                value = max(own, j) + max(other, i)
                if value < best_value:
                    best_value, best = value, (i, j)
        row.append(best_value)
        chosen.append(best)
    return row, chosen


def _random_row(rng: random.Random, side: int, top: int, infeasible: int) -> list[int]:
    """A side's row: non-increasing sizes up to ``side``, infeasible on a prefix."""
    # small values make ties, which the pair rule has to break as the scan does
    largest = side if rng.random() < 0.5 else min(side, rng.randint(0, 4))
    row = sorted((rng.randint(0, largest) for _ in range(top + 1)), reverse=True)
    if rng.random() < 0.7:
        row[-1] = 0  # no forced vertex below: the row ends at 0
    prefix = rng.randint(0, top) if rng.random() < 0.3 else 0
    return [infeasible] * prefix + row[prefix:]


def _check_join(left, right, n_left, n_right, infeasible) -> None:
    """The join's row and, at every feasible discount, its pair, against the scan's."""
    row, chosen = _scanned_join_row(left, right, n_left, n_right, infeasible)
    case = (left, right, n_left, n_right, infeasible)
    assert exact._join_row(left, right, n_left, n_right, infeasible) == row, case
    for r, size in enumerate(row):
        if size < infeasible:
            assert exact._join_pair(left, right, n_left, n_right, r, size) == chosen[r], (case, r)


def _tiny_rows(side: int, infeasible: int) -> Iterator[list[int]]:
    """Every row of 1-4 entries: non-increasing sizes up to ``side``, infeasible on a proper prefix."""
    for length in range(1, 5):
        for prefix in range(length):
            for rest in combinations_with_replacement(range(side, -1, -1), length - prefix):
                yield [infeasible] * prefix + list(rest)


def test_join_row_matches_scan_of_every_pair() -> None:
    rng = random.Random("join-row-vs-scan")
    for index in range(7000):
        if index < 5000:
            n_left, n_right = rng.randint(1, 40), rng.randint(1, 40)
            infeasible = n_left + n_right + 1 + rng.randint(0, 3)
            # most joins sit below small demands; some reach K = 30
            big = index % 4 == 0
            tops = [rng.randint(0, 30 if big else 6) for _ in range(2)]
        else:
            # a deep cotree's joins: long rows against a side of one to four vertices
            sides = [rng.randint(1, 4), rng.randint(5, 60)]
            n_left, n_right = sides if rng.random() < 0.5 else sides[::-1]
            infeasible = n_left + n_right + 1
            tops = [rng.randint(5, 50) for _ in range(2)]
        left = _random_row(rng, n_left, tops[0], infeasible)
        right = _random_row(rng, n_right, tops[1], infeasible)
        _check_join(left, right, n_left, n_right, infeasible)
    # every tiny join: sides of 1-3 vertices, rows of 1-4 entries
    for n_left, n_right in product(range(1, 4), repeat=2):
        infeasible = n_left + n_right + 1
        rights = list(_tiny_rows(n_right, infeasible))
        for left in _tiny_rows(n_left, infeasible):
            for right in rights:
                _check_join(left, right, n_left, n_right, infeasible)


def _outcomes(inst: Instance) -> list:
    """Vertex set and method, or error class and message, of both cograph entries."""
    found = []
    for entry in (solve_cograph, auto_solve):
        try:
            sol = entry(inst)
            found.append((sol.sorted_vertices(), sol.method))
        except VecdomError as exc:
            found.append((type(exc).__name__, str(exc)))
    return found


def test_cograph_rows_to_largest_demand_match_rows_to_max_degree(monkeypatch) -> None:
    def check(inst: Instance, case: object) -> None:
        found = _outcomes(inst)
        with monkeypatch.context() as patch:
            patch.setitem(exact._EXACT, "cograph", _unpruned_cograph)
            assert found == _outcomes(inst), case

    rng = random.Random("cograph-rows-vs-max-degree")
    demand_caps = (lambda d: 1, lambda d: 2, lambda d: 4, lambda d: d, lambda d: d + 2)
    for index in range(1000):
        n = rng.randint(1, 45)
        g = (random_cograph if index % 2 else random_threshold)(n, rng)
        cap = demand_caps[index % len(demand_caps)]
        demands = tuple(rng.randint(0, cap(g.degree(v))) for v in range(n))
        scope = Scope.TOTAL if index % 4 >= 2 else Scope.PARTIAL
        check(Instance(g, Neighborhood.OPEN, scope, demands), index)
    # deep cotrees: 2K2 caterpillars and relabelled threshold graphs, demands up to the degree
    for index in range(120):
        if index % 2:
            g = caterpillar_2k2(rng.randint(1, 11))
            if index % 4 == 1:
                g = relabelled(g, rng)
        else:
            g = relabelled(random_threshold(rng.randint(1, 45), rng), rng)
        cap = (lambda d: d, lambda d: d + 1)[index % 6 == 0]
        demands = tuple(rng.randint(0, cap(g.degree(v))) for v in range(g.n))
        scope = Scope.TOTAL if index % 3 == 0 else Scope.PARTIAL
        check(Instance(g, Neighborhood.OPEN, scope, demands), ("deep", index))


def test_threshold_padding_never_runs_short(monkeypatch) -> None:
    """A dominating vertex left out finds all the padding it needs below it."""
    shortfalls = []

    def checked_sorted(pool):
        padding = sorted(pool)
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_threshold":
            shortfalls.append(caller.f_locals["need"] - len(padding))
        return padding

    monkeypatch.setattr(exact, "sorted", checked_sorted, raising=False)
    rng = random.Random("threshold-padding")
    for index in range(1000):
        g = relabelled(random_threshold(rng.randint(2, 40), rng), rng)
        cap = (lambda d: 2, lambda d: d, lambda d: d + 1)[index % 3]
        solve_threshold_vector(g, tuple(rng.randint(0, cap(g.degree(v))) for v in range(g.n)))
    # some paddings take every vertex left below
    assert len(shortfalls) >= 50 and shortfalls.count(0) >= 10
    assert max(shortfalls) <= 0


def test_threshold_dp_equals_cograph_dp_beyond_oracle() -> None:
    rng = random.Random("threshold-vs-cograph-large")
    for n in (200, 300, 500):
        g = relabelled(random_threshold(n, rng), rng)
        ones = tuple(min(1, g.degree(v)) for v in range(n))
        fours = tuple(rng.randint(0, 4) for _ in range(n))
        # about one vertex in twenty demands more than its degree, so it is forced
        forcing = tuple(
            g.degree(v) + 1 if rng.random() < 0.05 else rng.randint(0, min(4, g.degree(v)))
            for v in range(n)
        )
        for demands in (ones, fours, forcing):
            inst = _partial_open(g, demands)
            assert solve_threshold_vector(g, demands).size == solve_cograph(inst).size, n
