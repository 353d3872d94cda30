"""Greedy multicover and submodular-cover engines with their guarantees."""

from __future__ import annotations

import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vecdom import (
    CoverageState,
    Graph,
    Instance,
    Neighborhood,
    Scope,
    brute_force_minimum,
    build_graph,
    complete_graph,
    coverage_value,
    cycle_graph,
    disjoint_union,
    greedy_multiple_domination,
    greedy_total_vector,
    greedy_vector_domination,
    is_feasible,
    star_graph,
)
from vecdom import approx, feasibility
from vecdom.errors import CertificationError, InfeasibleError, WrongVariantError
from vecdom.generators import random_gnp

from .strategies import PROPERTY_SETTINGS, instances

UNIT = (1, 1, 1, 1)


def _total_open(g, demands) -> Instance:
    return Instance(graph=g, neighborhood=Neighborhood.OPEN, scope=Scope.TOTAL, demands=demands)


def _total_closed(g, demands) -> Instance:
    return Instance(graph=g, neighborhood=Neighborhood.CLOSED, scope=Scope.TOTAL, demands=demands)


def _partial_open(g, demands) -> Instance:
    return Instance(graph=g, neighborhood=Neighborhood.OPEN, scope=Scope.PARTIAL, demands=demands)


class TestGreedyTotalVector:
    def test_cycle(self) -> None:
        sol = greedy_total_vector(_total_open(cycle_graph(4), UNIT))
        assert len(sol.vertices) == 2
        assert sol.bound == pytest.approx(math.log(2) + 1)

    def test_star(self) -> None:
        sol = greedy_total_vector(_total_open(star_graph(3), UNIT))
        assert len(sol.vertices) == 2
        assert 0 in sol.vertices  # center is forced by leaf demands

    def test_all_zero(self) -> None:
        sol = greedy_total_vector(_total_open(cycle_graph(4), (0, 0, 0, 0)))
        assert sol.vertices == frozenset()

    def test_demand_above_degree_infeasible(self) -> None:
        with pytest.raises(InfeasibleError):
            greedy_total_vector(_total_open(build_graph(2, [(0, 1)]), (2, 0)))

    def test_wrong_scope_rejected(self) -> None:
        with pytest.raises(WrongVariantError):
            greedy_total_vector(_partial_open(cycle_graph(4), UNIT))


class TestGreedyMultipleDomination:
    def test_triangle_two_tuple(self) -> None:
        sol = greedy_multiple_domination(_total_closed(complete_graph(3), (2, 2, 2)))
        assert len(sol.vertices) == 2
        assert sol.bound == pytest.approx(math.log(3) + 1)

    def test_isolated_vertex_forced(self) -> None:
        sol = greedy_multiple_domination(_total_closed(build_graph(1, []), (1,)))
        assert sol.vertices == frozenset({0})

    def test_all_zero(self) -> None:
        sol = greedy_multiple_domination(_total_closed(complete_graph(3), (0, 0, 0)))
        assert sol.vertices == frozenset()

    def test_demand_above_closed_degree_infeasible(self) -> None:
        with pytest.raises(InfeasibleError):
            greedy_multiple_domination(_total_closed(build_graph(2, [(0, 1)]), (3, 0)))


class TestGreedyVectorDomination:
    def test_star_picks_center_first(self) -> None:
        sol = greedy_vector_domination(_partial_open(star_graph(3), (2, 1, 1, 1)))
        assert sol.vertices == frozenset({0})
        assert sol.coarse_bound == pytest.approx(math.log(2 * 3) + 1)

    def test_all_zero(self) -> None:
        sol = greedy_vector_domination(_partial_open(cycle_graph(4), (0, 0, 0, 0)))
        assert sol.vertices == frozenset()

    def test_triangle_single_vertex(self) -> None:
        sol = greedy_vector_domination(_partial_open(complete_graph(3), (1, 1, 1)))
        assert len(sol.vertices) == 1

    def test_oversized_demand_forces_vertex(self) -> None:
        # k_0 = 2 > d(0) = 1: vertex 0 must join S, after which the rest is easy
        sol = greedy_vector_domination(_partial_open(build_graph(2, [(0, 1)]), (2, 0)))
        assert 0 in sol.vertices
        assert is_feasible(_partial_open(build_graph(2, [(0, 1)]), (2, 0)), sol.vertices).feasible


def _greedy_for(inst: Instance):
    if inst.scope is Scope.TOTAL and inst.neighborhood is Neighborhood.OPEN:
        return greedy_total_vector
    if inst.scope is Scope.TOTAL and inst.neighborhood is Neighborhood.CLOSED:
        return greedy_multiple_domination
    if inst.scope is Scope.PARTIAL and inst.neighborhood is Neighborhood.OPEN:
        return greedy_vector_domination
    return None


class TestSharedProperties:
    @given(instances(extra=0))
    @PROPERTY_SETTINGS
    def test_output_feasible_and_deterministic(self, inst) -> None:
        greedy = _greedy_for(inst)
        if greedy is None:
            return
        try:
            sol = greedy(inst)
        except InfeasibleError:
            assert not is_feasible(inst, range(inst.graph.n)).feasible
            return
        assert sol.status == "feasible"
        assert is_feasible(inst, sol.vertices).feasible
        assert len(sol.vertices) <= inst.graph.n
        again = greedy(inst)
        assert again.vertices == sol.vertices

    @given(instances(extra=0), st.just(None))
    @PROPERTY_SETTINGS
    def test_ratio_within_published_bound(self, inst, _):
        greedy = _greedy_for(inst)
        if greedy is None or inst.graph.n > 12:
            return
        try:
            sol = greedy(inst)
        except InfeasibleError:
            return
        optimum = brute_force_minimum(inst)
        if len(optimum.vertices) == 0:
            assert len(sol.vertices) == 0
            return
        delta = max(inst.graph.max_degree(), 1)
        if inst.scope is Scope.TOTAL and inst.neighborhood is Neighborhood.OPEN:
            factor = math.log(delta) + 1
        elif inst.scope is Scope.TOTAL:
            factor = math.log(delta + 1) + 1
        else:
            factor = math.log(2 * delta) + 1
        assert len(sol.vertices) <= factor * len(optimum.vertices)


# ---------------------------------------------------------------------------
# Differential check: the lazy greedies against a plain eager reference that
# rescans every candidate in every round.


def _eager_multicover(family, requirements) -> tuple[int, ...] | None:
    """Reference picks, or None when some element is in too few sets."""
    membership = [0] * len(requirements)
    for s in family:
        for u in s:
            membership[u] += 1
    if any(req > have for req, have in zip(requirements, membership)):
        return None
    remaining = list(requirements)
    outstanding = sum(remaining)
    unused = [True] * len(family)
    picks = []
    while outstanding > 0:
        best, best_score = -1, 0
        for i, s in enumerate(family):
            if unused[i]:
                score = sum(1 for u in s if remaining[u] > 0)
                if score > best_score:
                    best, best_score = i, score
        unused[best] = False
        picks.append(best)
        for u in family[best]:
            if remaining[u] > 0:
                remaining[u] -= 1
                outstanding -= 1
    return tuple(picks)


def _eager_vector(inst: Instance) -> frozenset[int]:
    """Reference picks, each gain taken from the potential's definition.

    A candidate's gain is ``coverage_value(S + w) - coverage_value(S)``,
    evaluated from scratch, so nothing of ``CoverageState`` is involved.
    """
    g, demands = inst.graph, inst.demands
    chosen = {v for v in range(g.n) if demands[v] > g.degree(v)}
    value = coverage_value(inst, chosen)
    while value < sum(demands):
        best, best_value = -1, value
        for v in range(g.n):
            if v not in chosen:
                grown = coverage_value(inst, chosen | {v})
                if grown > best_value:
                    best, best_value = v, grown
        chosen.add(best)
        value = best_value
    return frozenset(chosen)


def _log_bound(size: int) -> float:
    return math.log(size) + 1.0 if size > 1 else 1.0


def _differential_graph(case: int, rng: random.Random) -> Graph:
    n = rng.randint(1, 40)
    kind = case % 6
    if kind == 0:
        p = rng.uniform(0.02, 0.6)
        return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    if kind == 1:
        return cycle_graph(max(n, 3))
    if kind == 2:
        return complete_graph(n)
    if kind == 3:
        return star_graph(n - 1)
    if kind == 4:
        return build_graph(n, [])
    # a union of equal small cliques and stars: many exactly tied candidates
    blocks = [complete_graph(3) if b % 2 else star_graph(3) for b in range(1 + n // 5)]
    return disjoint_union(blocks)[0]


def _differential_demands(g: Graph, rng: random.Random) -> tuple[int, ...]:
    top = rng.randint(0, 3)
    if rng.random() < 0.5:
        return (top,) * g.n
    # up to degree + 1, so forced vertices and infeasible total instances occur
    return tuple(rng.randint(0, min(g.degree(v) + 1, top)) for v in range(g.n))


def _check_total_greedy(g: Graph, demands: tuple[int, ...], closed: bool, case: object) -> None:
    """The multicover engine and its greedy against the eager reference."""
    if closed:
        family = tuple(tuple(sorted(g.neighbors(v) + (v,))) for v in range(g.n))
        inst, greedy = _total_closed(g, demands), greedy_multiple_domination
        bound = _log_bound(g.max_degree() + 1)
    else:
        family = g._adj
        inst, greedy = _total_open(g, demands), greedy_total_vector
        bound = _log_bound(g.max_degree())
    expected = _eager_multicover(family, demands)
    if expected is None:
        with pytest.raises(InfeasibleError):
            approx._multicover(family, demands)
        with pytest.raises(InfeasibleError):
            greedy(inst)
        return
    assert approx._multicover(family, demands) == expected, case
    sol = greedy(inst)
    assert sol.vertices == frozenset(expected), case
    assert sol.bound == bound


def _check_partial_greedy(g: Graph, demands: tuple[int, ...], case: object) -> None:
    inst = _partial_open(g, demands)
    sol = greedy_vector_domination(inst)
    assert sol.vertices == _eager_vector(inst), case
    best_single = max(
        (demands[v] + sum(1 for u in g.neighbors(v) if demands[u] > 0) for v in range(g.n)),
        default=0,
    )
    assert sol.bound == _log_bound(best_single)
    assert sol.coarse_bound == _log_bound(2 * g.max_degree())


def test_lazy_greedies_match_eager_reference() -> None:
    for case in range(1200):
        rng = random.Random(f"lazy-vs-eager:{case}")
        g = _differential_graph(case, rng)
        demands = _differential_demands(g, rng)
        _check_total_greedy(g, demands, False, case)
        _check_total_greedy(g, demands, True, case)
        _check_partial_greedy(g, demands, case)


def test_lazy_greedies_match_eager_reference_on_random_graphs() -> None:
    # shaped like the greedy benchmark: G(n, 0.05) and average degree 4,
    # demands up to 3 within what the neighbourhood supplies, and 5% of
    # the partial-scope vertices forced by a demand above their degree
    for n in (100, 150, 200, 300):
        for p in (0.05, 4 / (n - 1)):
            case = (n, p)
            rng = random.Random(f"lazy-vs-eager-gnp:{n}:{p}")
            g = random_gnp(n, p, rng)
            degrees = g.degrees()
            for closed in (False, True):
                demands = tuple(rng.randint(0, min(d + closed, 3)) for d in degrees)
                _check_total_greedy(g, demands, closed, case)
            demands = tuple(
                d + 1 if rng.random() < 0.05 else rng.randint(0, min(d, 3)) for d in degrees
            )
            assert any(k > d for k, d in zip(demands, degrees)), case
            _check_partial_greedy(g, demands, case)


# ---------------------------------------------------------------------------
# Explicit checks that hold under ``python -O`` too.


def test_stalled_potential_raises_instead_of_index_error(monkeypatch) -> None:
    class NoGain(CoverageState):
        def gain(self, w: int) -> int:
            return 0

    monkeypatch.setattr(approx, "CoverageState", NoGain)
    with pytest.raises(CertificationError):
        greedy_vector_domination(_partial_open(cycle_graph(4), UNIT))


def test_failed_certification_raises(monkeypatch) -> None:
    monkeypatch.setattr(
        feasibility, "is_feasible", lambda inst, chosen: feasibility.FeasibilityResult(False, (0,))
    )
    for greedy, inst in (
        (greedy_total_vector, _total_open(cycle_graph(4), UNIT)),
        (greedy_multiple_domination, _total_closed(cycle_graph(4), UNIT)),
        (greedy_vector_domination, _partial_open(cycle_graph(4), UNIT)),
    ):
        with pytest.raises(CertificationError):
            greedy(inst)


_OPTIMIZED_SCRIPT = """
import sys
from vecdom import (Instance, Neighborhood, Scope, cycle_graph,
                    greedy_multiple_domination, greedy_total_vector, greedy_vector_domination)
assert sys.flags.optimize >= 1 and not __debug__
g = cycle_graph(7)
k = (1, 2, 1, 0, 2, 1, 1)
for greedy, nbhd, scope in (
    (greedy_total_vector, Neighborhood.OPEN, Scope.TOTAL),
    (greedy_multiple_domination, Neighborhood.CLOSED, Scope.TOTAL),
    (greedy_vector_domination, Neighborhood.OPEN, Scope.PARTIAL),
):
    print(sorted(greedy(Instance(g, nbhd, scope, k)).vertices))
"""


def test_greedies_unchanged_under_optimize_flag() -> None:
    src = Path(approx.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    g = cycle_graph(7)
    k = (1, 2, 1, 0, 2, 1, 1)
    expected = [
        str(sorted(greedy_total_vector(_total_open(g, k)).vertices)),
        str(sorted(greedy_multiple_domination(_total_closed(g, k)).vertices)),
        str(sorted(greedy_vector_domination(_partial_open(g, k)).vertices)),
    ]
    assert done.stdout.split("\n")[:3] == expected
