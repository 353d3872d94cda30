"""Feasibility checking and the coverage potential with its marginals."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vecdom import (
    CoverageState,
    Instance,
    Neighborhood,
    Scope,
    coverage_target,
    coverage_value,
    cycle_graph,
    is_feasible,
    star_graph,
)
from vecdom.errors import AlreadyInSetError, WrongVariantError

from .strategies import PROPERTY_SETTINGS, THOROUGH_SETTINGS, graphs, instances, vertex_subsets


def _star_instance() -> Instance:
    return Instance(
        graph=star_graph(3),
        neighborhood=Neighborhood.OPEN,
        scope=Scope.PARTIAL,
        demands=(2, 1, 1, 1),
    )


def _naive_coverage(inst: Instance, chosen: frozenset[int]) -> int:
    total = 0
    for v in range(inst.graph.n):
        if v in chosen:
            total += inst.demands[v]
        else:
            inside = sum(1 for u in inst.graph.neighbors(v) if u in chosen)
            total += min(inside, inst.demands[v])
    return total


def _naive_feasible(inst: Instance, chosen: frozenset[int]) -> bool:
    for v in range(inst.graph.n):
        if inst.scope is Scope.PARTIAL and v in chosen:
            continue
        inside = sum(1 for u in inst.graph.neighbors(v) if u in chosen)
        if inst.neighborhood is Neighborhood.CLOSED and v in chosen:
            inside += 1
        if inside < inst.demands[v]:
            return False
    return True


class TestIsFeasible:
    def test_star_center_alone(self) -> None:
        result = is_feasible(_star_instance(), {0})
        assert result.feasible
        assert result.violations == ()

    def test_star_empty_set(self) -> None:
        result = is_feasible(_star_instance(), set())
        assert not result.feasible
        assert result.violations == (0, 1, 2, 3)

    def test_cycle_adjacent_pair_total(self) -> None:
        inst = Instance(
            graph=cycle_graph(4),
            neighborhood=Neighborhood.OPEN,
            scope=Scope.TOTAL,
            demands=(1, 1, 1, 1),
        )
        assert is_feasible(inst, {0, 1}).feasible

    @given(instances(extra=1))
    @PROPERTY_SETTINGS
    def test_matches_naive_recheck(self, inst) -> None:
        for mask in range(min(2**inst.graph.n, 128)):
            chosen = frozenset(v for v in range(inst.graph.n) if mask >> v & 1)
            result = is_feasible(inst, chosen)
            assert result.feasible == _naive_feasible(inst, chosen)
            assert result.feasible == (not result.violations)
            assert list(result.violations) == sorted(result.violations)


class TestCoverageValue:
    def test_empty_is_zero(self) -> None:
        assert coverage_value(_star_instance(), set()) == 0

    def test_full_set_hits_target(self) -> None:
        inst = _star_instance()
        assert coverage_value(inst, set(range(4))) == 5
        assert coverage_target(inst) == 5

    def test_center_alone_saturates(self) -> None:
        assert coverage_value(_star_instance(), {0}) == 5

    def test_rejects_total_scope(self) -> None:
        inst = Instance(
            graph=cycle_graph(4),
            neighborhood=Neighborhood.OPEN,
            scope=Scope.TOTAL,
            demands=(1, 1, 1, 1),
        )
        with pytest.raises(WrongVariantError):
            coverage_value(inst, set())

    @given(instances(neighborhoods=(Neighborhood.OPEN,), scopes=(Scope.PARTIAL,), extra=1))
    @PROPERTY_SETTINGS
    def test_matches_naive_and_characterizes_feasibility(self, inst) -> None:
        n = inst.graph.n
        target = coverage_target(inst)
        for mask in range(min(2**n, 256)):
            chosen = frozenset(v for v in range(n) if mask >> v & 1)
            value = coverage_value(inst, chosen)
            assert value == _naive_coverage(inst, chosen)
            assert 0 <= value <= target
            assert (value == target) == is_feasible(inst, chosen).feasible

    @given(instances(neighborhoods=(Neighborhood.OPEN,), scopes=(Scope.PARTIAL,)))
    @PROPERTY_SETTINGS
    def test_monotone(self, inst) -> None:
        n = inst.graph.n
        import random

        rng = random.Random(0)
        for _ in range(20):
            small = frozenset(v for v in range(n) if rng.random() < 0.3)
            grown = small | frozenset(v for v in range(n) if rng.random() < 0.3)
            assert coverage_value(inst, small) <= coverage_value(inst, grown)


class TestMarginalGain:
    def test_center_from_empty(self) -> None:
        state = CoverageState(_star_instance())
        assert state.gain(0) == 5

    def test_leaf_from_empty(self) -> None:
        state = CoverageState(_star_instance())
        assert state.gain(1) == 2

    def test_saturated_vertex_gains_nothing(self) -> None:
        inst = _star_instance()
        state = CoverageState(inst)
        state.add(0)
        # every demand already met and leaves have k=1 <= current count
        assert state.gain(1) == 0

    def test_member_rejected(self) -> None:
        state = CoverageState(_star_instance())
        state.add(0)
        with pytest.raises(AlreadyInSetError):
            state.gain(0)

    @given(instances(neighborhoods=(Neighborhood.OPEN,), scopes=(Scope.PARTIAL,), extra=1),
           st.randoms(use_true_random=False))
    @THOROUGH_SETTINGS
    def test_incremental_equals_scratch(self, inst, rng) -> None:
        n = inst.graph.n
        state = CoverageState(inst)
        members: set[int] = set()
        order = list(range(n))
        rng.shuffle(order)
        for w in order:
            before = coverage_value(inst, members)
            gain = state.gain(w)
            after = coverage_value(inst, members | {w})
            assert gain == after - before
            if rng.random() < 0.6:
                state.add(w)
                members.add(w)
            assert state.value == coverage_value(inst, members)


class TestSubmodularity:
    @given(instances(neighborhoods=(Neighborhood.OPEN,), scopes=(Scope.PARTIAL,), extra=1),
           st.randoms(use_true_random=False))
    @THOROUGH_SETTINGS
    def test_diminishing_returns(self, inst, rng) -> None:
        n = inst.graph.n
        if n < 2:
            return
        for _ in range(10):
            small = frozenset(v for v in range(n) if rng.random() < 0.25)
            big = small | frozenset(v for v in range(n) if rng.random() < 0.25)
            outside = [v for v in range(n) if v not in big]
            if not outside:
                continue
            w = rng.choice(outside)
            gain_small = coverage_value(inst, small | {w}) - coverage_value(inst, small)
            gain_big = coverage_value(inst, big | {w}) - coverage_value(inst, big)
            assert gain_big <= gain_small
