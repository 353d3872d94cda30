"""Greedy solvers with logarithmic approximation guarantees.

Total-scope problems reduce to multicover: pick neighbourhood sets until
every vertex is covered as often as its demand.  The greedy that always
takes the set covering the most still-unmet demand is a
``ln(largest set size) + 1`` approximation.

Partial-scope problems use the coverage potential from
:mod:`vecdom.feasibility` instead: grow the set by the vertex with the
largest marginal gain until the potential tops out.  The guarantee is
``ln(best single-vertex value) + 1``, which never exceeds
``ln(2 * max degree) + 1``.

Both greedies keep every candidate's score exact as the solution grows,
in O(size of the input) over the whole run: a multicover set's score
drops by one when one of its elements is met, and the coverage
potential's gains are kept by :class:`~vecdom.feasibility.CoverageState`.
The queue of candidates stays lazy (Minoux's accelerated greedy).  A
score never rises, since the multicover score only loses elements and
the coverage potential is submodular, so a queue key from an earlier
round is an upper bound on today's score, and a candidate whose score
still equals its key beats every other candidate.  Keys are buckets of
equal score, each a min-heap of ids, which keeps the eager tie-break, so
the picks, their order and the guarantees are exactly those of the
greedy that rescans every candidate each round.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    CertificationError,
    DuplicateVertexError,
    InfeasibleError,
    MissingParamError,
    OutOfRangeError,
    WrongVariantError,
)
from .feasibility import CoverageState, Solution, coverage_target
from .variants import Instance, Neighborhood, Scope

__all__ = [
    "GREEDY_METHODS",
    "MulticoverInstance",
    "greedy_multicover",
    "greedy_solution",
    "greedy_total_vector",
    "greedy_multiple_domination",
    "greedy_vector_domination",
]

# Solution.method of the greedy for each (scope, neighbourhood) it handles
GREEDY_METHODS = {
    (Scope.PARTIAL, Neighborhood.OPEN): "greedy-vector-domination",
    (Scope.TOTAL, Neighborhood.OPEN): "greedy-total-vector",
    (Scope.TOTAL, Neighborhood.CLOSED): "greedy-multiple-domination",
}


def _lazy_picks(
    initial: Iterable[tuple[int, int]], score: Callable[[int], int]
) -> Iterator[int]:
    """Candidates in eager greedy order: best current score, smallest id.

    ``initial`` holds ``(id, score)`` pairs at the start, ids ascending.
    The caller commits each yielded candidate before asking for the next,
    and no commit may raise any other candidate's score.  Candidates whose
    score drops to zero are dropped, as the eager greedy never takes them.

    Each candidate waits in the bucket of a score it once had, a min-heap
    of ids.  The top bucket's smallest id is re-scored: if its score still
    equals the bucket's, it has the best score and the smallest id among
    the candidates with that score, and it is picked; otherwise it moves
    down to the bucket of its current score.
    """
    waiting = [(i, s) for i, s in initial if s > 0]
    buckets: list[list[int]] = [[] for _ in range(max((s for _, s in waiting), default=0) + 1)]
    for i, s in waiting:
        buckets[s].append(i)  # ascending, so already a heap
    top = len(buckets) - 1
    while top > 0:
        bucket = buckets[top]
        if not bucket:
            top -= 1
            continue
        i = heapq.heappop(bucket)
        fresh = score(i)
        if fresh == top:
            yield i
        elif fresh > 0:
            heapq.heappush(buckets[fresh], i)


@dataclass(frozen=True)
class MulticoverInstance:
    """Cover each element u of 0..universe_size-1 by requirement[u] distinct sets."""

    universe_size: int
    family: tuple[tuple[int, ...], ...]
    requirements: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.requirements) != self.universe_size:
            raise MissingParamError(
                f"expected {self.universe_size} requirements, "
                f"got {len(self.requirements)}"
            )
        for i, s in enumerate(self.family):
            if s and (min(s) < 0 or max(s) >= self.universe_size):
                raise OutOfRangeError(f"set {i} leaves the range 0..{self.universe_size - 1}")
            if len(set(s)) != len(s):
                raise DuplicateVertexError(f"set {i} lists an element twice")


def greedy_multicover(mc: MulticoverInstance) -> tuple[int, ...]:
    """Indices of the chosen sets, in selection order.

    Each round selects the set covering the most elements with unmet
    requirement, ties broken by smallest index.  A set counts at most once
    per element, as multicover demands distinct sets.

    Raises:
        InfeasibleError: some element appears in fewer sets than required,
            or no set still covers an element with unmet requirement.
    """
    holders: list[list[int]] = [[] for _ in range(mc.universe_size)]
    for i, s in enumerate(mc.family):
        for u in s:
            holders[u].append(i)
    return _multicover(mc.family, holders, mc.requirements)


def _multicover(
    family: Sequence[Sequence[int]],
    holders: Sequence[Sequence[int]],
    requirements: Sequence[int],
) -> tuple[int, ...]:
    """:func:`greedy_multicover` on a well-formed family; ``holders[u]`` lists u's sets."""
    for u, (req, have) in enumerate(zip(requirements, map(len, holders))):
        if req > have:
            raise InfeasibleError(f"element {u} needs {req} sets but appears in only {have}")
    remaining = list(requirements)
    outstanding = sum(remaining)
    if outstanding == 0:
        return ()
    # live[i]: the elements of set i whose requirement is still unmet
    positive = [req > 0 for req in remaining]
    live = [sum(map(positive.__getitem__, s)) for s in family]
    picks: list[int] = []
    for best in _lazy_picks(enumerate(live), live.__getitem__):
        picks.append(best)
        for u in family[best]:
            left = remaining[u]
            if left > 0:
                remaining[u] = left - 1
                outstanding -= 1
                if left == 1:
                    for i in holders[u]:
                        live[i] -= 1
        if outstanding == 0:
            return tuple(picks)
    raise InfeasibleError(
        f"no set covers the {outstanding} requirement units still unmet"
    )


def _harmonic_style_bound(size: int) -> float:
    return math.log(size) + 1.0 if size > 1 else 1.0


def _certified_greedy(inst: Instance, scope: Scope, neighborhood: Neighborhood) -> Solution:
    if inst.scope is not scope or inst.neighborhood is not neighborhood:
        raise WrongVariantError(
            f"expected a {scope.value}-scope {neighborhood.value}-neighbourhood instance"
        )
    from .exact import solve  # exact imports this module

    return solve(inst, "greedy")


def greedy_total_vector(inst: Instance) -> Solution:
    """Greedy for total scope with open neighbourhoods.

    Raises:
        InfeasibleError: some demand exceeds the vertex degree.
        CertificationError: the chosen set fails its feasibility check.
    """
    return _certified_greedy(inst, Scope.TOTAL, Neighborhood.OPEN)


def greedy_multiple_domination(inst: Instance) -> Solution:
    """Greedy for total scope with closed neighbourhoods.

    Raises:
        InfeasibleError: some demand exceeds degree plus one.
        CertificationError: the chosen set fails its feasibility check.
    """
    return _certified_greedy(inst, Scope.TOTAL, Neighborhood.CLOSED)


def greedy_vector_domination(inst: Instance) -> Solution:
    """Submodular-cover greedy for partial scope with open neighbourhoods.

    Vertices whose demand exceeds their degree can never be served from
    outside, so they are seeded into the set up front.  Afterwards the
    vertex with the best marginal coverage gain is added until the
    potential reaches its maximum; ties fall to the smallest id.  Never
    infeasible: the full vertex set always works.

    Raises:
        CertificationError: the potential stalls below its maximum, or the
            chosen set fails its feasibility check.
    """
    return _certified_greedy(inst, Scope.PARTIAL, Neighborhood.OPEN)


def greedy_solution(inst: Instance, forced: Sequence[int]) -> Solution:
    """The greedy's answer for the instance's variant, not yet certified.

    Total scope covers by open or closed neighbourhoods, once every demand
    is known to fit; partial scope grows the set from ``forced``.
    """
    g = inst.graph
    method = GREEDY_METHODS[(inst.scope, inst.neighborhood)]
    if inst.scope is Scope.TOTAL:
        family, largest = g._adj, g.max_degree()
        if inst.neighborhood is Neighborhood.CLOSED:
            family = [row + (v,) for v, row in enumerate(family)]
            largest += 1
        # Graph rows are in range and duplicate-free: nothing to validate.
        # Neighbourhoods are symmetric: the sets holding u are N(u), or N[u]
        picks = _multicover(family, family, inst.demands)
        bound = _harmonic_style_bound(largest)
        return Solution(frozenset(picks), "feasible", "approx", method, bound)
    state = CoverageState(inst)
    # best single-vertex potential: the largest gain from the empty set
    best_single = max(state.gains, default=0)
    for v in forced:
        state.add(v)
    target = coverage_target(inst)
    if state.value < target:
        candidates = ((v, state.gain(v)) for v in range(g.n) if v not in state.members)
        for best in _lazy_picks(candidates, state.gain):
            state.add(best)
            if state.value >= target:
                break
        else:
            raise CertificationError(
                f"potential stuck at {state.value} below its maximum {target}"
            )
    bound = _harmonic_style_bound(best_single)
    coarse = _harmonic_style_bound(2 * g.max_degree())
    return Solution(frozenset(state.members), "feasible", "approx", method, bound, coarse)
