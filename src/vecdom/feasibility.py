"""Feasibility checking and the coverage potential used by the greedy solver.

For a partial-scope, open-neighbourhood instance the potential of a set S is

    value(S) = sum over vertices v of credit_v(S)

where ``credit_v(S)`` is the full demand ``k_v`` if v is in S, and otherwise
``min(|S intersect N(v)|, k_v)``.  The potential is integer valued, zero on
the empty set, monotone, and submodular, and it reaches its maximum
``value(V)`` exactly on the feasible sets.  That makes it the right objective
for a submodular-cover greedy.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Iterable

from .errors import AlreadyInSetError, CertificationError, WrongVariantError
from .variants import Instance, Neighborhood, Scope

__all__ = [
    "Solution",
    "FeasibilityResult",
    "is_feasible",
    "certify",
    "coverage_value",
    "coverage_target",
    "CoverageState",
]


@dataclass(frozen=True)
class Solution:
    """A solver's answer: the chosen vertices plus provenance metadata.

    ``quality`` is ``optimal`` for exact solvers and ``approx`` for the
    greedies, whose proven ratio is stored in ``bound``.  ``coarse_bound``
    carries the degree-only form of the same guarantee when one exists.
    A solver that cannot return a feasible set raises instead.
    """

    vertices: frozenset[int]
    status: str  # "feasible"
    quality: str  # "optimal" | "approx"
    method: str
    bound: float | None = None
    coarse_bound: float | None = None

    @property
    def size(self) -> int:
        return len(self.vertices)

    def sorted_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.vertices))


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    violations: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.feasible


def _coverage_counts(inst: Instance, chosen: Iterable[int]) -> list[int]:
    """counts[v] = number of chosen vertices in the open neighbourhood of v."""
    counts = [0] * inst.graph.n
    adj = inst.graph._adj
    for w in chosen:
        for u in adj[w]:
            counts[u] += 1
    return counts


def is_feasible(inst: Instance, chosen: Iterable[int]) -> FeasibilityResult:
    """Check a vertex set against the instance, listing violated vertices."""
    members = chosen if isinstance(chosen, (set, frozenset)) else set(chosen)
    counts = _coverage_counts(inst, members)
    closed = inst.neighborhood is Neighborhood.CLOSED
    partial = inst.scope is Scope.PARTIAL
    demands = inst.demands
    violations = []
    for v in range(inst.graph.n):
        inside = v in members
        if partial and inside:
            continue
        have = counts[v] + (1 if closed and inside else 0)
        if have < demands[v]:
            violations.append(v)
    return FeasibilityResult(not violations, tuple(violations))


def certify(inst: Instance, chosen: frozenset[int], method: str) -> None:
    """A solver's last step: check its own answer against the instance.

    Raises:
        CertificationError: some vertex is left short of its demand.
    """
    violations = is_feasible(inst, chosen).violations
    if violations:
        shown = ", ".join(str(v) for v in violations[:10])
        raise CertificationError(
            f"{method} returned a set that leaves {len(violations)} vertices "
            f"short of their demand (first: {shown})"
        )


def _require_partial_open(inst: Instance, what: str) -> None:
    if inst.scope is not Scope.PARTIAL or inst.neighborhood is not Neighborhood.OPEN:
        raise WrongVariantError(
            f"{what} is defined for partial scope with open neighbourhoods only"
        )


def coverage_target(inst: Instance) -> int:
    """The potential's maximum, reached exactly by feasible sets."""
    return sum(inst.demands)


def coverage_value(inst: Instance, chosen: Iterable[int]) -> int:
    """Evaluate the coverage potential of a set from scratch."""
    _require_partial_open(inst, "the coverage potential")
    members = chosen if isinstance(chosen, (set, frozenset)) else set(chosen)
    counts = _coverage_counts(inst, members)
    demands = inst.demands
    total = 0
    for v in range(inst.graph.n):
        if v in members:
            total += demands[v]
        else:
            c = counts[v]
            k = demands[v]
            total += c if c < k else k
    return total


class CoverageState:
    """Incrementally maintained coverage potential for a growing set.

    ``gains[w]`` is kept equal to the potential increase from adding an
    unchosen w: its own deficit plus one per *needy* neighbour, one that
    is unchosen and still short of its demand.  ``gain`` is an O(1) read.
    ``add(w)`` costs O(deg w), plus O(deg u) for each neighbour u it
    fills, which happens once per vertex, so a whole greedy run costs
    O(n + m).  Gains of chosen vertices are not kept.
    """

    __slots__ = ("instance", "members", "counts", "value", "gains", "needy")

    def __init__(self, instance: Instance) -> None:
        _require_partial_open(instance, "the coverage potential")
        self.instance = instance
        self.members: set[int] = set()
        self.counts = [0] * instance.graph.n
        self.value = 0
        self.needy = [k > 0 for k in instance.demands]
        needy_around = (sum(map(self.needy.__getitem__, row)) for row in instance.graph._adj)
        self.gains = list(map(add, instance.demands, needy_around))

    def gain(self, w: int) -> int:
        """Potential increase from adding w, without adding it."""
        if w in self.members:
            raise AlreadyInSetError(f"vertex {w} is already chosen")
        return self.gains[w]

    def add(self, w: int) -> None:
        if w in self.members:
            raise AlreadyInSetError(f"vertex {w} is already chosen")
        adj = self.instance.graph._adj
        demands = self.instance.demands
        counts, gains, needy = self.counts, self.gains, self.needy
        self.value += gains[w]
        self.members.add(w)
        if needy[w]:
            needy[w] = False
            for x in adj[w]:
                gains[x] -= 1
        for u in adj[w]:
            counts[u] += 1
            if needy[u]:
                gains[u] -= 1
                if counts[u] == demands[u]:
                    needy[u] = False
                    for x in adj[u]:
                        gains[x] -= 1
