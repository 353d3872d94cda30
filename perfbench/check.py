"""Output checks written from the problem definition, apart from the solvers.

Nothing here imports ``vecdom``.  A set S is feasible when every vertex in
scope sees at least its demand k_v among the members of S in its
neighbourhood: partial scope exempts the members of S, total scope checks
every vertex, and a closed neighbourhood counts the vertex itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


class Case:
    """One instance as the checker sees it."""

    __slots__ = ("n", "adj", "demands", "closed", "total")

    def __init__(
        self,
        n: int,
        edges: list[tuple[int, int]],
        demands: list[int],
        closed: bool,
        total: bool,
    ) -> None:
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.adj = adj
        self.demands = demands
        self.closed = closed
        self.total = total


def compile_demands(
    threshold: dict, degree: list[int], closed: bool, explicit: list[int] | None = None
) -> list[int]:
    """Integer demands for a threshold rule, from the definitions.

    ``threshold`` is ``{"kind": "explicit"}`` (demands given in ``explicit``),
    ``{"kind": "uniform", "k": k}`` or ``{"kind": "fraction", "alpha": "p/q",
    "strict": bool}``.  A fraction asks for at least (weak) or more than
    (strict) alpha times the neighbourhood size.
    """
    kind = threshold["kind"]
    if kind == "explicit":
        if explicit is None or len(explicit) != len(degree):
            raise ValueError("explicit threshold needs one demand per vertex")
        return list(explicit)
    if kind == "uniform":
        return [threshold["k"]] * len(degree)
    alpha = Fraction(threshold["alpha"])
    out = []
    for d in degree:
        share = alpha * (d + 1 if closed else d)
        out.append(math.floor(share) + 1 if threshold["strict"] else math.ceil(share))
    return out


def coverage(case: Case, members: set[int]) -> list[int]:
    cov = [0] * case.n
    adj = case.adj
    for w in members:
        for u in adj[w]:
            cov[u] += 1
        if case.closed:
            cov[w] += 1
    return cov


def violations(case: Case, members: set[int]) -> list[int]:
    """Vertices in scope that see fewer chosen neighbours than they demand."""
    cov = coverage(case, members)
    return [
        v
        for v in range(case.n)
        if (case.total or v not in members) and cov[v] < case.demands[v]
    ]


def removable(case: Case, members: set[int]) -> list[int]:
    """Members whose removal leaves a feasible set (``members`` must be feasible).

    Dropping w lowers the count of each neighbour by one, lowers w's own
    count by one under a closed neighbourhood, and under partial scope puts
    w itself back in scope.  Every other vertex is unaffected.
    """
    cov = coverage(case, members)
    k = case.demands
    out = []
    for w in members:
        if cov[w] - case.closed < k[w]:
            continue
        if any(
            cov[u] - 1 < k[u]
            for u in case.adj[w]
            if case.total or u not in members
        ):
            continue
        out.append(w)
    return out


def brute_force_size(case: Case) -> int | None:
    """Smallest feasible size by exhaustive search, or None if none exists."""
    n = case.n
    masks = []
    for v in range(n):
        mask = 0
        for u in case.adj[v]:
            mask |= 1 << u
        if case.closed:
            mask |= 1 << v
        masks.append(mask)
    need = [(v, case.demands[v], masks[v]) for v in range(n) if case.demands[v]]
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            chosen = 0
            for v in combo:
                chosen |= 1 << v
            for v, k, mask in need:
                if not case.total and chosen >> v & 1:
                    continue
                if (mask & chosen).bit_count() < k:
                    break
            else:
                return size
    return None


def _log_bound(size: int) -> float:
    return math.log(size) + 1.0 if size > 1 else 1.0


def greedy_bound(case: Case, method: str) -> float:
    """The factor a greedy answer must report, recomputed from the instance.

    The partial-scope greedy is bounded by ln of the best single-vertex
    coverage value, k_v plus one per neighbour with a positive demand.  The
    multicover greedies are bounded by ln of the largest set: the open
    neighbourhood (total vector domination) or the closed one (multiple
    domination).
    """
    k = case.demands
    if method == "greedy-vector-domination":
        best = max(
            (k[v] + sum(1 for u in case.adj[v] if k[u] > 0) for v in range(case.n)),
            default=0,
        )
        return _log_bound(best)
    top = max((len(row) for row in case.adj), default=0)
    if method == "greedy-multiple-domination":
        top += 1
    return _log_bound(top)


def check_answer(
    case: Case,
    vertices: list[int],
    quality: str,
    method: str,
    bound: float | None,
    optimum: int | None = None,
) -> list[str]:
    """Every problem found with one answer; an empty list means it passed.

    ``vertices`` are 0-based.  ``optimum``, when known, is the exact minimum
    size the answer must match.
    """
    problems = []
    members = set(vertices)
    if len(members) != len(vertices):
        problems.append("repeated vertex in the answer")
    if any(not 0 <= v < case.n for v in members):
        problems.append("vertex id out of range")
        return problems
    if quality == "approx":
        # implied by feasibility, but named on its own: the greedies seed
        # these vertices before their first round
        unforced = [
            v
            for v in range(case.n)
            if case.demands[v] > len(case.adj[v]) and v not in members
        ]
        if unforced:
            problems.append(f"vertex {unforced[0]} demands more than its degree but is not chosen")
        expected = greedy_bound(case, method)
        if bound is None or not math.isclose(bound, expected, rel_tol=1e-12):
            problems.append(f"bound {bound} differs from the recomputed {expected}")
    elif quality != "optimal":
        problems.append(f"unexpected quality {quality!r}")
    bad = violations(case, members)
    if bad:
        problems.append(f"infeasible: {len(bad)} vertices short, first {bad[0]}")
        return problems
    if quality == "optimal":
        spare = removable(case, members)
        if spare:
            problems.append(f"not inclusion-minimal: vertex {spare[0]} can be removed")
    if optimum is not None and len(members) != optimum:
        problems.append(f"size {len(members)} differs from the brute-force optimum {optimum}")
    return problems


def read_graph(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Parse the benchmark's own DIMACS-style files: a header, then e-lines."""
    n = 0
    edges = []
    for line in text.splitlines():
        fields = line.split()
        if fields[0] == "p":
            n = int(fields[2])
        elif fields[0] == "e":
            edges.append((int(fields[1]) - 1, int(fields[2]) - 1))
    return n, edges


def read_demands(text: str, n: int) -> list[int]:
    demands = [0] * n
    for line in text.splitlines():
        v, k = line.split()
        demands[int(v) - 1] = int(k)
    return demands
