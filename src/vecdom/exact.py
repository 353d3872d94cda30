"""Exact solvers for vector domination, and the one pipeline that runs them.

:func:`solve` is the only way from an instance to an answer.  Every public
solver here, the greedies, ``auto_solve``, the CLI and ``bench`` are one
call to it, so a graph class is recognised once, and every answer is
certified once with :func:`~vecdom.feasibility.certify`.
``brute_force_minimum`` is the reference oracle the others are validated
against.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, repeat
from typing import Callable, Iterable, Iterator, Sequence

from .approx import GREEDY_METHODS, greedy_solution
from .decomposition import (
    Cotree,
    build_modified_cotree,
    recognise,
    threshold_cotree,
    threshold_elimination_order,
)
from .errors import (
    InfeasibleError,
    NotATreeError,
    NotCompleteError,
    TooLargeError,
    WrongVariantError,
)
from .feasibility import Solution, certify
from .graph import Graph, tree_order
from .variants import Instance, Neighborhood, Scope, reduce_forced

__all__ = [
    "DEFAULT_ORACLE_CAP",
    "METHODS",
    "brute_force_minimum",
    "solve_complete_vector",
    "solve_complete_total",
    "solve_tree_vector",
    "solve_cograph",
    "solve_threshold_vector",
    "auto_solve",
    "solve",
]

DEFAULT_ORACLE_CAP = 20

METHODS = ("auto", "greedy", "oracle", "tree", "cograph", "threshold", "complete")

# auto attempts class recognition only up to this size. What it bounds is
# the cograph DP's table, of order n^2 entries with demands up to the degree
# (7.5M and 10 s on random_cograph(4000)); ROADMAP item 4 prices the
# certificate instead
_RECOGNITION_CAP = 4096


def brute_force_minimum(inst: Instance, cap: int = DEFAULT_ORACLE_CAP) -> Solution:
    """Exhaustive reference solver.

    Subsets are enumerated by increasing cardinality and, within one
    cardinality, in lexicographic order of the sorted vertex tuple; the
    first feasible subset is returned.  That fixes which optimal set comes
    back when several exist.

    Raises:
        TooLargeError: the graph exceeds the size cap.
        InfeasibleError: no subset works (possible only under total scope).
    """
    return solve(inst, "oracle", cap)


def _oracle(inst: Instance, *_: object) -> Iterable[int]:
    g = inst.graph
    n = g.n
    demands = inst.demands
    total = inst.scope is Scope.TOTAL
    closed = inst.neighborhood is Neighborhood.CLOSED
    masks = []
    for v in range(n):
        mask = 0
        for u in g.neighbors(v):
            mask |= 1 << u
        if closed:
            mask |= 1 << v
        masks.append(mask)
    checklist = sorted(
        (v for v in range(n) if demands[v] > 0), key=lambda v: -demands[v]
    )
    if not checklist:
        return ()
    if total:
        smallest = max(demands)
    else:
        # any feasible set of size s contains every vertex demanding more than s
        smallest = 0
        while sum(1 for v in checklist if demands[v] > smallest) > smallest:
            smallest += 1
    check = [(v, demands[v], masks[v]) for v in checklist]
    for size in range(smallest, n + 1):
        for mask in _subset_masks(n, size) if n <= _CACHED_MASKS else _masks(n, size):
            for v, need, nbrs in check:
                if not total and (mask >> v) & 1:
                    continue
                if (nbrs & mask).bit_count() < need:
                    break
            else:
                return [v for v in range(n) if (mask >> v) & 1]
    raise InfeasibleError("no vertex subset satisfies the instance")


def _masks(n: int, size: int) -> Iterator[int]:
    """The masks of the ``size``-subsets of ``range(n)``, in lexicographic order."""
    return map(sum, combinations([1 << v for v in range(n)], size))


# the oracle's subset masks are kept for graphs up to this size: 2^n masks each
_CACHED_MASKS = 12


@cache
def _subset_masks(n: int, size: int) -> tuple[int, ...]:
    return tuple(_masks(n, size))


def solve_complete_vector(g: Graph, demands: Sequence[int]) -> Solution:
    """Partial-scope solver for complete graphs.

    With demands sorted in descending order, the answer is the shortest
    prefix that is long enough to serve the next demand after it: everyone
    outside the prefix sees the whole prefix.  All-zero demands need
    nothing at all.
    """
    return solve(Instance(g, Neighborhood.OPEN, Scope.PARTIAL, tuple(demands)), "complete")


def _complete_vector(inst: Instance, *_: object) -> Iterable[int]:
    n = inst.graph.n
    k = inst.demands
    if n == 0 or max(k) == 0:
        return ()
    # counting sort, descending demand, ascending id inside a bucket;
    # demands above n all sort before any reachable comparison so they
    # can share one bucket
    buckets: list[list[int]] = [[] for _ in range(n + 1)]
    for v in range(n):
        buckets[min(k[v], n)].append(v)
    order = [v for value in range(n, -1, -1) for v in buckets[value]]
    prefix = n
    for i in range(1, n + 1):
        next_demand = k[order[i]] if i < n else 0
        if i >= next_demand:
            prefix = i
            break
    return order[:prefix]


def solve_complete_total(g: Graph, demands: Sequence[int]) -> Solution:
    """Total-scope solver for complete graphs.

    Let K be the largest demand and M the set of vertices attaining it.
    K vertices chosen outside M serve everyone; if M is too large to allow
    that, any K+1 vertices do.  Smallest ids are preferred throughout.

    Raises:
        InfeasibleError: some demand exceeds n - 1.
    """
    return solve(Instance(g, Neighborhood.OPEN, Scope.TOTAL, tuple(demands)), "complete")


def _complete_total(inst: Instance, *_: object) -> Iterable[int]:
    n = inst.graph.n
    k = inst.demands
    top = max(k, default=0)
    if top == 0:
        return ()
    below = [v for v in range(n) if k[v] < top]
    if n - len(below) <= n - top:
        return below[:top]
    return range(top + 1)


def solve_tree_vector(g: Graph, demands: Sequence[int]) -> Solution:
    """Linear-time partial-scope solver for trees.

    Vertices demanding more than their degree can never be served from
    outside, so they are forced into the answer first and their
    neighbours' demands shrink accordingly.  The forest T - F left by the
    forced set F is swept leaves-to-root in reverse order of the BFS from 0
    that recognised the tree, each part rooted at its vertex nearest 0.  A vertex still short
    two or more units after its children are settled joins the set
    itself; a vertex short exactly one unit pulls in its parent.
    Per-vertex counters of chosen children keep the sweep linear.

    Raises:
        NotATreeError: the graph is disconnected or has a cycle.
    """
    return solve(Instance(g, Neighborhood.OPEN, Scope.PARTIAL, tuple(demands)), "tree")


def _tree(inst: Instance, walk: tuple, forced: list[int]) -> Iterable[int]:
    order, parent = walk
    n = inst.graph.n
    adj = inst.graph._adj
    in_forced = bytearray(n)
    # each demand drops by one per forced neighbour, never below zero
    k = list(inst.demands) if forced else inst.demands
    for v in forced:
        in_forced[v] = 1
        for u in adj[v]:
            if k[u]:
                k[u] -= 1
    chosen_list = list(forced)
    in_s = bytearray(n)
    processed = in_forced[:]  # the sweep skips forced vertices
    child_chosen = [0] * n
    for v in reversed(order):
        if processed[v]:
            continue
        processed[v] = 1
        kv = k[v]
        pv = parent[v]
        if pv == v or in_forced[pv]:  # the root of its part of T - F
            if child_chosen[v] < kv:
                in_s[v] = 1
                chosen_list.append(v)
        else:
            c = child_chosen[v]
            if c <= kv - 2:
                in_s[v] = 1
                chosen_list.append(v)
                child_chosen[pv] += 1
            elif c == kv - 1:
                if not in_s[pv]:
                    in_s[pv] = 1
                    chosen_list.append(pv)
                    # a root's parent is itself or forced: never swept again
                    child_chosen[parent[pv]] += 1
                processed[pv] = 1
    return chosen_list


def solve_cograph(inst: Instance) -> Solution:
    """Optimal solver for graphs without induced four-vertex paths.

    Works bottom-up over the binarised cotree's preorder arrays, in place.
    For every node H and every externally supplied discount r (neighbours
    of H promised from the outside), the table holds the size of a minimum
    set for H with all demands lowered by r.  H's row stops at the largest
    demand K inside H, where it reaches 0; it is flat past K, so every
    lookup clips to the row's end.  Leaves are immediate; union nodes add
    up their parts; a join node guesses, per discount, how many vertices
    each side will contribute to the other, and never guesses more than
    brings the receiving side's row to its end.  :func:`_join_row` finds
    each discount's least size in O(K) steps, so a join costs O(K^2)
    whatever the degrees.  The answer is rebuilt once, discounts top-down
    (:func:`_join_pair` finds a join's guess at its discount) and sets
    bottom-up, padding a side with its smallest unchosen ids when a guess
    exceeds what it picked for itself; only then is a side's range sorted.

    Forced vertices stay in the cotree: under partial scope a vertex
    demanding more than its degree gets the flat row [1], as a discount
    counts distinct chosen neighbours and never reaches its demand.  Total
    scope reports such a vertex infeasible up front, and makes any
    subproblem that cannot be served an infeasible table entry that
    absorbs everything it joins.

    Raises:
        NotCographError: the input graph contains an induced P4.
        InfeasibleError: total scope and no set serves every vertex.
        WrongVariantError: closed neighbourhoods are not supported here.
    """
    if inst.neighborhood is not Neighborhood.OPEN:
        raise WrongVariantError("the cograph solver handles open neighbourhoods only")
    return solve(inst, "cograph")


def _cograph(inst: Instance, tree: Cotree | None, *_: object) -> Iterable[int]:
    g = inst.graph
    n = g.n
    if n == 0:
        return ()
    if tree is None:
        # recognised here, after the total-scope feasibility check
        tree = build_modified_cotree(g)
    kinds, ends, starts, leaves = tree
    count = len(kinds)
    infeasible = n + 1  # a size no set reaches: the subproblem cannot be served
    alone = infeasible if inst.scope is Scope.TOTAL else 1
    demands, adj = inst.demands, g._adj
    # minimum sizes per node and discount, up to the largest demand below
    # (the row is 0 there and flat past it).  A join's children are k + 1
    # and the end of k + 1's subtree, with sides[k] their vertex counts.
    sizes: list[list[int]] = [[]] * count
    sides: dict[int, tuple[int, int]] = {}
    for k in range(count - 1, -1, -1):
        kind = kinds[k]
        if kind == "leaf":
            v = leaves[starts[k]]
            kv = demands[v]
            # forced (partial scope only: total scope has raised)
            sizes[k] = [1] if kv > len(adj[v]) else [alone] * kv + [0]
        elif kind == "union":
            parts = [sizes[c] for c in tree.children(k)]
            width = max(map(len, parts))
            columns = zip(*[part + part[-1:] * (width - len(part)) for part in parts])
            sizes[k] = [s if s < infeasible else infeasible for s in map(sum, columns)]
        else:
            d = ends[k + 1]
            sides[k] = starts[d] - starts[k], starts[ends[d]] - starts[d]
            sizes[k] = _join_row(sizes[k + 1], sizes[d], *sides[k], infeasible)
    if sizes[0][0] == infeasible:
        raise InfeasibleError("no vertex subset satisfies the instance")
    # the discount each node is solved at, top-down from 0 at the root and
    # clipped to the node's own row; a join's (i, j) is found at that one
    # discount, and its left side gets i more, its right side j more
    discount = [0] * count
    pairs: dict[int, tuple[int, int]] = {}
    for k in range(count):
        if kinds[k] != "leaf":
            r = discount[k]
            if kinds[k] == "join":
                pairs[k] = _join_pair(sizes[k + 1], sizes[ends[k + 1]], *sides[k], r, sizes[k][r])
            for child, shift in zip(tree.children(k), pairs.get(k, repeat(0))):
                top = len(sizes[child]) - 1
                discount[child] = r + shift if r + shift < top else top
    # then the sets bottom-up: a join pads each side with its smallest
    # unchosen ids up to what the other side counts on
    in_set = bytearray(n)
    for k in range(count - 1, -1, -1):
        kind = kinds[k]
        if kind == "leaf":
            in_set[leaves[starts[k]]] = sizes[k][discount[k]]
        elif kind == "join":
            i, j = pairs[k]
            for side, want in ((k + 1, j), (ends[k + 1], i)):
                short = want - sizes[side][discount[side]]
                if short > 0:
                    own = sorted(leaves[starts[side] : starts[ends[side]]])
                    for v in [v for v in own if not in_set[v]][:short]:
                        in_set[v] = 1
    return [v for v in range(n) if in_set[v]]


def _join_row(
    left: list[int], right: list[int], n_left: int, n_right: int, infeasible: int
) -> list[int]:
    """A join node's row from its sides' rows.

    At discount r the left side is promised i more chosen neighbours from
    the right and the right side j more from the left, for a size of
    g(i, j) = max(A_i, j) + max(B_j, i) with A_i = left[r + i] and
    B_j = right[r + j].  Both are non-increasing, ``infeasible`` on a
    prefix and flat past their rows' ends, so i stops at I, the left row's
    end or n_right, and j at J, the right row's end or n_left.

    Raising j to min(A_i, J) or i to min(B_j, I) never raises g, so the
    least g is i + j with j = max(A_i, the first j with B_j <= i) for some
    i, or g(i, J) where that j passes J, or g(I, j) with B_j > I.  The
    first j with B_j <= i only moves left as i grows, so a discount costs
    O(I + J), and a join O(K^2) for the largest demand K below it.
    """
    row: list[int] = []
    for r in range(max(len(left), len(right))):
        # past its row's end a side's slice is empty, and its last entry stands in
        a = left[r : r + n_right + 1] or left[-1:]
        b = right[r : r + n_left + 1] or right[-1:]
        last, b_last = len(b) - 1, b[-1]
        best = infeasible
        first = last + 1  # the first j with b[j] <= i
        for i in range(a.count(infeasible), len(a)):
            while first and b[first - 1] <= i:
                first -= 1
            ai = a[i]
            j = ai if ai > first else first
            if j <= last:
                value = i + j
            else:
                value = (ai if ai > last else last) + (b_last if b_last > i else i)
            if value < best:
                best = value
        # i = I, where b[j] > I for every j before the first
        ai = a[-1]
        for j in range(first):
            value = (ai if ai > j else j) + b[j]
            if value < best:
                best = value
        row.append(best)
    return row


def _join_pair(
    left: list[int], right: list[int], n_left: int, n_right: int, r: int, size: int
) -> tuple[int, int]:
    """The first (i, j), i outside and j inside, with g(i, j) = ``size``, the entry at r.

    That is the pair a scan of every pair meets first; g is as in :func:`_join_row`.
    """
    a = left[r : r + n_right + 1] or left[-1:]
    b = right[r : r + n_left + 1] or right[-1:]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if (ai if ai > j else j) + (bj if bj > i else i) == size:
                return i, j


def _threshold_takes(
    count: int,
    position_demand: list[int],
    kinds: tuple[str, ...],
    later_dom: tuple[int, ...],
) -> list[list[bool]]:
    """Per (position, discount), whether an optimal set takes that position's vertex.

    The minimum sizes behind it run per position i (0-based), for the
    subgraph of the first i+1 ordered vertices, and per discount j up to
    the p-value: j chosen vertices arriving later, all adjacent (they are
    exactly the later dominating vertices, hence the p-value cap).  An
    isolated vertex is taken when the discount leaves it short.  A
    dominating vertex either stays out, requiring its whole subgraph to
    hold enough chosen vertices, or goes in, raising the discount below it
    by one.
    """
    prev = [1 if position_demand[0] > j else 0 for j in range(later_dom[0] + 1)]
    takes = [[size == 1 for size in prev]]
    for i in range(1, count):
        ki = position_demand[i]
        pi = later_dom[i]
        if kinds[i] == "isolated":
            take = [ki > j for j in range(pi + 1)]
            row = [prev[j] + take[j] for j in range(pi + 1)]
        else:
            take, row = [], []
            for j in range(pi + 1):
                need = ki - j
                stay = prev[j] if prev[j] >= need else need
                step = 1 + prev[j + 1]
                # staying out is only realisable when the i vertices below
                # can physically supply the need; on ties the sizes agree
                taken = need > i or stay > step
                take.append(taken)
                row.append(step if taken else stay)
        takes.append(take)
        prev = row
    return takes


def solve_threshold_vector(g: Graph, demands: Sequence[int]) -> Solution:
    """Partial-scope solver for threshold graphs.

    The graph is solved along its elimination ordering with the size
    table behind :func:`_threshold_takes`, which takes every vertex
    demanding more than its degree, so forced vertices stay in place.
    The chosen branch at every step is then replayed upwards to
    reconstruct one optimal set; when the stay-out branch needs more
    chosen vertices than the smaller side already has, the gap is padded
    with the smallest-id vertices available.

    Raises:
        NotThresholdError: the graph has no elimination ordering.
    """
    return solve(Instance(g, Neighborhood.OPEN, Scope.PARTIAL, tuple(demands)), "threshold")


def _threshold(inst: Instance, ordering, *_: object) -> Iterable[int]:
    count = inst.graph.n
    if count == 0:
        return ()
    order, kinds = ordering.order, ordering.kinds
    position_demand = [inst.demands[v] for v in order]
    takes = _threshold_takes(count, position_demand, kinds, ordering.later_dominating)
    # the discount each position is solved at, from 0 at the top down
    discount = [0] * count
    j = 0
    for i in range(count - 1, -1, -1):
        discount[i] = j
        if takes[i][j] and kinds[i] == "dominating":
            j += 1
    # then the set bottom-up; a dominating vertex left out pads its need
    # with the smallest ids below
    chosen_local: set[int] = set()
    for i, j in enumerate(discount):
        if takes[i][j]:
            chosen_local.add(order[i])
        elif kinds[i] == "dominating":
            need = position_demand[i] - j - len(chosen_local)
            if need > 0:
                # the table stays out only when need <= i, so the pool suffices
                pool = sorted(set(order[:i]) - chosen_local)
                chosen_local.update(pool[:need])
    return chosen_local


# Solution.method -> body: (instance, certificate, forced vertices) -> chosen vertices
_EXACT: dict[str, Callable[..., Iterable[int]]] = {
    "empty-graph": lambda *_: (),
    "complete-vector": _complete_vector,
    "complete-total": _complete_total,
    "tree": _tree,
    "threshold": _threshold,
    "cograph": _cograph,
    "oracle": _oracle,
}


def _route(inst: Instance, method: str, cap: int) -> tuple[str, object]:
    """Stage 2: the solver to run, by ``Solution.method``, and its certificate.

    The one place that checks a named method's graph class and variant.
    """
    g = inst.graph
    n = g.n
    partial = inst.scope is Scope.PARTIAL
    greedy = GREEDY_METHODS.get((inst.scope, inst.neighborhood))
    if method == "auto":
        if n == 0:
            return "empty-graph", None
        if inst.neighborhood is Neighborhood.CLOSED:
            return ("oracle" if n <= cap else greedy), None
        if g.is_complete():
            return ("complete-vector" if partial else "complete-total"), None
        if partial and (walk := tree_order(g)) is not None:
            return "tree", walk
        if n <= _RECOGNITION_CAP:
            if (ordering := recognise(threshold_elimination_order, g)) is not None:
                return ("threshold", ordering) if partial else ("cograph", threshold_cotree(ordering))
            if (cotree := recognise(build_modified_cotree, g)) is not None:
                return "cograph", cotree
        return ("oracle" if n <= cap else greedy), None
    if method == "oracle":
        if n > cap:
            raise TooLargeError(f"{n} vertices exceed the exhaustive-search cap {cap}")
        return "oracle", None
    if method == "greedy":
        return greedy, None
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; pick one of {METHODS}")
    if inst.neighborhood is not Neighborhood.OPEN:
        raise WrongVariantError(f"method {method!r} needs open neighbourhoods")
    if method == "cograph":
        # a threshold graph's caterpillar comes off its ordering; any other
        # graph's cotree is built by the solver, after the total-scope
        # feasibility check, so an infeasible non-cograph reports infeasible
        ordering = recognise(threshold_elimination_order, g) if n else None
        return "cograph", None if ordering is None else threshold_cotree(ordering)
    if method == "complete":
        if not g.is_complete():
            raise NotCompleteError(f"graph with n={n}, m={g.m} is not complete")
        return ("complete-vector" if partial else "complete-total"), None
    if not partial:
        raise WrongVariantError(f"method {method!r} needs partial scope")
    if method == "tree":
        if (walk := tree_order(g)) is None:
            raise NotATreeError(f"graph with n={n}, m={g.m} is not a tree")
        return "tree", walk
    return "threshold", threshold_elimination_order(g)


def solve(inst: Instance, method: str = "auto", cap: int = DEFAULT_ORACLE_CAP) -> Solution:
    """Solve by one of :data:`METHODS`, in five stages.

    Every public solver and greedy is one call to this function.

    1. Closed to open: closed neighbourhoods under partial scope become
       open ones; outside the set both count alike.
    2. Route: ``auto`` picks a solver as :func:`auto_solve` describes, any
       other method names one.  Recognition yields the certificate, a
       tree's BFS order and parents, a threshold ordering or a cotree,
       that the solver then uses.
    3. Reduce with :func:`~vecdom.variants.reduce_forced`.
    4. Solve on the whole graph's certificate, forced vertices in place.
       Only a non-threshold graph sent to the cograph DP by name is
       decomposed here.
    5. Certify the answer once, against the instance as given.

    A named method raises ``NotXError`` outside its class, ``WrongVariantError``
    outside its variants, ``TooLargeError`` (oracle) above ``cap``.  An
    ``InfeasibleError`` carries the routed solver's method and quality.
    """
    target = inst
    if inst.neighborhood is Neighborhood.CLOSED and inst.scope is Scope.PARTIAL:
        inst = Instance(inst.graph, Neighborhood.OPEN, inst.scope, inst.demands)
    route, cert = _route(inst, method, cap)
    greedy = route in GREEDY_METHODS.values()
    try:
        forced = reduce_forced(inst)
        if greedy:
            solution = greedy_solution(inst, forced)
        else:
            chosen = _EXACT[route](inst, cert, forced)
            solution = Solution(frozenset(chosen), "feasible", "optimal", route)
    except InfeasibleError as exc:
        exc.method, exc.quality = route, "approx" if greedy else "optimal"
        raise
    certify(target, solution.vertices, route)
    return solution


def auto_solve(inst: Instance, cap: int = DEFAULT_ORACLE_CAP) -> Solution:
    """Route an instance to the best applicable solver.

    Exact solvers are preferred whenever the graph class admits one for
    the instance's scope; otherwise the oracle runs when the graph fits
    under the cap, and the bounded greedy takes over beyond it.  Class
    recognition beyond completeness and treeness is skipped on very large
    graphs, where the cotree build is slow.  Partial-scope instances with
    closed neighbourhoods are solved through their open-neighbourhood
    equivalent.
    """
    return solve(inst, "auto", cap)
