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
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .approx import GREEDY_METHODS, greedy_solution
from .decomposition import (
    CotreeNode,
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

# auto attempts class recognition only below this size: the threshold
# ordering and its caterpillar cotree are cheap, but the general cotree
# build, which every non-threshold graph meets, grows about as m^1.5 on a
# deep cotree (see ROADMAP item 1)
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
        if n <= _CACHED_MASKS:
            subsets: Iterable[int] = _subset_masks(n, size)
        else:
            subsets = map(_mask_of, combinations(range(n), size))
        for mask in subsets:
            for v, need, nbrs in check:
                if not total and (mask >> v) & 1:
                    continue
                if (nbrs & mask).bit_count() < need:
                    break
            else:
                return [v for v in range(n) if (mask >> v) & 1]
    raise InfeasibleError("no vertex subset satisfies the instance")


def _mask_of(combo: tuple[int, ...]) -> int:
    mask = 0
    for v in combo:
        mask |= 1 << v
    return mask


# the oracle's subset masks are kept for graphs up to this size: 2^n masks each
_CACHED_MASKS = 12


@cache
def _subset_masks(n: int, size: int) -> tuple[int, ...]:
    """The masks of the ``size``-subsets of ``range(n)``, in lexicographic order."""
    return tuple(map(_mask_of, combinations(range(n), size)))


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

    Works bottom-up over the binarised cotree.  For every node H and every
    externally supplied discount r (neighbours of H promised from the
    outside), the table holds the size of a minimum set for H with all
    demands lowered by r.  H's row stops at the largest demand K inside
    H, where it reaches 0; it is flat past K, so every lookup clips to the
    row's end.  Leaves are immediate; union nodes add up their parts; a
    join node guesses, per discount, how many vertices each side will
    contribute to the other, and never guesses more than brings the
    receiving side's row to its end.  :func:`_join_row` finds each
    discount's best guess in O(K) steps, so a join costs O(K^2) whatever
    the degrees.  The answer is rebuilt once, discounts
    top-down and sets bottom-up, padding a side with its smallest unchosen
    ids when a guess exceeds what it picked for itself.

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


def _cograph(inst: Instance, tree: CotreeNode | None, *_: object) -> Iterable[int]:
    g = inst.graph
    n = g.n
    if n == 0:
        return ()
    if tree is None:
        # recognised here, after the total-scope feasibility check
        tree = build_modified_cotree(g)
    infeasible = n + 1  # a size no set reaches: the subproblem cannot be served
    alone = infeasible if inst.scope is Scope.TOTAL else 1
    demands = inst.demands
    adj = g._adj
    # every parent before its children; node k's children sit side by side
    # from position first[k]
    nodes = [tree]
    first = []
    for node in nodes:
        first.append(len(nodes))
        nodes.extend(node.children)
    count = len(nodes)
    # minimum sizes per node and discount, up to the largest demand below
    # (the row is 0 there and flat past it); per join, the best (i, j) per discount
    sizes: list[list[int]] = [[]] * count
    choices: list[list[tuple[int, int]]] = [[]] * count
    for k in range(count - 1, -1, -1):
        node = nodes[k]
        kind = node.kind
        c = first[k]
        if kind == "leaf":
            v = node.vertices[0]
            kv = demands[v]
            # forced (partial scope only: total scope has raised)
            sizes[k] = [1] if kv > len(adj[v]) else [alone] * kv + [0]
        elif kind == "union":
            parts = sizes[c : c + len(node.children)]
            width = max(map(len, parts))
            columns = zip(*[part + part[-1:] * (width - len(part)) for part in parts])
            sizes[k] = [s if s < infeasible else infeasible for s in map(sum, columns)]
        else:
            sizes[k], choices[k] = _join_row(
                sizes[c], sizes[c + 1], len(nodes[c].vertices), len(nodes[c + 1].vertices), infeasible
            )
    if sizes[0][0] == infeasible:
        raise InfeasibleError("no vertex subset satisfies the instance")
    # the discount each node is solved at, top-down from 0 at the root and
    # clipped to the node's own row; a join's left side gets i more, its
    # right side j more
    discount = [0] * count
    for k in range(count):
        node = nodes[k]
        if node.kind == "leaf":
            continue
        r = discount[k]
        c = first[k]
        shifts = choices[k][r] if node.kind == "join" else (0,) * len(node.children)
        for child, shift in enumerate(shifts, c):
            top = len(sizes[child]) - 1
            discount[child] = r + shift if r + shift < top else top
    # then the sets bottom-up: a join pads each side with its smallest
    # unchosen ids up to what the other side counts on
    in_set = bytearray(n)
    for k in range(count - 1, -1, -1):
        node = nodes[k]
        if node.kind == "leaf":
            in_set[node.vertices[0]] = sizes[k][discount[k]]
        elif node.kind == "join":
            i, j = choices[k][discount[k]]
            c = first[k]
            for side, want in ((c, j), (c + 1, i)):
                short = want - sizes[side][discount[side]]
                for v in nodes[side].vertices:
                    if short <= 0:
                        break
                    if not in_set[v]:
                        in_set[v] = 1
                        short -= 1
    return [v for v in range(n) if in_set[v]]


def _join_row(
    left: list[int], right: list[int], n_left: int, n_right: int, infeasible: int
) -> tuple[list[int], list[tuple[int, int]]]:
    """A join node's row from its sides' rows, and the pair (i, j) behind each entry.

    At discount r the left side is promised i more chosen neighbours from
    the right and the right side j more from the left, for a size of
    g(i, j) = max(A_i, j) + max(B_j, i) with A_i = left[r + i] and
    B_j = right[r + j].  Both are non-increasing, ``infeasible`` on a
    prefix and flat past their rows' ends, so i stops at the left row's
    end or at n_right and j at the right row's end or at n_left.  The pair
    is the first minimum in (i, j) order, the one a scan of every pair
    meets first.

    For a fixed i, g is least at j = min(A_i, last j), where
    g = A_i + max(B_j, i); at the smallest j + B_j over A_i < j with
    B_j >= i; or at the first j past A_i with B_j < i, where g = j + i.
    Both ends of the middle window only move left as i grows, so a queue
    of rising values keeps its minimum, and a discount costs O(K) for the
    largest demand K below the join, not O(K^2).  The j of the first
    minimising i comes from one scan.
    """
    top_left, top_right = len(left) - 1, len(right) - 1
    row: list[int] = []
    chosen: list[tuple[int, int]] = []
    # the window's candidates from queue_j[head] to queue_j[tail - 1],
    # largest j first, with their values j + b[j] rising
    queue_j = [0] * (min(n_left, top_right) + 1)
    queue_v = queue_j[:]
    for r in range(max(top_left, top_right) + 1):
        if r < top_left:
            a = left[r : r + 1 + (n_right if n_right < top_left - r else top_left - r)]
        else:
            a = left[top_left:]
        if r < top_right:
            b = right[r : r + 1 + (n_left if n_left < top_right - r else top_right - r)]
        else:
            b = right[top_right:]
        last = len(b) - 1
        low_j = b.count(infeasible)  # the first feasible j
        best, best_i = infeasible, 0
        if low_j <= last:
            below = last + 1  # the first j with b[j] < i
            entered = last + 1  # the smallest j the window has reached
            head = tail = 0
            for i in range(a.count(infeasible), len(a)):
                ai = a[i]
                while below and b[below - 1] < i:
                    below -= 1
                # j <= ai
                j = ai if ai < last else last
                if j >= low_j:
                    value = ai + (b[j] if b[j] > i else i)
                else:
                    value = infeasible
                # ai < j and b[j] < i
                j = ai + 1 if ai >= below else below
                if j <= last and j + i < value:
                    value = j + i
                # ai < j < below: the window
                low = ai + 1 if ai >= low_j else low_j
                while entered > low:
                    entered -= 1
                    if entered < below:
                        v = entered + b[entered]
                        while tail > head and queue_v[tail - 1] >= v:
                            tail -= 1
                        queue_j[tail] = entered
                        queue_v[tail] = v
                        tail += 1
                while head < tail and queue_j[head] >= below:
                    head += 1
                if head < tail and queue_v[head] < value:
                    value = queue_v[head]
                if value < best:
                    best, best_i = value, i
        if best == infeasible:
            row.append(infeasible)
            chosen.append((0, 0))
            continue
        ai = a[best_i]
        j = low_j
        while (ai if ai > j else j) + (b[j] if b[j] > best_i else best_i) != best:
            j += 1
        row.append(best)
        chosen.append((best_i, j))
    return row, chosen


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
            assert pi == later_dom[i - 1]
            take = [ki > j for j in range(pi + 1)]
            row = [prev[j] + take[j] for j in range(pi + 1)]
        else:
            assert later_dom[i - 1] == pi + 1, "discount column missing below"
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
    order = ordering.order
    kinds = ordering.kinds
    later = ordering.later_dominating
    position_demand = [inst.demands[v] for v in order]
    takes = _threshold_takes(count, position_demand, kinds, later)
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
                pool = sorted(set(order[:i]) - chosen_local)
                assert len(pool) >= need, "padding exceeded the available vertices"
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
            ordering = recognise(threshold_elimination_order, g)
            if ordering is not None:
                if partial:
                    return "threshold", ordering
                return "cograph", threshold_cotree(ordering)
            cotree = recognise(build_modified_cotree, g)
            if cotree is not None:
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
