"""Recognition and decomposition of cographs and threshold graphs."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Collection, Iterator, NamedTuple, Sequence

from .errors import NotCographError, NotThresholdError
from .graph import Graph

__all__ = [
    "Cotree",
    "build_modified_cotree",
    "is_cograph",
    "recognise",
    "ThresholdOrdering",
    "threshold_elimination_order",
    "is_threshold",
]


class Cotree(NamedTuple):
    """A binarised-join cotree as flat arrays, its nodes in preorder.

    Node k is a ``"leaf"``, a ``"union"`` of two or more children (its
    components) or a ``"join"`` of two: its first co-component and the
    rest.  Its subtree is nodes k to ``ends[k] - 1``, so its children are
    k + 1 and then each child's end.  ``leaves`` holds the vertices in
    preorder, node k's are ``leaves[starts[k]:starts[ends[k]]]``, and
    ``starts`` has one more entry, the vertex count.
    """

    kinds: tuple[str, ...]
    ends: tuple[int, ...]
    starts: tuple[int, ...]
    leaves: tuple[int, ...]

    def children(self, k: int) -> Iterator[int]:
        """Node k's children, in order."""
        ends = self.ends
        c = k + 1
        while c < ends[k]:
            yield c
            c = ends[c]


# how much longer than the unseen set a row must be before a walk that may
# rewrite its rows reads it as a set; below that the set is not worth making
_SET_MARGIN = 16


def _components_within(
    rows: Sequence[Collection[int]], verts: list[int], complement: bool
) -> list[list[int]]:
    """Components of the subgraph induced by ascending ``verts``, or of its complement.

    ``rows[v]`` holds v's neighbours.  Each component is sorted, and they
    come in order of smallest vertex.  Where ``rows`` is a list the walk
    may rewrite it: a row longer than the unseen set by more than
    ``_SET_MARGIN`` is replaced by its set, so that reading it costs the
    unseen set and not the row.  The unseen set is then also copied afresh
    whenever it has shrunk fourfold, since a walk over a set costs its
    table, which never shrinks.
    """
    rewrite = type(rows) is list
    unseen = set(verts)
    room = len(unseen)  # the unseen set's size when its table was made
    comps: list[list[int]] = []
    for start in verts:
        if start not in unseen:
            continue
        unseen.discard(start)
        comp = [start]
        stack = [start]
        while stack and unseen:
            v = stack.pop()
            nbrs = rows[v]
            if rewrite and len(nbrs) > len(unseen) + _SET_MARGIN and type(nbrs) is tuple:
                nbrs = rows[v] = set(nbrs)
            nxt = unseen.difference(nbrs) if complement else unseen.intersection(nbrs)
            if nxt:
                unseen -= nxt
                comp.extend(nxt)
                stack.extend(nxt)
                if rewrite and 4 * len(unseen) < room:
                    unseen = set(unseen)
                    room = len(unseen)
        comp.sort()
        comps.append(comp)
    return comps


def _write_cotree(root: Sequence[int], split: Callable) -> Cotree:
    """The :class:`Cotree` of ``root``, each node written as ``split`` makes it, depth first.

    ``split(verts, made_by)`` gives the kind of a set of two or more
    vertices and its parts in order, ``made_by`` being the kind of the
    split that made the set ("" at the root); one vertex is a leaf.  Join
    parts are chained into binary joins, part 1 against everything after
    it.  The stack is explicit, so no depth meets the recursion limit.
    """
    # per node, its kind, the leaves written before it and once its subtree is
    kinds, starts, stops, leaves = [], [], [], []
    stack: list[tuple] = [(root, "")]
    while stack:
        verts, made_by = stack.pop()
        starts.append(len(leaves))
        if verts is None:  # a binary join of a chain, which stops where the chain does
            kinds.append("join")
            stops.append(made_by)
        elif len(verts) == 1:
            kinds.append("leaf")
            leaves.append(verts[0])
            stops.append(len(leaves))
        else:
            kind, parts = split(verts, made_by)
            kinds.append(kind)
            stops.append(len(leaves) + len(verts))
            stack.append((parts[-1], kind))
            for part in parts[-2:0:-1]:
                stack.append((part, kind))
                if kind == "join":
                    stack.append((None, stops[-1]))
            stack.append((parts[0], kind))
    starts.append(len(leaves))
    # a subtree ends at the first node after it, the first that starts where it stops
    first = dict(zip(reversed(starts), range(len(kinds), -1, -1)))
    ends = tuple(map(first.__getitem__, stops))
    return Cotree(tuple(kinds), ends, tuple(starts), tuple(leaves))


def build_modified_cotree(g: Graph) -> Cotree:
    """Decompose a cograph into leaves, unions, and binary joins.

    A graph without induced four-vertex paths always splits: either it is
    disconnected (union of its components) or its complement is (join of
    its complement components).  Joins with three or more parts are chained
    into binary nodes, peeling one part at a time in ascending order of
    smallest vertex id; unions keep all parts as siblings.

    Each node takes one split, written as it is made: a walk over its
    induced subgraph or over its complement; only the root may need both.
    Below the root a walk reads a long row as a set, made once per build,
    so a deep cotree's splits cost the sets they split; the root reads
    rows only, so a failing build makes no set.
    A union's parts are connected and a join's parts co-connected, so
    neither is checked again.  A connected vertex set whose complement
    splits is a complete bipartite join, in which some vertex sees half
    the set, so a set larger than twice the maximum degree fails without
    its complement walk.

    Raises:
        NotCographError: some induced subgraph with at least two vertices
            is connected and has a connected complement; the first one the
            depth-first split meets is named.
    """
    if g.n == 0:
        raise NotCographError("cannot decompose the empty graph")
    most = g.max_degree()
    # the rows below the root, where a long one becomes a set; none can when none is long
    below = list(g._adj) if most > _SET_MARGIN else g._adj

    def split(verts: list[int], made_by: str) -> tuple[str, list[list[int]]]:
        # a part of a union is connected, a part of a join co-connected
        rows = below if made_by else g._adj
        parts = [] if made_by == "union" else _components_within(rows, verts, False)
        if len(parts) > 1:
            return "union", parts
        if made_by != "join" and 2 * most >= len(verts):
            parts = _components_within(rows, verts, True)
            if len(parts) > 1:
                return "join", parts
        raise NotCographError(f"vertices {tuple(verts)} induce a connected, co-connected subgraph")

    return _write_cotree(list(g.vertices()), split)


def recognise(build: Callable[[Graph], object], g: Graph):
    """The certificate ``build(g)`` returns, or None when g is outside its class."""
    try:
        return build(g)
    except (NotCographError, NotThresholdError):
        return None


def is_cograph(g: Graph) -> bool:
    return g.n == 0 or recognise(build_modified_cotree, g) is not None


@dataclass(frozen=True)
class ThresholdOrdering:
    """Vertex ordering certifying a threshold graph.

    Position ``i`` (1-based ``order[i-1]``) is either isolated or dominating
    in the subgraph induced by the first ``i`` vertices of the order.
    ``later_dominating[i-1]`` counts positions after ``i`` whose vertex is
    dominating at its own step.
    """

    order: tuple[int, ...]
    kinds: tuple[str, ...]  # "isolated" | "dominating"
    later_dominating: tuple[int, ...]


def threshold_elimination_order(g: Graph) -> ThresholdOrdering:
    """Peel isolated-or-dominating vertices to certify a threshold graph.

    The peel removes the smallest-id eligible vertex each round; no
    remainder of two or more vertices holds both kinds.  The final single
    vertex is recorded as isolated.  A vertex's degree in the remainder is
    its degree less the dominating vertices peeled so far (Chvátal &
    Hammer 1977), so one pass over buckets of equal degree does the peel.

    Raises:
        NotThresholdError: some remainder has neither an isolated nor a
            dominating vertex.
    """
    n = g.n
    buckets: list[list[int]] = [[] for _ in range(n)]
    for v in range(n - 1, -1, -1):
        buckets[g.degree(v)].append(v)  # smallest id on top
    order = [0] * n
    kinds = ["isolated"] * n
    later = [0] * n
    peeled_dominating = 0  # the dominating vertices after the current position
    for i in range(n - 1, 0, -1):
        # i + 1 vertices remain: a dominating one has i neighbours among them
        dominating = buckets[i + peeled_dominating]
        isolated = buckets[peeled_dominating]
        later[i] = peeled_dominating
        if dominating:
            order[i] = dominating.pop()
            kinds[i] = "dominating"
            peeled_dominating += 1
        elif isolated:
            order[i] = isolated.pop()
        else:
            raise NotThresholdError("remainder has no isolated and no dominating vertex")
    if n:
        order[0] = buckets[peeled_dominating].pop()
        later[0] = peeled_dominating
    return ThresholdOrdering(tuple(order), tuple(kinds), tuple(later))


def threshold_cotree(ordering: ThresholdOrdering) -> Cotree:
    """The cotree :func:`build_modified_cotree` returns, read off an ordering.

    A threshold graph's cotree is a caterpillar (Chvátal & Hammer 1977).
    From the top of the ordering, each maximal run of one kind is one
    level: its vertices are universal (a dominating run) or isolated (an
    isolated run) in the subgraph of the run and everything below it, and
    everything below is one more part, a co-component or a component.  The
    bottom vertex joins the run just above it.  Parts come in order of
    smallest vertex, and the same writer chains the joins, so the arrays
    are equal; a level costs the length of its run.

    Raises:
        NotCographError: the ordering is empty.
    """
    order, kinds = ordering.order, ordering.kinds
    if not order:
        raise NotCographError("cannot decompose the empty graph")
    lows = list(accumulate(order, min))  # the smallest vertex up to each position

    def split(positions: range, _: str) -> tuple[str, list]:
        # the top level is the run of one kind that ends the positions; below
        # it lie the positions before it, or the bottom vertex alone
        top = first = len(positions) - 1
        while first > 1 and kinds[first - 1] == kinds[top]:
            first -= 1
        level, low = sorted(order[first : top + 1]), lows[first - 1]
        below = range(first) if first > 1 else order[:1]
        parts = [[v] for v in level if v < low] + [below] + [[v] for v in level if v > low]
        return ("union" if kinds[top] == "isolated" else "join"), parts

    return _write_cotree(range(len(order)) if len(order) > 1 else order, split)


def is_threshold(g: Graph) -> bool:
    return recognise(threshold_elimination_order, g) is not None
