"""Recognition and decomposition of cographs and threshold graphs."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable

from .errors import NotCographError, NotThresholdError
from .graph import Graph

__all__ = [
    "CotreeNode",
    "build_modified_cotree",
    "is_cograph",
    "recognise",
    "ThresholdOrdering",
    "threshold_elimination_order",
    "is_threshold",
]


@dataclass(frozen=True, eq=False, repr=False)
class CotreeNode:
    """A node of the binarised-join cotree.

    ``leaf`` nodes carry a single vertex.  ``union`` nodes may have any
    number of children (one per connected component).  ``join`` nodes have
    exactly two children: the first complement component and the rest.

    Equality walks both trees on an explicit stack, and hash and repr look
    at this node only, so cotrees thousands of levels deep compare, hash
    and print without meeting the recursion limit.
    """

    kind: str  # "leaf" | "union" | "join"
    vertices: tuple[int, ...]
    children: tuple["CotreeNode", ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind == "leaf":
            assert len(self.vertices) == 1 and not self.children
        elif self.kind == "union":
            assert len(self.children) >= 2
        elif self.kind == "join":
            assert len(self.children) == 2
        else:
            raise ValueError(f"unknown cotree node kind {self.kind!r}")

    @property
    def vertex(self) -> int:
        assert self.kind == "leaf"
        return self.vertices[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CotreeNode):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (
                a.kind != b.kind
                or a.vertices != b.vertices
                or len(a.children) != len(b.children)
            ):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self) -> int:
        return hash((self.kind, self.vertices))

    def __repr__(self) -> str:
        return (
            f"CotreeNode(kind={self.kind!r}, vertices={self.vertices!r}, "
            f"children=<{len(self.children)} nodes>)"
        )


def _components_within(g: Graph, verts: list[int], complement: bool) -> list[list[int]]:
    """Components of the subgraph induced by ascending ``verts``, or of its complement.

    Each is sorted, and they come in order of smallest vertex.
    """
    unseen = set(verts)
    comps: list[list[int]] = []
    for start in verts:
        if start not in unseen:
            continue
        unseen.discard(start)
        comp = [start]
        stack = [start]
        while stack and unseen:
            nbrs = g.neighbors(stack.pop())
            nxt = unseen.difference(nbrs) if complement else unseen.intersection(nbrs)
            if nxt:
                unseen -= nxt
                comp.extend(nxt)
                stack.extend(nxt)
        comp.sort()
        comps.append(comp)
    return comps


def build_modified_cotree(g: Graph) -> CotreeNode:
    """Decompose a cograph into leaves, unions, and binary joins.

    A graph without induced four-vertex paths always splits: either it is
    disconnected (union of its components) or its complement is (join of
    its complement components).  Joins with three or more parts are chained
    into binary nodes, peeling one part at a time in ascending order of
    smallest vertex id; unions keep all parts as siblings.

    The splits run depth first on an explicit stack, and the nodes are
    built bottom-up after them, so no depth meets the recursion limit.
    Each node takes one split, a walk over its induced subgraph or over
    its complement; only the root may need both.  A union's parts are
    connected and a join's parts co-connected, so neither is checked
    again.  A connected vertex set whose complement splits is a complete
    bipartite join, in which some vertex sees half the set, so a set
    larger than twice the maximum degree fails without its complement
    walk.

    Raises:
        NotCographError: some induced subgraph with at least two vertices
            is connected and has a connected complement; the first one the
            depth-first split meets is named.
    """
    if g.n == 0:
        raise NotCographError("cannot decompose the empty graph")
    most = g.max_degree()
    splits: list[tuple[list[int], str, list[list[int]]]] = []  # depth-first preorder
    # each vertex set with the kind of split that made it: a part of a
    # union is connected, a part of a join co-connected
    stack = [(list(g.vertices()), "")]
    while stack:
        verts, made_by = stack.pop()
        if len(verts) == 1:
            splits.append((verts, "leaf", []))
            continue
        kind = "union"
        parts = [] if made_by == "union" else _components_within(g, verts, False)
        if len(parts) < 2 and made_by != "join" and 2 * most >= len(verts):
            kind, parts = "join", _components_within(g, verts, True)
        if len(parts) < 2:
            raise NotCographError(
                f"vertices {tuple(verts)} induce a connected, co-connected subgraph"
            )
        splits.append((verts, kind, parts))
        stack.extend((part, kind) for part in reversed(parts))
    # reverse preorder builds each subtree before its parent, the last child first
    built: list[CotreeNode] = []
    for verts, kind, parts in reversed(splits):
        if kind == "leaf":
            built.append(CotreeNode("leaf", (verts[0],)))
            continue
        children = [built.pop() for _ in parts]
        if kind == "union":
            built.append(CotreeNode("union", tuple(verts), tuple(children)))
            continue
        # chain the parts into binary joins: part 1 against everything else
        node = children[-1]
        rest = parts[-1]
        for child, part in zip(reversed(children[:-1]), reversed(parts[:-1])):
            rest = sorted(rest + part)
            node = CotreeNode("join", tuple(rest), (child, node))
        built.append(node)
    return built.pop()


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


def threshold_cotree(ordering: ThresholdOrdering) -> CotreeNode:
    """The cotree :func:`build_modified_cotree` returns, read off an ordering.

    A threshold graph's cotree is a caterpillar (Chvátal & Hammer 1977).
    From the top of the ordering, each maximal run of one kind is one
    level: its vertices are universal (a dominating run) or isolated (an
    isolated run) in the subgraph of the run and everything below it, and
    everything below is one more part, a co-component or a component.  The
    bottom vertex joins the run just above it.  Parts come in order of
    smallest vertex, and joins are chained as :func:`build_modified_cotree`
    chains them, so the result is equal node for node.

    Raises:
        NotCographError: the ordering is empty.
    """
    order, kinds = ordering.order, ordering.kinds
    if not order:
        raise NotCographError("cannot decompose the empty graph")
    node = CotreeNode("leaf", (order[0],))
    verts = [order[0]]  # the vertices below, ascending
    # the levels bottom-up: runs of equal kinds above the bottom vertex
    for kind, run in groupby(range(1, len(order)), kinds.__getitem__):
        level = [order[i] for i in run]
        parts = [([v], CotreeNode("leaf", (v,))) for v in level]
        parts.append((verts, node))
        parts.sort(key=lambda part: part[0][0])
        if kind == "isolated":
            verts = sorted(verts + level)
            node = CotreeNode("union", tuple(verts), tuple(child for _, child in parts))
            continue
        verts, node = parts[-1]
        for part, child in reversed(parts[:-1]):
            verts = sorted(verts + part)
            node = CotreeNode("join", tuple(verts), (child, node))
    return node


def is_threshold(g: Graph) -> bool:
    return recognise(threshold_elimination_order, g) is not None
