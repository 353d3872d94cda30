"""Recognition and decomposition of cographs and threshold graphs."""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

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


@contextmanager
def deep_recursion(depth: int) -> Iterator[None]:
    """Temporarily raise the recursion limit for deep decompositions."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, depth))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@dataclass(frozen=True)
class CotreeNode:
    """A node of the binarised-join cotree.

    ``leaf`` nodes carry a single vertex.  ``union`` nodes may have any
    number of children (one per connected component).  ``join`` nodes have
    exactly two children: the first complement component and the rest.
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


def _components_within(g: Graph, verts: list[int]) -> list[list[int]]:
    """Connected components of the subgraph induced by ``verts``."""
    inside = set(verts)
    unseen = set(verts)
    comps: list[list[int]] = []
    for start in verts:
        if start not in unseen:
            continue
        unseen.discard(start)
        comp = [start]
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u in unseen:
                    unseen.discard(u)
                    comp.append(u)
                    stack.append(u)
        comp.sort()
        comps.append(comp)
    comps.sort(key=lambda c: c[0])
    return comps


def _co_components_within(g: Graph, verts: list[int]) -> list[list[int]]:
    """Connected components of the complement, restricted to ``verts``."""
    unseen = set(verts)
    comps: list[list[int]] = []
    for start in verts:
        if start not in unseen:
            continue
        unseen.discard(start)
        comp = [start]
        stack = [start]
        while stack:
            v = stack.pop()
            # complement neighbours: everything unseen except real neighbours
            nxt = unseen.difference(g.neighbors(v))
            if nxt:
                unseen.difference_update(nxt)
                comp.extend(nxt)
                stack.extend(nxt)
        comp.sort()
        comps.append(comp)
    comps.sort(key=lambda c: c[0])
    return comps


def build_modified_cotree(g: Graph) -> CotreeNode:
    """Decompose a cograph into leaves, unions, and binary joins.

    A graph without induced four-vertex paths always splits: either it is
    disconnected (union of its components) or its complement is (join of
    its complement components).  Joins with three or more parts are chained
    into binary nodes, peeling one part at a time in ascending order of
    smallest vertex id; unions keep all parts as siblings.

    Raises:
        NotCographError: some induced subgraph with at least two vertices
            is connected and has a connected complement.
    """
    if g.n == 0:
        raise NotCographError("cannot decompose the empty graph")

    def decompose(verts: list[int]) -> CotreeNode:
        if len(verts) == 1:
            return CotreeNode("leaf", (verts[0],))
        comps = _components_within(g, verts)
        if len(comps) > 1:
            return CotreeNode(
                "union", tuple(verts), tuple(decompose(c) for c in comps)
            )
        cocomps = _co_components_within(g, verts)
        if len(cocomps) == 1:
            raise NotCographError(
                f"vertices {tuple(verts)} induce a connected, co-connected subgraph"
            )
        # chain the parts into binary joins: part 1 against everything else
        parts = [decompose(c) for c in cocomps]
        node = parts[-1]
        rest = list(cocomps[-1])
        for part, cocomp in zip(reversed(parts[:-1]), reversed(cocomps[:-1])):
            rest = sorted(rest + cocomp)
            node = CotreeNode("join", tuple(rest), (part, node))
        return node

    with deep_recursion(4 * g.n + 100):
        return decompose(sorted(g.vertices()))


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

    The peel removes the smallest-id eligible vertex each round; a vertex
    dominating the remainder wins over an isolated one.  The final single
    vertex is recorded as isolated.

    Raises:
        NotThresholdError: some remainder has neither an isolated nor a
            dominating vertex.
    """
    n = g.n
    alive = bytearray([1] * n)
    deg = [g.degree(v) for v in range(n)]
    remaining = n
    rev_order: list[int] = []
    rev_kinds: list[str] = []
    while remaining > 1:
        pick = -1
        kind = ""
        for v in range(n):
            if not alive[v]:
                continue
            if deg[v] == remaining - 1:
                pick, kind = v, "dominating"
                break
            if pick < 0 and deg[v] == 0:
                pick, kind = v, "isolated"
        if pick < 0:
            raise NotThresholdError(
                "remainder has no isolated and no dominating vertex"
            )
        alive[pick] = 0
        remaining -= 1
        for u in g.neighbors(pick):
            if alive[u]:
                deg[u] -= 1
        rev_order.append(pick)
        rev_kinds.append(kind)
    if remaining == 1:
        last = next(v for v in range(n) if alive[v])
        rev_order.append(last)
        rev_kinds.append("isolated")
    order = tuple(reversed(rev_order))
    kinds = tuple(reversed(rev_kinds))
    later = [0] * n
    tail = 0
    for i in range(n - 1, -1, -1):
        later[i] = tail
        if kinds[i] == "dominating":
            tail += 1
    return ThresholdOrdering(order, kinds, tuple(later))


def is_threshold(g: Graph) -> bool:
    return recognise(threshold_elimination_order, g) is not None
