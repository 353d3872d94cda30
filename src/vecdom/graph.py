"""Simple undirected graphs and the handful of operations the solvers need.

Vertices are the integers ``0 .. n-1``.  Graphs are immutable once built;
every mutation-like operation returns a new graph.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import (
    DuplicateEdgeError,
    OutOfRangeError,
    SelfLoopError,
)

__all__ = [
    "Graph",
    "build_graph",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "disjoint_union",
    "join",
]


class Graph:
    """An undirected simple graph with a fixed vertex set ``0 .. n-1``."""

    __slots__ = ("n", "m", "_adj", "_maxdeg")

    def __init__(self, adjacency: tuple[tuple[int, ...], ...], m: int) -> None:
        self.n = len(adjacency)
        self.m = m
        self._adj = adjacency
        self._maxdeg = max(map(len, adjacency), default=0)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return self._maxdeg

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self._adj))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as ``(u, v)`` with ``u < v``, sorted."""
        for u, row in enumerate(self._adj):
            for v in row:
                if u < v:
                    yield (u, v)

    def vertices(self) -> range:
        return range(self.n)

    def is_complete(self) -> bool:
        return 2 * self.m == self.n * (self.n - 1)

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return len(_bfs_order(self, 0)[0]) == self.n

    def is_tree(self) -> bool:
        return tree_order(self) is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate and build a graph on ``n`` vertices from an edge list.

    Raises:
        OutOfRangeError: an endpoint is not in ``0 .. n-1``.
        SelfLoopError: an edge joins a vertex to itself.
        DuplicateEdgeError: an unordered edge repeats, in either orientation.
    """
    if n < 0:
        raise OutOfRangeError(f"vertex count must be non-negative, got {n}")
    pairs = edges if isinstance(edges, (list, tuple)) else list(edges)
    return _graph_from_ends(n, list(map(itemgetter(0), pairs)), list(map(itemgetter(1), pairs)))


def _graph_from_ends(n: int, tails: list[int], heads: list[int]) -> Graph:
    """``build_graph`` on the edge list's two columns: edge i is (tails[i], heads[i])."""
    # the rows check the edges as they fill: a negative id is a column's
    # minimum, an id >= n misses the rows, and a repeated edge or a
    # self-loop puts one neighbour twice into a row; then the edges are
    # rescanned in order for the first error
    if tails and min(min(tails), min(heads)) < 0:
        _raise_first_error(n, tails, heads)
    adj: list = [[] for _ in range(n)]
    try:
        for u, v in zip(tails, heads):
            adj[u].append(v)
            adj[v].append(u)
    except IndexError:
        _raise_first_error(n, tails, heads)
    if sum(map(len, map(set, adj))) != 2 * len(tails):
        _raise_first_error(n, tails, heads)
    # each list is freed as its tuple replaces it, so n lists and n tuples
    # are never held at once
    for v, row in enumerate(adj):
        row.sort()
        adj[v] = tuple(row)
    return Graph(tuple(adj), len(tails))


def _raise_first_error(n: int, tails: list[int], heads: list[int]) -> None:
    seen: set[tuple[int, int]] = set()
    for u, v in zip(tails, heads):
        if not (0 <= u < n and 0 <= v < n):
            raise OutOfRangeError(f"edge ({u}, {v}) leaves the range 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(f"edge ({u}, {v}) appears more than once")
        seen.add(key)


def complete_graph(n: int) -> Graph:
    adj = tuple(tuple(u for u in range(n) if u != v) for v in range(n))
    return Graph(adj, n * (n - 1) // 2)


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise OutOfRangeError("a cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Star with centre 0 and the given number of leaves."""
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def disjoint_union(graphs: Sequence[Graph]) -> tuple[Graph, tuple[dict[int, int], ...]]:
    """Place the graphs side by side.

    Returns the combined graph together with one relabelling map per input
    graph, sending each original vertex to its new id.
    """
    adj: list[tuple[int, ...]] = []
    maps: list[dict[int, int]] = []
    offset = 0
    m = 0
    for g in graphs:
        maps.append({v: v + offset for v in range(g.n)})
        for v in range(g.n):
            adj.append(tuple(u + offset for u in g.neighbors(v)))
        offset += g.n
        m += g.m
    return Graph(tuple(adj), m), tuple(maps)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides.

    Vertices of ``g1`` keep their ids; vertices of ``g2`` are shifted up
    by ``g1.n``.
    """
    n1 = g1.n
    right = tuple(range(n1, n1 + g2.n))
    left = tuple(range(n1))
    adj: list[tuple[int, ...]] = []
    for v in range(n1):
        adj.append(g1.neighbors(v) + right)
    for v in range(g2.n):
        adj.append(left + tuple(u + n1 for u in g2.neighbors(v)))
    return Graph(tuple(adj), g1.m + g2.m + n1 * g2.n)


def tree_order(g: Graph) -> tuple[list[int], list[int | None]] | None:
    """A tree's BFS order from vertex 0 and each vertex's parent, or None.

    The root is its own parent.  None means the graph is empty,
    disconnected or has a cycle.
    """
    if g.n == 0 or g.m != g.n - 1:
        return None
    order, parent = _bfs_order(g, 0)
    return (order, parent) if len(order) == g.n else None


def _bfs_order(g: Graph, root: int) -> tuple[list[int], list[int | None]]:
    """The vertices reached from ``root`` in BFS order, and their parents (None if unreached)."""
    parent: list[int | None] = [None] * g.n
    parent[root] = root
    order = [root]
    adj = g._adj
    for v in order:  # the list grows as it is walked: it is its own queue
        for u in adj[v]:
            if parent[u] is None:
                parent[u] = v
                order.append(u)
    return order, parent
