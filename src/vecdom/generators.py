"""Deterministic graph and demand generators for tests and benchmarks.

All randomness flows through a caller-supplied :class:`random.Random`, so
every corpus is reproducible from its seed.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterator, Sequence

from .graph import Graph, build_graph, disjoint_union, join

__all__ = [
    "prufer_to_tree",
    "all_labeled_trees",
    "random_tree",
    "random_cograph",
    "threshold_graph",
    "random_threshold",
    "random_gnp",
    "all_demand_vectors",
    "random_demand_vector",
]


def prufer_to_tree(n: int, seq: Sequence[int]) -> Graph:
    """Decode a length n-2 sequence over {0..n-1} into its labeled tree.

    The decoding is the standard linear-time bijection, so iterating all
    sequences enumerates all n^(n-2) labeled trees exactly once.
    """
    if n < 1:
        raise ValueError("a tree needs at least one vertex")
    if n == 1:
        return build_graph(1, [])
    if len(seq) != n - 2:
        raise ValueError(f"expected a sequence of length {n - 2}, got {len(seq)}")
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    adj: list[list[int]] = [[] for _ in range(n)]
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        adj[leaf].append(x)
        adj[x].append(leaf)
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    adj[leaf].append(n - 1)
    adj[n - 1].append(leaf)
    for row in adj:
        row.sort()
    return Graph(tuple(tuple(row) for row in adj), n - 1)


def all_labeled_trees(n: int) -> Iterator[Graph]:
    if n <= 2:
        yield prufer_to_tree(n, ())
        return
    for seq in product(range(n), repeat=n - 2):
        yield prufer_to_tree(n, seq)


def random_tree(n: int, rng: random.Random) -> Graph:
    seq = [rng.randrange(n) for _ in range(max(n - 2, 0))]
    return prufer_to_tree(n, seq)


def random_cograph(n: int, rng: random.Random) -> Graph:
    """Random cograph built bottom-up from singletons by unions and joins."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if n == 1:
        return build_graph(1, [])
    split = rng.randint(1, n - 1)
    left = random_cograph(split, rng)
    right = random_cograph(n - split, rng)
    if rng.random() < 0.5:
        return join(left, right)
    combined, _ = disjoint_union([left, right])
    return combined


def threshold_graph(dominating: Sequence[bool]) -> Graph:
    """Build a threshold graph from its creation sequence.

    Vertex 0 is the seed; vertex i+1 arrives isolated when
    ``dominating[i]`` is false and adjacent to everything already present
    when true.
    """
    n = len(dominating) + 1
    edges = []
    for i, dom in enumerate(dominating):
        if dom:
            v = i + 1
            edges.extend((u, v) for u in range(v))
    return build_graph(n, edges)


def random_threshold(n: int, rng: random.Random) -> Graph:
    if n < 1:
        raise ValueError("need at least one vertex")
    return threshold_graph([rng.random() < 0.5 for _ in range(n - 1)])


def random_gnp(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def all_demand_vectors(g: Graph, extra: int = 0) -> Iterator[tuple[int, ...]]:
    """Every demand vector with k_v in {0 .. d(v) + extra}."""
    return product(*(range(d + 1 + extra) for d in g.degrees()))


def random_demand_vector(
    g: Graph, rng: random.Random, extra: int = 0
) -> tuple[int, ...]:
    return tuple(rng.randint(0, d + extra) for d in g.degrees())
