"""Seeded input generators, independent of ``vecdom.generators``.

Every generator draws from a caller-supplied ``random.Random``, so one seed
gives the same graphs and demands on every machine and every commit of the
program.  Graphs are returned as ``(n, edges)`` with 0-based vertex ids;
writers produce the DIMACS-style edge list and the demand file that
``vecdom solve`` reads.
"""

from __future__ import annotations

import random

Edges = list[tuple[int, int]]


def rng_for(seed: int, *labels: object) -> random.Random:
    """A generator seeded from the run seed and a label path.

    String seeds are hashed with SHA-512 by ``random``, so the stream does
    not depend on ``PYTHONHASHSEED``.
    """
    return random.Random(":".join(str(part) for part in (seed, *labels)))


def _relabel(n: int, edges: Edges, rng: random.Random) -> Edges:
    """Apply a random vertex permutation, edge order and edge orientation."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = []
    for u, v in edges:
        a, b = perm[u], perm[v]
        out.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(out)
    return out


def prufer_tree(n: int, rng: random.Random) -> Edges:
    """Uniform random labelled tree, decoded from a random Prüfer sequence."""
    if n < 2:
        return []
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges: Edges = []
    ptr = degree.index(1)
    leaf = ptr
    for x in seq:
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return _relabel(n, edges, rng)


def threshold_graph(n: int, rng: random.Random) -> Edges:
    """Random threshold graph from a creation sequence.

    Vertex i (in creation order) arrives isolated or, with probability 1/2,
    dominating: adjacent to every earlier vertex.
    """
    edges: Edges = []
    for i in range(1, n):
        if rng.random() < 0.5:
            edges.extend((j, i) for j in range(i))
    return _relabel(n, edges, rng)


def cograph(n: int, rng: random.Random) -> Edges:
    """Random cograph whose cotree alternates joins and disjoint unions.

    The root is a join, its children are unions, and so on down.  Each
    node splits its vertex block at a random point between a quarter and
    three quarters, so the shape varies from seed to seed while the
    maximum degree, and with it the solvers' cost, stays close.
    """
    edges: Edges = []
    stack = [(0, n, True)]
    while stack:
        lo, size, joined = stack.pop()
        if size < 2:
            continue
        quarter = max(size // 4, 1)
        left = rng.randint(quarter, size - quarter)
        if joined:
            edges.extend(
                (u, v)
                for u in range(lo, lo + left)
                for v in range(lo + left, lo + size)
            )
        stack.append((lo, left, not joined))
        stack.append((lo + left, size - left, not joined))
    return _relabel(n, edges, rng)


def gnp(n: int, p: float, rng: random.Random) -> Edges:
    """Erdős–Rényi G(n, p): every pair is an edge with probability p."""
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return _relabel(n, edges, rng)


def complete_graph(n: int, rng: random.Random) -> Edges:
    return _relabel(n, [(u, v) for u in range(n) for v in range(u + 1, n)], rng)


def degrees(n: int, edges: Edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def demand_vector(
    capacity: list[int], rng: random.Random, top: int, over: float = 0.0
) -> list[int]:
    """Per-vertex demands in 0..min(capacity, top).

    With probability ``over`` a vertex instead demands capacity + 1, which
    no set can serve from outside: under partial scope it must be chosen.
    Leave ``over`` at 0 for total scope, where such a demand is infeasible.
    """
    out = []
    for cap in capacity:
        if over and rng.random() < over:
            out.append(cap + 1)
        else:
            out.append(rng.randint(0, min(cap, top)))
    return out


def graph_text(n: int, edges: Edges) -> str:
    lines = [f"p edge {n} {len(edges)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in edges)
    return "\n".join(lines) + "\n"


def demands_text(demands: list[int]) -> str:
    return "".join(f"{v + 1} {k}\n" for v, k in enumerate(demands) if k)
