"""Shared hypothesis strategies and graph helpers for the vecdom test suite.

Graphs come in four flavours: arbitrary (edge subsets of K_n), trees
(decoded Prufer draws), cographs, and threshold graphs (seeded
generator runs).  Demand vectors can optionally exceed the degree
bound to exercise forced-vertex and infeasibility paths.
"""

from __future__ import annotations

import random
from itertools import combinations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from vecdom import Graph, Instance, Neighborhood, Scope, build_graph, demand_bound
from vecdom.generators import prufer_to_tree, random_cograph, random_threshold

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

THOROUGH_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw: st.DrawFn, min_n: int = 1, max_n: int = 9) -> Graph:
    """An arbitrary simple graph: a random subset of K_n's edges."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    picked = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return build_graph(n, picked)


@st.composite
def trees(draw: st.DrawFn, min_n: int = 1, max_n: int = 12) -> Graph:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    if n <= 2:
        return prufer_to_tree(n, ())
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return prufer_to_tree(n, seq)


@st.composite
def cographs(draw: st.DrawFn, min_n: int = 1, max_n: int = 10) -> Graph:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_cograph(n, random.Random(seed))


@st.composite
def threshold_graphs(draw: st.DrawFn, min_n: int = 1, max_n: int = 10) -> Graph:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_threshold(n, random.Random(seed))


@st.composite
def demands_for(draw: st.DrawFn, g: Graph, neighborhood: Neighborhood, extra: int = 0) -> tuple[int, ...]:
    """A demand vector with k_v <= demand_bound(v) + extra."""
    return tuple(
        draw(st.integers(0, demand_bound(neighborhood, g.degree(v)) + extra))
        for v in range(g.n)
    )


@st.composite
def instances(
    draw: st.DrawFn,
    graph_strategy: st.SearchStrategy[Graph] | None = None,
    scopes: tuple[Scope, ...] = (Scope.PARTIAL, Scope.TOTAL),
    neighborhoods: tuple[Neighborhood, ...] = (Neighborhood.OPEN, Neighborhood.CLOSED),
    extra: int = 0,
) -> Instance:
    g = draw(graph_strategy if graph_strategy is not None else graphs())
    neighborhood = draw(st.sampled_from(neighborhoods))
    scope = draw(st.sampled_from(scopes))
    demands = draw(demands_for(g, neighborhood, extra=extra))
    return Instance(graph=g, neighborhood=neighborhood, scope=scope, demands=demands)


@st.composite
def vertex_subsets(draw: st.DrawFn, g: Graph) -> frozenset[int]:
    if g.n == 0:
        return frozenset()
    return frozenset(draw(st.lists(st.integers(0, g.n - 1), unique=True)))


def relabelled(g: Graph, rng: random.Random) -> Graph:
    """g with its vertices renamed by a random permutation."""
    old_of_new = list(range(g.n))
    rng.shuffle(old_of_new)
    label = [0] * g.n
    for new, old in enumerate(old_of_new):
        label[old] = new
    rows = (tuple(sorted(label[u] for u in g.neighbors(old))) for old in old_of_new)
    return Graph(tuple(rows), g.m)


def caterpillar_2k2(blocks: int) -> Graph:
    """A caterpillar cotree of 2K2 blocks, joined and united in turn.

    Block b holds the edges 4b-(4b+1) and (4b+2)-(4b+3).  Each odd block
    is joined to every block before it, and each even block is united
    with them, so the cotree is about n levels deep.
    """
    edges = []
    for b in range(blocks):
        edges += [(4 * b, 4 * b + 1), (4 * b + 2, 4 * b + 3)]
        if b % 2:
            edges += [(u, v) for u in range(4 * b) for v in range(4 * b, 4 * b + 4)]
    return build_graph(4 * blocks, edges)

