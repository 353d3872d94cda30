"""Cotree construction and threshold elimination orderings.

The recognizers are cross-checked against independent forbidden-subgraph
scans: P4-free for cographs, {P4, C4, 2K2}-free for threshold graphs.
They are also compared, certificate for certificate and error for error,
with the straightforward versions they replaced: a peel that rescans
every vertex each round, and a recursive cotree builder.  The caterpillar
read off a threshold ordering is compared with the general cotree build.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
import tracemalloc
from itertools import combinations
from typing import NamedTuple

import pytest
from hypothesis import given

from vecdom import (
    Cotree,
    Graph,
    Instance,
    Neighborhood,
    NotCographError,
    NotThresholdError,
    Scope,
    ThresholdOrdering,
    auto_solve,
    build_graph,
    build_modified_cotree,
    complete_graph,
    cycle_graph,
    disjoint_union,
    is_cograph,
    is_threshold,
    join,
    path_graph,
    solve_cograph,
    solve_threshold_vector,
    threshold_elimination_order,
)
from vecdom import decomposition
from vecdom.decomposition import threshold_cotree
from vecdom.generators import random_cograph, random_gnp, random_threshold, threshold_graph

from .strategies import (
    PROPERTY_SETTINGS,
    caterpillar_2k2,
    cographs,
    graphs,
    relabelled,
    threshold_graphs,
)


def _induced_edge_count(g: Graph, quad: tuple[int, ...]) -> list[tuple[int, int]]:
    return [(u, v) for u, v in combinations(quad, 2) if v in g.neighbors(u)]


def _has_induced_p4(g: Graph) -> bool:
    for quad in combinations(range(g.n), 4):
        edges = _induced_edge_count(g, quad)
        if len(edges) != 3:
            continue
        degs = {v: 0 for v in quad}
        for u, v in edges:
            degs[u] += 1
            degs[v] += 1
        if sorted(degs.values()) == [1, 1, 2, 2]:  # path, not star or triangle+isolate
            return True
    return False


def _has_threshold_obstruction(g: Graph) -> bool:
    """Any induced P4, C4, or 2K2 on four vertices."""
    for quad in combinations(range(g.n), 4):
        edges = _induced_edge_count(g, quad)
        degs = {v: 0 for v in quad}
        for u, v in edges:
            degs[u] += 1
            degs[v] += 1
        shape = sorted(degs.values())
        if len(edges) == 3 and shape == [1, 1, 2, 2]:
            return True
        if len(edges) == 4 and shape == [2, 2, 2, 2]:
            return True
        if len(edges) == 2 and shape == [1, 1, 1, 1]:
            return True
    return False


def _vertices(tree: Cotree, k: int) -> tuple[int, ...]:
    return tree.leaves[tree.starts[k] : tree.starts[tree.ends[k]]]


def _replay_edges(tree: Cotree) -> set[tuple[int, int]]:
    """Every pair a join puts across its two sides."""
    edges: set[tuple[int, int]] = set()
    for k, kind in enumerate(tree.kinds):
        if kind == "join":
            left, right = tree.children(k)
            for u in _vertices(tree, left):
                for v in _vertices(tree, right):
                    edges.add((min(u, v), max(u, v)))
    return edges


def _check_shape(tree: Cotree) -> None:
    kinds, ends, starts, leaves = tree
    count = len(kinds)
    assert len(ends) == count and len(starts) == count + 1
    assert sorted(leaves) == list(range(len(leaves))) and starts[-1] == len(leaves)
    assert ends[0] == count
    for k, kind in enumerate(kinds):
        children = list(tree.children(k))
        assert ends[k] <= count and all(ends[c] <= ends[k] for c in children)
        if kind == "leaf":
            assert ends[k] == k + 1 and starts[k + 1] == starts[k] + 1
            continue
        # the children's vertices fill the node's range in order
        assert children and ends[children[-1]] == ends[k] and starts[k + 1] == starts[k]
        if kind == "join":
            assert len(children) == 2
        else:
            assert kind == "union"
            assert len(children) >= 2
            firsts = [min(_vertices(tree, c)) for c in children]
            assert firsts == sorted(firsts)


class TestModifiedCotree:
    def test_c4_shape(self) -> None:
        tree = build_modified_cotree(cycle_graph(4))
        _check_shape(tree)
        assert tree.kinds[0] == "join"
        assert [tree.kinds[c] for c in tree.children(0)] == ["union", "union"]
        assert _replay_edges(tree) == set(cycle_graph(4).edges())

    def test_p4_rejected(self) -> None:
        with pytest.raises(NotCographError):
            build_modified_cotree(path_graph(4))

    def test_single_vertex(self) -> None:
        tree = build_modified_cotree(build_graph(1, []))
        assert tree == Cotree(("leaf",), (1,), (0, 1), (0,))

    def test_complete_graph_binarized(self) -> None:
        # K_4 splits into 4 co-components; the modified tree peels them
        # pairwise, so every join stays binary.
        tree = build_modified_cotree(complete_graph(4))
        _check_shape(tree)
        assert tree.kinds == ("join", "leaf") * 3 + ("leaf",)
        assert _replay_edges(tree) == set(complete_graph(4).edges())

    @given(cographs())
    @PROPERTY_SETTINGS
    def test_replay_reproduces_input(self, g) -> None:
        tree = build_modified_cotree(g)
        _check_shape(tree)
        assert len(tree.leaves) == g.n
        assert _replay_edges(tree) == set(g.edges())

    @given(graphs())
    @PROPERTY_SETTINGS
    def test_recognizer_matches_forbidden_subgraph_scan(self, g) -> None:
        assert is_cograph(g) == (not _has_induced_p4(g))


class TestThresholdElimination:
    def test_triangle(self) -> None:
        ordering = threshold_elimination_order(complete_graph(3))
        assert ordering.kinds[1:] == ("dominating", "dominating")
        assert ordering.later_dominating == (2, 1, 0)

    def test_p4_rejected(self) -> None:
        with pytest.raises(NotThresholdError):
            threshold_elimination_order(path_graph(4))

    def test_edgeless(self) -> None:
        ordering = threshold_elimination_order(build_graph(3, []))
        assert ordering.kinds == ("isolated",) * 3
        assert ordering.later_dominating == (0, 0, 0)

    @given(threshold_graphs())
    @PROPERTY_SETTINGS
    def test_ordering_is_valid(self, g) -> None:
        ordering = threshold_elimination_order(g)
        assert sorted(ordering.order) == list(range(g.n))
        prefix: set[int] = set()
        for v, kind in zip(ordering.order, ordering.kinds):
            prefix.add(v)
            inside = sum(1 for u in g.neighbors(v) if u in prefix)
            if kind == "isolated":
                assert inside == 0
            else:
                assert kind == "dominating"
                assert inside == len(prefix) - 1

    @given(threshold_graphs())
    @PROPERTY_SETTINGS
    def test_later_dominating_counts(self, g) -> None:
        ordering = threshold_elimination_order(g)
        n = g.n
        for i in range(n):
            expect = sum(1 for j in range(i + 1, n) if ordering.kinds[j] == "dominating")
            assert ordering.later_dominating[i] == expect
        if n:
            assert ordering.later_dominating[-1] == 0

    @given(graphs())
    @PROPERTY_SETTINGS
    def test_recognizer_matches_forbidden_subgraph_scan(self, g) -> None:
        assert is_threshold(g) == (not _has_threshold_obstruction(g))
        if not is_threshold(g):
            with pytest.raises(NotThresholdError):
                threshold_elimination_order(g)


# -- references: the rescan peel and the recursive cotree builder -----------


def _rescan_elimination_order(g: Graph) -> ThresholdOrdering:
    """Each round scans every live vertex for the smallest-id eligible one."""
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
            raise NotThresholdError("remainder has no isolated and no dominating vertex")
        alive[pick] = 0
        remaining -= 1
        for u in g.neighbors(pick):
            if alive[u]:
                deg[u] -= 1
        rev_order.append(pick)
        rev_kinds.append(kind)
    if remaining == 1:
        rev_order.append(next(v for v in range(n) if alive[v]))
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


def _reference_components(g: Graph, verts: list[int]) -> list[list[int]]:
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


def _reference_co_components(g: Graph, verts: list[int]) -> list[list[int]]:
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
            nxt = unseen.difference(g.neighbors(v))
            if nxt:
                unseen.difference_update(nxt)
                comp.extend(nxt)
                stack.extend(nxt)
        comp.sort()
        comps.append(comp)
    comps.sort(key=lambda c: c[0])
    return comps


def _recursive_cotree(g: Graph) -> Cotree:
    if g.n == 0:
        raise NotCographError("cannot decompose the empty graph")
    kinds: list[str] = []
    ends: list[int] = []
    starts: list[int] = []
    leaves: list[int] = []

    def write(kind: str) -> int:
        kinds.append(kind)
        ends.append(0)
        starts.append(len(leaves))
        return len(kinds) - 1

    def decompose(verts: list[int]) -> None:
        if len(verts) == 1:
            node = write("leaf")
            ends[node] = len(kinds)
            leaves.append(verts[0])
            return
        comps = _reference_components(g, verts)
        if len(comps) > 1:
            node = write("union")
            for comp in comps:
                decompose(comp)
            ends[node] = len(kinds)
            return
        cocomps = _reference_co_components(g, verts)
        if len(cocomps) == 1:
            raise NotCographError(
                f"vertices {tuple(verts)} induce a connected, co-connected subgraph"
            )
        # binary joins: each part but the last against everything after it
        chain = []
        for cocomp in cocomps[:-1]:
            chain.append(write("join"))
            decompose(cocomp)
        decompose(cocomps[-1])
        for node in chain:
            ends[node] = len(kinds)

    decompose(sorted(g.vertices()))
    starts.append(len(leaves))
    return Cotree(tuple(kinds), tuple(ends), tuple(starts), tuple(leaves))


def _certificate(build, g: Graph):
    try:
        return build(g)
    except (NotCographError, NotThresholdError) as exc:
        return type(exc), str(exc)


def _differential_corpus() -> list[Graph]:
    rng = random.Random("recognisers-vs-references")
    corpus = [relabelled(random_threshold(rng.randint(1, 300), rng), rng) for _ in range(300)]
    corpus += [random_cograph(rng.randint(1, 60), rng) for _ in range(400)]
    corpus += [
        random_gnp(rng.randint(1, 40), rng.uniform(0.03, 0.6), rng) for _ in range(300)
    ]
    # sparse and large: most fail on a set above twice the maximum degree
    sizes = [rng.randint(100, 800) for _ in range(40)]
    corpus += [random_gnp(n, rng.uniform(1, 8) / n, rng) for n in sizes]
    return corpus


def test_recognisers_match_references() -> None:
    corpus = _differential_corpus()
    assert len(corpus) >= 1000
    beyond_degree_bound = 0
    for index, g in enumerate(corpus):
        assert _certificate(threshold_elimination_order, g) == _certificate(
            _rescan_elimination_order, g
        ), index
        # the threshold graphs reach n=300, where the cotree build is cubic
        # and the recursive reference would outgrow the recursion limit
        if index >= 300:
            cert = _certificate(build_modified_cotree, g)
            assert cert == _certificate(_recursive_cotree, g), index
            if isinstance(cert, tuple):
                named = cert[1].count(",") + 1  # the failing set's size
                beyond_degree_bound += named > 2 * g.max_degree()
    assert beyond_degree_bound >= 30


def _split_count(tree: Cotree) -> int:
    """The splits one build of ``tree`` takes: one per node of the unbinarised cotree.

    That is one per union and one per chain of binary joins, whose head
    is a join below no join, plus the check that the whole graph is
    connected when the root is a join.
    """
    kinds = tree.kinds
    above = [""] * len(kinds)
    for k, kind in enumerate(kinds):
        for child in tree.children(k):
            above[child] = kind
    heads = sum(
        kind == "union" or (kind == "join" and up != "join") for kind, up in zip(kinds, above)
    )
    return (kinds[0] == "join") + heads


def test_cotree_build_splits_each_node_once(monkeypatch) -> None:
    calls: list[bool] = []
    original = decomposition._components_within

    def counting(g: Graph, verts: list[int], complement: bool) -> list[list[int]]:
        calls.append(complement)
        return original(g, verts, complement)

    monkeypatch.setattr(decomposition, "_components_within", counting)
    rng = random.Random("one-split-per-node")
    for index in range(300):
        g = random_cograph(rng.randint(1, 80), rng)
        calls.clear()
        root = build_modified_cotree(g)
        assert len(calls) == _split_count(root), index
    # a P4 below the root fails on the one split its parent left open
    p4, k1 = path_graph(4), build_graph(1, [])
    for g, expected in (
        (join(p4, k1), [False, True, False]),
        (disjoint_union([p4, k1])[0], [False, True]),
    ):
        calls.clear()
        with pytest.raises(NotCographError):
            build_modified_cotree(g)
        assert calls == expected
    # a connected graph that is no cograph: a union split, then a complement
    # split only when some vertex sees half the graph
    for p in (0.01, 0.05, 0.5):
        g = random_gnp(2000, p, rng)
        assert g.is_connected()
        calls.clear()
        with pytest.raises(NotCographError):
            build_modified_cotree(g)
        expected = [False, True] if 2 * g.max_degree() >= g.n else [False]
        assert calls == expected, p


def _cotree_depth(tree: Cotree) -> int:
    depth = [1] * len(tree.kinds)
    for k in range(len(depth)):
        for child in tree.children(k):
            depth[child] = depth[k] + 1
    return max(depth)


def test_deep_cotree_needs_no_recursion_limit(monkeypatch) -> None:
    # vertices alternate dominating and isolated: the cotree is a path of depth ~n
    n = 120
    g = threshold_graph([i % 2 == 0 for i in range(n - 1)])
    ones = (1,) * n
    frames, frame = 0, sys._getframe()
    while frame is not None:
        frames, frame = frames + 1, frame.f_back
    limit = frames + 40
    set_limit, old_limit = sys.setrecursionlimit, sys.getrecursionlimit()

    def refuse(depth: int) -> None:
        raise AssertionError(f"recursion limit set to {depth}")

    set_limit(limit)
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    try:
        ordering = threshold_elimination_order(g)
        root = build_modified_cotree(g)
        partial = solve_cograph(Instance(g, Neighborhood.OPEN, Scope.PARTIAL, ones))
        total = auto_solve(Instance(g, Neighborhood.OPEN, Scope.TOTAL, ones))
    finally:
        set_limit(old_limit)
    assert _cotree_depth(root) > limit
    assert ordering == _rescan_elimination_order(g)
    assert partial.size == solve_threshold_vector(g, ones).size
    assert total.method == "cograph" and total.size == 2


def test_threshold_cotree_equals_general_build() -> None:
    rng = random.Random("threshold-caterpillar")
    # mostly small graphs: the general build it is checked against is cubic
    sizes = [rng.randint(100, 300) if i % 10 == 0 else rng.randint(1, 80) for i in range(300)]
    sizes += [1, 2, 3]
    for index, n in enumerate(sizes):
        g = relabelled(random_threshold(n, rng), rng)
        assert threshold_cotree(threshold_elimination_order(g)) == build_modified_cotree(g), index
    for n in (1, 2, 3, 4):  # every creation sequence, with the bottom vertex of either kind
        for bits in range(2 ** (n - 1)):
            g = threshold_graph([bool(bits >> i & 1) for i in range(n - 1)])
            assert threshold_cotree(threshold_elimination_order(g)) == build_modified_cotree(g)


def _chain(levels: int) -> Cotree:
    """The cotree of a threshold graph whose kinds alternate down from a join at vertex 0.

    Vertex v sits at level v from the top, so each level's leaf comes
    before the level below, and the deepest leaf is the last entry.
    """
    order = tuple(range(levels, -1, -1))
    above = tuple(("dominating", "isolated")[(levels - i) % 2] for i in range(1, levels + 1))
    return threshold_cotree(ThresholdOrdering(order, ("isolated",) + above, (0,) * len(order)))


def test_deep_cotree_is_flat_to_compare_hash_and_print() -> None:
    levels = 1500
    chain, copy = _chain(levels), _chain(levels)
    # only the deepest leaf differs: equality has to reach the last entry
    changed = chain._replace(leaves=chain.leaves[:-1] + (-1,))
    assert _cotree_depth(chain) > levels > sys.getrecursionlimit()
    _check_shape(chain)
    assert chain == copy and not chain != copy
    assert chain != changed
    assert hash(chain) == hash(copy)
    assert len({chain, copy}) == 1
    assert repr(chain).startswith("Cotree(kinds=('join', 'leaf', 'union', 'leaf', ")
    assert chain != "join"


class _Degrees(NamedTuple):
    """What the threshold peel reads of a graph: its size and its degrees."""

    n: int
    degrees: list[int]

    def degree(self, v: int) -> int:
        return self.degrees[v]


def _relabelled_random_threshold(n: int, rng: random.Random) -> _Degrees:
    """``relabelled(random_threshold(n, rng), rng)`` as the peel sees it, without its edges."""
    dominating = [False] + [rng.random() < 0.5 for _ in range(n - 1)]
    degree, later = [0] * n, 0
    for v in range(n - 1, -1, -1):
        degree[v] = (v if dominating[v] else 0) + later
        later += dominating[v]
    old_of_new = list(range(n))
    rng.shuffle(old_of_new)
    return _Degrees(n, [degree[old] for old in old_of_new])


def _retained(build, arg) -> int:
    """The bytes still allocated once ``build(arg)`` has returned its certificate."""
    tracemalloc.start()
    try:
        certificate = build(arg)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert certificate.kinds
    return retained


def test_cotree_certificates_are_linear_in_size() -> None:
    for n in (1, 2, 60, 300):
        rng = random.Random(n)
        real = relabelled(random_threshold(n, rng), rng)
        rng = random.Random(n)
        assert threshold_elimination_order(
            _relabelled_random_threshold(n, rng)
        ) == threshold_elimination_order(real)
    # about 7,000 nodes over 4,000 vertices; nested vertex tuples held 3.9M entries
    ordering = threshold_elimination_order(_relabelled_random_threshold(4000, random.Random(4000)))
    assert _retained(threshold_cotree, ordering) < 2_000_000
    assert _retained(build_modified_cotree, caterpillar_2k2(250)) < 500_000


# sha256 of repr(tuple(...)) of the 2K2 caterpillar's cotree at 1,000 vertices,
# as the build gave it when every split read whole rows
DEEP_COTREE_DIGEST = "5ff48c63154e0168d0d91526b7f51bcad485cb21e69cff3de579e79e79ec1a85"


def test_deep_cotree_splits_cost_the_sets_they_split() -> None:
    # about 1,000 levels, most rows far longer than the sets split below them;
    # on a shared 2-core machine a build reading whole rows took 0.85-1.6 s,
    # one reading sets 0.08-0.25 s
    g = caterpillar_2k2(250)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        tree = build_modified_cotree(g)
        times.append(time.perf_counter() - start)
    assert hashlib.sha256(repr(tuple(tree)).encode()).hexdigest() == DEEP_COTREE_DIGEST
    assert min(times) < 0.6
