"""Cotree construction and threshold elimination orderings.

The recognizers are cross-checked against independent forbidden-subgraph
scans: P4-free for cographs, {P4, C4, 2K2}-free for threshold graphs.
They are also compared, certificate for certificate and error for error,
with the straightforward versions they replaced: a peel that rescans
every vertex each round, and a recursive cotree builder.  The caterpillar
read off a threshold ordering is compared with the general cotree build.
"""

from __future__ import annotations

import random
import sys
from itertools import combinations

import pytest
from hypothesis import given

from vecdom import (
    CotreeNode,
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

from .strategies import PROPERTY_SETTINGS, cographs, graphs, relabelled, threshold_graphs


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


def _replay_edges(node: CotreeNode) -> set[tuple[int, int]]:
    if node.kind == "leaf":
        return set()
    edges: set[tuple[int, int]] = set()
    for child in node.children:
        edges |= _replay_edges(child)
    if node.kind == "join":
        left, right = node.children
        for u in left.vertices:
            for v in right.vertices:
                edges.add((min(u, v), max(u, v)))
    return edges


def _check_shape(node: CotreeNode) -> None:
    if node.kind == "leaf":
        assert node.vertices == (node.vertex,)
        assert node.children == ()
        return
    if node.kind == "join":
        assert len(node.children) == 2
    else:
        assert node.kind == "union"
        assert len(node.children) >= 2
        seen: set[int] = set()
        firsts = [min(c.vertices) for c in node.children]
        assert firsts == sorted(firsts)
        for child in node.children:
            assert not (seen & set(child.vertices))
            seen |= set(child.vertices)
    combined = sorted(v for c in node.children for v in c.vertices)
    assert combined == sorted(node.vertices)
    for child in node.children:
        _check_shape(child)


class TestModifiedCotree:
    def test_c4_shape(self) -> None:
        root = build_modified_cotree(cycle_graph(4))
        assert root.kind == "join"
        kinds = sorted(child.kind for child in root.children)
        assert kinds == ["union", "union"]
        assert _replay_edges(root) == set(cycle_graph(4).edges())

    def test_p4_rejected(self) -> None:
        with pytest.raises(NotCographError):
            build_modified_cotree(path_graph(4))

    def test_single_vertex(self) -> None:
        root = build_modified_cotree(build_graph(1, []))
        assert root.kind == "leaf"
        assert root.vertex == 0

    def test_complete_graph_binarized(self) -> None:
        # K_4 splits into 4 co-components; the modified tree peels them
        # pairwise, so every join stays binary.
        root = build_modified_cotree(complete_graph(4))
        _check_shape(root)
        assert _replay_edges(root) == set(complete_graph(4).edges())

    @given(cographs())
    @PROPERTY_SETTINGS
    def test_replay_reproduces_input(self, g) -> None:
        root = build_modified_cotree(g)
        _check_shape(root)
        assert sorted(root.vertices) == list(range(g.n))
        assert _replay_edges(root) == set(g.edges())

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


def _recursive_cotree(g: Graph) -> CotreeNode:
    if g.n == 0:
        raise NotCographError("cannot decompose the empty graph")

    def decompose(verts: list[int]) -> CotreeNode:
        if len(verts) == 1:
            return CotreeNode("leaf", (verts[0],))
        comps = _reference_components(g, verts)
        if len(comps) > 1:
            return CotreeNode("union", tuple(verts), tuple(decompose(c) for c in comps))
        cocomps = _reference_co_components(g, verts)
        if len(cocomps) == 1:
            raise NotCographError(
                f"vertices {tuple(verts)} induce a connected, co-connected subgraph"
            )
        parts = [decompose(c) for c in cocomps]
        node = parts[-1]
        rest = list(cocomps[-1])
        for part, cocomp in zip(reversed(parts[:-1]), reversed(cocomps[:-1])):
            rest = sorted(rest + cocomp)
            node = CotreeNode("join", tuple(rest), (part, node))
        return node

    return decompose(sorted(g.vertices()))


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


def _split_count(root: CotreeNode) -> int:
    """The splits one build of ``root`` takes: one per node of the unbinarised cotree.

    That is one per union and one per chain of binary joins, whose head
    is a join below no join, plus the check that the whole graph is
    connected when the root is a join.
    """
    count = root.kind == "join"
    stack = [(root, "")]
    while stack:
        node, above = stack.pop()
        count += node.kind == "union" or (node.kind == "join" and above != "join")
        stack.extend((child, node.kind) for child in node.children)
    return count


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


def _cotree_depth(root: CotreeNode) -> int:
    deepest, stack = 0, [(root, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in node.children)
    return deepest


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


def _join_chain(levels: int, bottom: int) -> CotreeNode:
    """A chain of ``levels`` joins over vertices 0..levels; the deepest leaf holds ``bottom``."""
    node = CotreeNode("leaf", (bottom,))
    verts = [0]
    for v in range(levels):
        verts.append(v + 1)
        node = CotreeNode("join", tuple(verts), (CotreeNode("leaf", (v + 1,)), node))
    return node


def test_deep_cotree_compares_hashes_and_prints() -> None:
    levels = 1500
    # only the deepest leaf differs: equality has to walk every level
    chain, copy, changed = _join_chain(levels, 0), _join_chain(levels, 0), _join_chain(levels, -1)
    assert levels > sys.getrecursionlimit()
    assert chain == copy and not chain != copy
    assert chain != changed
    assert hash(chain) == hash(copy)
    assert len({chain, copy}) == 1
    assert repr(chain).startswith("CotreeNode(kind='join'") and "<2 nodes>" in repr(chain)
    assert str(CotreeNode("leaf", (4,))) == "CotreeNode(kind='leaf', vertices=(4,), children=<0 nodes>)"
    assert chain != "join"
