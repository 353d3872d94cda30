"""The bulk readers against a line-by-line reference.

``parse_graph`` and ``parse_demands`` read well-formed files in bulk and
hand anything else to their line-by-line readers.  The reference below is
the line-by-line reading on its own, with its own graph builder: every
input must give an equal result, or the same error class and message.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecdom import Graph, path_graph
from vecdom import io as vio
from vecdom.errors import (
    CountMismatchError,
    DuplicateEdgeError,
    DuplicateVertexError,
    MalformedError,
    NegativeDemandError,
    OutOfRangeError,
    SelfLoopError,
    VecdomError,
)
from vecdom.io import MAX_VERTICES, parse_demands, parse_graph

from .strategies import PROPERTY_SETTINGS

# -- the reference: one line at a time ------------------------------------


def _content_lines(text: str) -> list[tuple[int, str]]:
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        lines.append((number, line))
    return lines


def _reference_build(n: int, edges: list[tuple[int, int]]) -> Graph:
    if n < 0:
        raise OutOfRangeError(f"vertex count must be non-negative, got {n}")
    adj: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise OutOfRangeError(f"edge ({u}, {v}) leaves the range 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(f"edge ({u}, {v}) appears more than once")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    return Graph(tuple(tuple(sorted(row)) for row in adj), len(edges))


def reference_parse_graph(text: str) -> Graph:
    n = None
    declared_m = 0
    edges: list[tuple[int, int]] = []
    for number, line in _content_lines(text):
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise MalformedError(f"line {number}: second header")
            if len(fields) != 4 or fields[1] != "edge":
                raise MalformedError(f"line {number}: expected 'p edge <n> <m>'")
            try:
                n, declared_m = int(fields[2]), int(fields[3])
            except ValueError:
                raise MalformedError(f"line {number}: non-integer header field")
            if n < 0 or declared_m < 0:
                raise MalformedError(f"line {number}: negative header field")
            if n > MAX_VERTICES:
                raise MalformedError(
                    f"line {number}: {n} vertices exceed the limit of {MAX_VERTICES}"
                )
        elif fields[0] == "e":
            if n is None:
                raise MalformedError(f"line {number}: edge before the header")
            if len(fields) != 3:
                raise MalformedError(f"line {number}: expected 'e <u> <v>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise MalformedError(f"line {number}: non-integer endpoint")
            edges.append((u - 1, v - 1))
        else:
            raise MalformedError(f"line {number}: unknown line type {fields[0]!r}")
    if n is None:
        raise MalformedError("missing 'p edge <n> <m>' header")
    if len(edges) != declared_m:
        raise CountMismatchError(f"header declares {declared_m} edges, found {len(edges)}")
    return _reference_build(n, edges)


def reference_parse_demands(text: str, n: int) -> tuple[int, ...]:
    demands = [0] * n
    seen: set[int] = set()
    for number, line in _content_lines(text):
        fields = line.split()
        if len(fields) != 2:
            raise MalformedError(f"line {number}: expected '<vertex> <demand>'")
        try:
            v, k = int(fields[0]), int(fields[1])
        except ValueError:
            raise MalformedError(f"line {number}: non-integer field")
        if not 1 <= v <= n:
            raise OutOfRangeError(f"line {number}: vertex {v} not in 1..{n}")
        if k < 0:
            raise NegativeDemandError(f"line {number}: demand {k} is negative")
        if v - 1 in seen:
            raise DuplicateVertexError(f"line {number}: vertex {v} repeated")
        seen.add(v - 1)
        demands[v - 1] = k
    return tuple(demands)


def _outcome(fn, *args) -> tuple:
    try:
        result = fn(*args)
    except VecdomError as exc:
        return (type(exc), str(exc))
    if isinstance(result, Graph):
        return ("graph", result.n, result.m, tuple(map(result.neighbors, result.vertices())))
    return ("demands", result)


def assert_graph_agrees(text: str) -> None:
    assert _outcome(parse_graph, text) == _outcome(reference_parse_graph, text), repr(text)


def assert_demands_agree(text: str, n: int) -> None:
    got = _outcome(parse_demands, text, path_graph(n) if n else Graph((), 0))
    assert got == _outcome(reference_parse_demands, text, n), repr(text)


# -- a seeded corpus --------------------------------------------------------

BREAKS = ["\n"] * 12 + ["\r\n"] * 4 + ["\r", "\v", "\f", "\x1c", "\x1e", "\x85", "\u2028"]
GAPS = [" "] * 6 + ["\t", "  ", " \t", "\x1f", "\u3000"]
ODD_LINES = [
    "e {u}",  # short
    "e {u} {v} {v}",  # long
    "e {u} {v} e {v} {u}",  # two edges on one line
    "e a {v}",
    "e {u} 1.5",
    "e +{u} {v}",
    "e \u0661 {v}",  # an Arabic-Indic digit one
    "e 1_0 {v}",
    "e " + "9" * 5000 + " 1",  # more digits than int() reads
    "E {u} {v}",
    "x {u} {v}",
    "ec {u} {v}",
    "p edge 3 1",  # a second header
]
HEADERS_ODD = [
    "p edge {n}",
    "p edge {n} {m} 0",
    "p node {n} {m}",
    "p edge -1 {m}",
    "p edge {n} x",
    f"p edge {MAX_VERTICES + 1} {{m}}",
    "p\nedge {n} {m}",
]


def _graph_text(rng: random.Random) -> str:
    n = rng.randint(0, 7)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    rng.shuffle(pairs)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs[: rng.randint(0, len(pairs))]]
    if edges and rng.random() < 0.15:  # a duplicate, in either orientation
        u, v = rng.choice(edges)
        edges.insert(rng.randint(0, len(edges)), (v, u) if rng.random() < 0.5 else (u, v))
    if rng.random() < 0.2:  # id 0, an id above n, a negative id or a self-loop
        u = rng.randint(1, max(n, 1))
        bad = rng.choice([(0, u), (u, n + 1), (-u, u), (u, u)])
        edges.insert(rng.randint(0, len(edges)), bad)
    m = len(edges) + (rng.choice((-1, 1)) if rng.random() < 0.1 else 0)
    gap = lambda: rng.choice(GAPS) if rng.random() < 0.2 else " "  # noqa: E731
    lines = [f"p{gap()}edge{gap()}{n}{gap()}{max(m, 0)}"]
    if rng.random() < 0.08:
        lines = [rng.choice(HEADERS_ODD).format(n=n, m=m)]
    for u, v in edges:
        lines.append(f"e{gap()}{u}{gap()}{v}")
    if rng.random() < 0.2:
        lines.insert(rng.randint(0, len(lines)), rng.choice(ODD_LINES).format(u=max(n, 1), v=1))
    for _ in range(rng.randint(0, 3)):  # comments and blank lines anywhere
        lines.insert(rng.randint(0, len(lines)), rng.choice(["c a comment", "  c", "c", "", "  ", "\t"]))
    text = ""
    plain = rng.random() < 0.6
    for line in lines:
        lead = rng.choice(["", " ", "\t"]) if rng.random() < 0.1 else ""
        trail = rng.choice(["", " ", "\t", "\r"]) if rng.random() < 0.1 else ""
        text += lead + line + trail + ("\n" if plain else rng.choice(BREAKS))
    if rng.random() < 0.2:
        text = text.rstrip("\n")
    return text


def _demand_text(rng: random.Random, n: int) -> str:
    vertices = rng.sample(range(1, n + 1), rng.randint(0, n))
    lines = [f"{v}{rng.choice(GAPS)}{rng.randint(0, 4)}" for v in vertices]
    if rng.random() < 0.4:
        lines.insert(
            rng.randint(0, len(lines)),
            rng.choice(
                ["1 -2", "0 1", f"{n + 1} 1", "1", "1 2 3", "x 1", "1 1.5", "+1 1", "\u0662 1", "1 c"]
            ),
        )
    if vertices and rng.random() < 0.15:
        lines.append(f"{rng.choice(vertices)} 1")  # a repeated vertex
    for _ in range(rng.randint(0, 2)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(["c note", "", "   "]))
    breaks = ["\n"] if rng.random() < 0.5 else BREAKS
    return "".join(line + rng.choice(["", " ", "\r"]) + rng.choice(breaks) for line in lines)


def test_graph_corpus_matches_reference() -> None:
    rng = random.Random(20261019)
    for _ in range(3000):
        assert_graph_agrees(_graph_text(rng))


def test_demand_corpus_matches_reference() -> None:
    rng = random.Random(20261020)
    for _ in range(3000):
        n = rng.randint(0, 6)
        assert_demands_agree(_demand_text(rng, n), n)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "p edge 0 0",
        "p edge 2 1\r\ne 1 2\r\n",
        "p edge 2 1\ne 1 2\ne 2 1\n",  # duplicate, reversed
        "p edge 3 2\ne 1 2 e 2 3\n\n",  # two edges on one line, count fits
        "p edge 3\n1 e 1 2\n",  # tokens fit the grammar, lines do not
        "p edge 3 1 e\n1 2\n",
        "p edge 2 1\ne 1 2\x1fe 2 1\n",  # \x1f separates fields, not lines
        "p edge 2 0\nc x\x1ee 1 2\n",  # a comment ends at any line break
        "c only\n\n",
        "\n\n  p edge 2 1 \t\n\te\t1\t2\t \n",
    ],
)
def test_graph_edge_cases_match_reference(text: str) -> None:
    assert_graph_agrees(text)


FRAGMENTS = ["p", "edge", "e", "c", "0", "1", "2", "3", "-1", "x", " ", "\t", "\n", "\r\n", "\r", "\x1e", "\u2028"]


@given(st.lists(st.sampled_from(FRAGMENTS), max_size=30), st.booleans())
@settings(PROPERTY_SETTINGS, max_examples=300)
def test_graph_fragments_match_reference(parts: list[str], with_header: bool) -> None:
    assert_graph_agrees(("p edge 3 2\n" if with_header else "") + "".join(parts))


@given(st.lists(st.sampled_from(FRAGMENTS), max_size=20), st.integers(0, 4))
@settings(PROPERTY_SETTINGS, max_examples=300)
def test_demand_fragments_match_reference(parts: list[str], n: int) -> None:
    assert_demands_agree("".join(parts), n)


# -- the bulk path carries valid files -------------------------------------


@pytest.fixture()
def no_line_reader(monkeypatch: pytest.MonkeyPatch) -> None:
    def refuse(*_args) -> None:
        raise AssertionError("a well-formed file reached the line-by-line reader")

    monkeypatch.setattr(vio, "_parse_graph_by_line", refuse)
    monkeypatch.setattr(vio, "_parse_demands_by_line", refuse)


@pytest.mark.parametrize("break_", ["\n", "\r\n"])
@pytest.mark.parametrize("decorated", [False, True])
def test_valid_files_never_reach_the_line_reader(no_line_reader, break_: str, decorated: bool) -> None:
    rng = random.Random(7)
    n = 300
    edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
    lines = [f"p edge {n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
    demand_lines = [f"{v} {rng.randint(0, 3)}" for v in range(1, n + 1, 2)]
    if decorated:  # comments, blank lines, tabs, indentation and trailing blanks
        lines = ["c generated", ""] + [f"\t{line}  " for line in lines] + ["", "c end"]
        demand_lines = ["c demands", " "] + [line.replace(" ", "\t") + " " for line in demand_lines]
    text = break_.join(lines) + break_
    g = parse_graph(text)
    assert g == reference_parse_graph(text)
    dtext = break_.join(demand_lines)
    assert parse_demands(dtext, g) == reference_parse_demands(dtext, n)
