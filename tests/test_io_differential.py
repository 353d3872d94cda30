"""The bulk readers against a line-by-line reference.

``parse_graph`` and ``parse_demands`` read well-formed files in bulk and
hand anything else to their line-by-line readers.  The reference below is
the line-by-line reading on its own, with its own graph builder: every
input must give an equal result, or the same error class and message.
"""

from __future__ import annotations

import random
import re

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
    except Exception as exc:  # anything but the reference's VecdomError differs from it
        return (type(exc), str(exc))
    if isinstance(result, Graph):
        return ("graph", result.n, result.m, tuple(map(result.neighbors, result.vertices())))
    return ("demands", result)


def assert_graph_agrees(text: str) -> None:
    assert _outcome(vio.parse_graph, text) == _outcome(reference_parse_graph, text), repr(text)


def assert_demands_agree(text: str, n: int) -> None:
    got = _outcome(vio.parse_demands, text, path_graph(n) if n else Graph((), 0))
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


# -- dense and sparse files, and the lines that leave the bulk path ---------


def _split_edge(lines: list[str], rng: random.Random) -> None:
    """Move the first two tokens of one edge line onto the end of the line before."""
    i = rng.randrange(1, len(lines))
    tokens = lines[i].split()
    lines[i - 1] += " " + " ".join(tokens[:2])
    lines[i] = tokens[2]


def _change_id(lines: list[str], rng: random.Random, new_id) -> None:
    i = rng.randrange(1, len(lines))
    tokens = lines[i].split()
    j = rng.choice((1, 2))
    tokens[j] = new_id(tokens[j])
    lines[i] = " ".join(tokens)


def _inside_a_line(lines: list[str], rng: random.Random, blank: str) -> None:
    i = rng.randrange(1, len(lines))
    lines[i] = lines[i].replace(" ", blank, 1) if rng.random() < 0.5 else lines[i] + blank


def _tabbed(lines: list[str], rng: random.Random) -> None:
    lines[:] = [line.replace(" ", rng.choice(("\t", " \t", "\t\t"))) for line in lines]


# each case rewrites in place the lines of a valid file on n vertices
CASES = {
    "plain": lambda lines, rng, n: None,
    "leading zero": lambda lines, rng, n: _change_id(lines, rng, lambda t: "0" + t),
    "id 0": lambda lines, rng, n: _change_id(lines, rng, lambda t: "0"),
    "id n + 1": lambda lines, rng, n: _change_id(lines, rng, lambda t: str(n + 1)),
    "+1": lambda lines, rng, n: _change_id(lines, rng, lambda t: "+" + t),
    "ten digits": lambda lines, rng, n: _change_id(
        lines, rng, lambda t: rng.choice((t.zfill(10), "1234567890"))
    ),
    "tabs": lambda lines, rng, n: _tabbed(lines, rng),
    "blank lines": lambda lines, rng, n: lines.insert(
        rng.randint(1, len(lines)), rng.choice(("", " ", "\t", " \t ", "\r"))
    ),
    "\\x0b in a line": lambda lines, rng, n: _inside_a_line(lines, rng, "\x0b"),
    "\\x1c in a line": lambda lines, rng, n: _inside_a_line(lines, rng, "\x1c"),
    "an edge split across lines": lambda lines, rng, n: _split_edge(lines, rng),
}


def _density_text(rng: random.Random, dense: bool, case: str) -> str:
    """A file with more edges than vertices (dense) or at most as many, rewritten by ``case``."""
    n = rng.randint(4, 12) if dense else rng.randint(2, 12)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    m = rng.randint(n + 1, len(pairs)) if dense else rng.randint(1, min(n, len(pairs)))
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in rng.sample(pairs, m)]
    lines = [f"p edge {n} {m}"] + [f"e {u} {v}" for u, v in edges]
    CASES[case](lines, rng, n)
    end = "\r\n" if rng.random() < 0.3 else "\n"
    return end.join(lines) + (end if rng.random() < 0.8 else "")


def _density_cases_match_reference(dense: bool) -> None:
    for case in CASES:
        rng = random.Random(f"{case}:{dense}")
        for _ in range(40):
            assert_graph_agrees(_density_text(rng, dense, case))


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_dense_and_sparse_cases_match_reference(dense: bool) -> None:
    _density_cases_match_reference(dense)


def test_density_cases_are_what_they_say() -> None:
    for dense in (False, True):
        rng = random.Random(dense)
        for _ in range(50):
            g = parse_graph(_density_text(rng, dense, "plain"))
            assert (g.m > g.n) == dense


# the bulk path's line grammar before it became one fullmatch per file kind:
# a newline followed by neither a blank line nor one plain line of the kind
_ODD_LINE = r"\n(?![ \t]*%s[ \t\r]*(?:\n|\Z)|[^\S\n]*(?:\n|\Z))"
_ODD_EDGE_LINE = re.compile(_ODD_LINE % r"e[ \t]+[0-9]{1,9}[ \t]+[0-9]{1,9}")
_ODD_DEMAND_LINE = re.compile(_ODD_LINE % r"[0-9]{1,9}[ \t]+[0-9]{1,9}")

GRAMMAR_TOKENS = ["1", "23", "0", "007", "123456789", "1234567890", "+1", "x", "e", "ee"]
GRAMMAR_GAPS = [" "] * 8 + ["  ", "\t", " \t", "\x0b", "\x1c", "\r", "\f", "\u3000", ""]
GRAMMAR_ENDS = [""] * 8 + [" ", "\t", "\r", " \r", "\r\r", "\x0b", "\x1c", "\x85"]


def _grammar_line(rng: random.Random, edge: bool) -> str:
    if rng.random() < 0.15:
        return rng.choice(["", " ", "\t", "\r", "\x0b", " \x1c ", "\f\t"])
    if rng.random() < 0.6:  # a plain line, perhaps with other blanks
        tokens = (["e"] if edge else []) + [str(rng.randint(0, 10**rng.randint(1, 9))) for _ in range(2)]
    else:
        tokens = [rng.choice(GRAMMAR_TOKENS) for _ in range(rng.randint(1, 4))]
    gaps = [" " if rng.random() < 0.7 else rng.choice(GRAMMAR_GAPS) for _ in tokens]
    lead = rng.choice(["", " ", "\t", "\r"]) if rng.random() < 0.1 else ""
    return lead + "".join(gap + token for gap, token in zip(gaps, tokens))[1:] + rng.choice(GRAMMAR_ENDS)


@pytest.mark.parametrize("edge", [True, False], ids=["edge", "demand"])
def test_line_grammar_accepts_what_the_old_search_accepted(edge: bool) -> None:
    rng = random.Random(f"grammar:{edge}")
    accepted = 0
    for _ in range(4000):
        lines = [_grammar_line(rng, edge) for _ in range(rng.randint(0, 6))]
        if edge:  # what follows the header, each line after a newline
            text = "".join("\n" + line for line in lines)
            new, old = vio._EDGE_LINES.fullmatch(text), _ODD_EDGE_LINE.search(text)
        else:
            text = "\n".join(lines)
            new, old = vio._DEMAND_LINES.fullmatch(text), _ODD_DEMAND_LINE.search("\n" + text)
        assert (new is not None) == (old is None), repr(text)
        accepted += new is not None
    assert 400 < accepted < 3600  # both sides of the grammar are exercised


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
    for dense in (False, True):
        rng = random.Random(7)
        n = 300
        edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
        if dense:  # the tree and a second edge to every vertex above 2: m = 2n - 3 > n
            edges += [(rng.choice([u for u in range(1, v) if u != t]), v) for t, v in edges[1:]]
        lines = [f"p edge {n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
        demand_lines = [f"{v} {rng.randint(0, 3)}" for v in range(1, n + 1, 2)]
        if decorated:  # comments, blank lines, tabs, indentation and trailing blanks
            lines = ["c generated", ""] + [f"\t{line}  " for line in lines] + ["", "c end"]
            demand_lines = ["c demands", " "] + [line.replace(" ", "\t") + " " for line in demand_lines]
        text = break_.join(lines) + break_
        g = parse_graph(text)
        assert g == reference_parse_graph(text) and (g.m > g.n) == dense
        dtext = break_.join(demand_lines)
        assert parse_demands(dtext, g) == reference_parse_demands(dtext, n)
