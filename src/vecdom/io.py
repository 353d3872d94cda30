"""Text formats: DIMACS-style graphs, demand lists, vertex sets.

External ids are 1-based; everything internal is 0-based.  Files are
translated here; the records of ``cli._cmd_solve`` and ``cli._cmd_verify``
add 1 to their vertex ids themselves.  Writers emit the canonical form their
parser accepts, so write(parse(x)) canonicalizes and parse(write(g)) == g.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat
from operator import sub
from typing import Iterator, Sequence

from .errors import (
    CountMismatchError,
    DuplicateVertexError,
    MalformedError,
    NegativeDemandError,
    OutOfRangeError,
)
from .graph import Graph, _graph_from_ends, build_graph

__all__ = [
    "MAX_VERTICES",
    "parse_graph",
    "write_graph",
    "parse_demands",
    "write_demands",
    "parse_vertex_set",
    "write_vertex_set",
    "parse_alpha",
]

# adjacency is allocated from the graph header, so its vertex count is capped
MAX_VERTICES = 1_000_000


_BREAKS = r"\n\r\v\f\x1c-\x1e\x85\u2028\u2029"  # the line breaks str.splitlines knows
# one line of text as str.splitlines() ends it, its line break included
_TEXT_LINE = re.compile(rf"[^{_BREAKS}]*(?:\r\n|[{_BREAKS}]|\Z)")


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    # lazily, so that a reader stops copying the text at its first bad line
    for number, raw in enumerate(map(re.Match.group, _TEXT_LINE.finditer(text)), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield number, line


# Blank lines, comments, the header and plain lines (numbers of at most nine
# digits, which int() always reads, split by spaces or tabs) are read in bulk:
# one split over the whole text.  Other text goes line by line.
_COMMENT_LINE = re.compile(rf"^[^\S\n]*c[^{_BREAKS}]*", re.M)
_HEADER = re.compile(r"\s*p[ \t]+edge[ \t]+([0-9]{1,9})[ \t]+([0-9]{1,9})[ \t\r]*(?=\n|\Z)")
# the vertex count of the first header at the start of a line, comments not yet removed
_DECLARED = re.compile(r"^[ \t]*p[ \t]+edge[ \t]+([0-9]{1,9})", re.M)
# a line of a file in bulk, tried in this order: the plain line with single
# spaces up to its end, the plain line with any blanks and a CR ending, a
# blank line; possessive, so a text that fails is never rescanned
_LINE_OF = r"(?:%s(?=\n|\Z)|[ \t]*%s[ \t\r]*|[^\S\n]*)"
_EDGE_LINE = _LINE_OF % (r"e [0-9]{1,9}+ [0-9]{1,9}+", r"e[ \t]+[0-9]{1,9}[ \t]+[0-9]{1,9}")
_DEMAND_LINE = _LINE_OF % (r"[0-9]{1,9}+ [0-9]{1,9}+", r"[0-9]{1,9}[ \t]+[0-9]{1,9}")
_EDGE_LINES = re.compile(rf"(?:\n{_EDGE_LINE})*+")  # the lines after the header
_DEMAND_LINES = re.compile(rf"{_DEMAND_LINE}(?:\n{_DEMAND_LINE})*+")


def _without_comments(text: str) -> str:
    # a comment ends at any line break splitlines knows; a plain line has no c
    return _COMMENT_LINE.sub("", text) if "c" in text else text


def parse_graph(text: str) -> Graph:
    """Read a graph: comments "c ...", one "p edge <n> <m>", then e-lines.

    A file whose every line is blank, a comment, the header or a plain
    e-line is read in bulk: one fullmatch checks the lines, one split
    gives the fields.  A dense file (more edges than vertices) reads its
    ids through a table of the n names "1".."n"; a sparse one uses int,
    which costs less there than building the table.  Any other file, and
    an id the table lacks, goes to the line-by-line reader, which gives
    the same graph or the same error.  A header above ``MAX_VERTICES`` is
    refused before the comments are removed and the lines matched or split.

    Raises:
        MalformedError: missing or repeated header, an unreadable line, or
            a header declaring more than ``MAX_VERTICES`` vertices.
        CountMismatchError: the header's edge count disagrees with the
            number of e-lines.
        OutOfRangeError, SelfLoopError, DuplicateEdgeError: bad edges.
    """
    declared = _DECLARED.search(text)
    if declared and int(declared[1]) > MAX_VERTICES:
        return _parse_graph_by_line(text)
    body = _without_comments(text)
    header = _HEADER.match(body)
    if header is None:
        return _parse_graph_by_line(text)
    n, m = int(header[1]), int(header[2])
    if n > MAX_VERTICES or not _EDGE_LINES.fullmatch(body, header.end()):
        return _parse_graph_by_line(text)
    fields = body.split()
    if len(fields) != 4 + 3 * m:
        return _parse_graph_by_line(text)
    if m > n:  # dense: each id is one lookup, and rows share one int per vertex
        ids = dict(zip(map(str, range(1, n + 1)), range(n)))
        try:
            tails = list(map(ids.__getitem__, fields[5::3]))
            heads = list(map(ids.__getitem__, fields[6::3]))
        except KeyError:  # 0, a leading zero or an id above n
            return _parse_graph_by_line(text)
    else:  # sparse: building the table would cost more than int
        tails = list(map(sub, map(int, fields[5::3]), repeat(1)))  # ids from 0
        heads = list(map(sub, map(int, fields[6::3]), repeat(1)))
    del fields  # free the tokens before the graph is built
    return _graph_from_ends(n, tails, heads)


def _parse_graph_by_line(text: str) -> Graph:
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
        raise CountMismatchError(
            f"header declares {declared_m} edges, found {len(edges)}"
        )
    return build_graph(n, edges)


def write_graph(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_demands(text: str, g: Graph) -> tuple[int, ...]:
    """Read "<v> <k>" lines; vertices not mentioned default to demand 0.

    Raises:
        MalformedError: an unreadable line.
        OutOfRangeError: a vertex id outside 1..n.
        NegativeDemandError: a negative demand.
        DuplicateVertexError: the same vertex appears twice.
    """
    body = _without_comments(text)
    if not _DEMAND_LINES.fullmatch(body):
        return _parse_demands_by_line(text, g)
    fields = body.split()
    ids = list(map(int, fields[0::2]))
    listed = dict(zip(ids, map(int, fields[1::2])))
    if ids and (min(ids) < 1 or max(ids) > g.n or len(listed) < len(ids)):
        return _parse_demands_by_line(text, g)
    return tuple(map(listed.get, range(1, g.n + 1), repeat(0)))


def _parse_demands_by_line(text: str, g: Graph) -> tuple[int, ...]:
    demands = [0] * g.n
    seen: set[int] = set()
    for number, line in _content_lines(text):
        fields = line.split()
        if len(fields) != 2:
            raise MalformedError(f"line {number}: expected '<vertex> <demand>'")
        try:
            v, k = int(fields[0]), int(fields[1])
        except ValueError:
            raise MalformedError(f"line {number}: non-integer field")
        if not 1 <= v <= g.n:
            raise OutOfRangeError(f"line {number}: vertex {v} not in 1..{g.n}")
        if k < 0:
            raise NegativeDemandError(f"line {number}: demand {k} is negative")
        if v - 1 in seen:
            raise DuplicateVertexError(f"line {number}: vertex {v} repeated")
        seen.add(v - 1)
        demands[v - 1] = k
    return tuple(demands)


def write_demands(demands: Sequence[int]) -> str:
    lines = [f"{v + 1} {k}" for v, k in enumerate(demands) if k != 0]
    return "\n".join(lines) + "\n" if lines else ""


def parse_vertex_set(text: str, g: Graph) -> frozenset[int]:
    """Read whitespace-separated 1-based vertex ids.

    Raises:
        MalformedError, OutOfRangeError, DuplicateVertexError.
    """
    members: set[int] = set()
    for number, line in _content_lines(text):
        for field in line.split():
            try:
                v = int(field)
            except ValueError:
                raise MalformedError(f"line {number}: non-integer id {field!r}")
            if not 1 <= v <= g.n:
                raise OutOfRangeError(f"line {number}: vertex {v} not in 1..{g.n}")
            if v - 1 in members:
                raise DuplicateVertexError(f"line {number}: vertex {v} repeated")
            members.add(v - 1)
    return frozenset(members)


def write_vertex_set(members: frozenset[int] | set[int]) -> str:
    lines = [str(v + 1) for v in sorted(members)]
    return "\n".join(lines) + "\n" if lines else ""


_ALPHA_FORM = re.compile(r"^([0-9]+)/([0-9]+)$")


def parse_alpha(text: str) -> Fraction:
    """Accept exactly "p/q"; anything else, decimals included, is rejected."""
    match = _ALPHA_FORM.match(text.strip())
    if match is None:
        raise MalformedError(
            f"alpha must be written as a fraction 'p/q', got {text!r}"
        )
    p, q = int(match.group(1)), int(match.group(2))
    if q == 0:
        raise MalformedError("alpha denominator is zero")
    return Fraction(p, q)
