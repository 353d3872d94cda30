"""Graph/demand/set file formats: parsing, writing, round-trips, errors."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given

from vecdom import build_graph, complete_graph, path_graph
from vecdom.errors import (
    CountMismatchError,
    DuplicateVertexError,
    MalformedError,
    NegativeDemandError,
    OutOfRangeError,
    SelfLoopError,
)
from vecdom.cli import EXIT_INPUT, main
from vecdom.io import (
    MAX_VERTICES,
    parse_alpha,
    parse_demands,
    parse_graph,
    parse_vertex_set,
    write_demands,
    write_graph,
    write_vertex_set,
)

from .strategies import PROPERTY_SETTINGS, graphs


class TestParseGraph:
    def test_single_edge(self) -> None:
        g = parse_graph("p edge 2 1\ne 1 2\n")
        assert g.n == 2
        assert 1 in g.neighbors(0)

    def test_comments_and_blanks_skipped(self) -> None:
        g = parse_graph("c a comment\n\np edge 2 1\nc another\ne 1 2\n")
        assert g.m == 1

    def test_count_mismatch(self) -> None:
        with pytest.raises(CountMismatchError):
            parse_graph("p edge 2 2\ne 1 2\n")

    def test_self_loop_propagates(self) -> None:
        with pytest.raises(SelfLoopError):
            parse_graph("p edge 2 1\ne 1 1\n")

    def test_malformed_variants(self) -> None:
        for text in (
            "e 1 2\n",                    # edge before header
            "p edge two 1\ne 1 2\n",      # non-integer count
            "p edge 2 1\ne 1\n",          # short edge line
            "p edge 2 1\nx 1 2\n",        # unknown directive
            "p node 2 1\ne 1 2\n",        # wrong format tag
        ):
            with pytest.raises(MalformedError):
                parse_graph(text)

    def test_oversized_header_rejected_before_allocation(self, tmp_path) -> None:
        # adjacency is allocated from the header: 10^11 lists would exhaust memory
        text = "p edge 99999999999 0\n"
        with pytest.raises(MalformedError):
            parse_graph(text)
        path = tmp_path / "huge.gr"
        path.write_text(text)
        assert main(["solve", str(path), "--variant", "k-domination", "--k", "1"]) == EXIT_INPUT

    def test_vertex_limit_covers_a_million_vertices(self) -> None:
        assert MAX_VERTICES >= 10**6
        with pytest.raises(MalformedError):
            parse_graph(f"p edge {MAX_VERTICES + 1} 0\n")

    def test_over_limit_header_is_refused_before_the_body_is_split(self) -> None:
        rng = random.Random(1)
        edges = "".join(f"e {rng.randint(1, 99999)} {rng.randint(1, 99999)}\n" for _ in range(200_000))
        # with a comment on top too, which must not be stripped from a copy of the text first
        for comments in (0, 1):
            text = "c made by hand\n" * comments + f"p edge {MAX_VERTICES + 1} 200000\n" + edges
            line = comments + 1
            message = f"line {line}: {MAX_VERTICES + 1} vertices exceed the limit of {MAX_VERTICES}"
            tracemalloc.start()
            try:
                with pytest.raises(MalformedError, match=f"^{message}$"):
                    parse_graph(text)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < len(text), comments

    def test_vertex_zero_rejected_in_one_based_format(self) -> None:
        with pytest.raises(OutOfRangeError):
            parse_graph("p edge 2 1\ne 0 1\n")

    @given(graphs())
    @PROPERTY_SETTINGS
    def test_round_trip(self, g) -> None:
        again = parse_graph(write_graph(g))
        assert again.n == g.n
        assert sorted(again.edges()) == sorted(g.edges())

    def test_write_is_canonical(self) -> None:
        g = build_graph(3, [(2, 1), (0, 2)])
        text = write_graph(g)
        assert text == write_graph(parse_graph(text))


class TestParseDemands:
    def test_explicit_pairs(self) -> None:
        assert parse_demands("1 2\n2 1\n", complete_graph(2)) == (2, 1)

    def test_empty_defaults_to_zero(self) -> None:
        assert parse_demands("", path_graph(3)) == (0, 0, 0)

    def test_partial_listing(self) -> None:
        assert parse_demands("2 5\n", path_graph(3)) == (0, 5, 0)

    def test_out_of_range(self) -> None:
        with pytest.raises(OutOfRangeError):
            parse_demands("5 1\n", complete_graph(4))

    def test_negative_demand(self) -> None:
        with pytest.raises(NegativeDemandError):
            parse_demands("1 -1\n", complete_graph(2))

    def test_duplicate_vertex(self) -> None:
        with pytest.raises(DuplicateVertexError):
            parse_demands("1 1\n1 2\n", complete_graph(2))

    def test_round_trip_drops_zeros(self) -> None:
        g = path_graph(4)
        demands = (0, 3, 0, 1)
        assert parse_demands(write_demands(demands), g) == demands
        assert "1 0" not in write_demands(demands)


class TestVertexSets:
    def test_parse_one_based(self) -> None:
        assert parse_vertex_set("1\n3\n", path_graph(3)) == frozenset({0, 2})

    def test_round_trip(self) -> None:
        s = frozenset({0, 2, 3})
        assert parse_vertex_set(write_vertex_set(s), path_graph(4)) == s

    def test_out_of_range(self) -> None:
        with pytest.raises(OutOfRangeError):
            parse_vertex_set("9\n", path_graph(3))

    def test_duplicate_rejected(self) -> None:
        with pytest.raises(DuplicateVertexError):
            parse_vertex_set("2\n2\n", path_graph(3))


class TestParseAlpha:
    def test_simple_fraction(self) -> None:
        assert parse_alpha("1/2") == Fraction(1, 2)

    def test_reduction(self) -> None:
        assert parse_alpha("2/4") == Fraction(1, 2)

    def test_decimal_rejected(self) -> None:
        for bad in ("0.5", "1", "1/0", "-1/2", "a/b", "1/2/3"):
            with pytest.raises(MalformedError):
                parse_alpha(bad)
