"""Benchmark harness: determinism, report formats, ratio sanity."""

from __future__ import annotations

import math

import pytest

from vecdom.bench import FAMILIES, BenchConfig, bench_suite
from vecdom.errors import MalformedError


def _config(**overrides) -> BenchConfig:
    base = dict(
        family="trees",
        sizes=(10, 20),
        seed=7,
        repetitions=1,
        edge_probability=0.4,
        oracle_cap=14,
    )
    base.update(overrides)
    return BenchConfig(**base)


class TestBenchSuite:
    def test_all_families_run(self) -> None:
        for family in FAMILIES:
            report = bench_suite(_config(family=family, sizes=(8,)))
            assert len(report.cells) == 1
            cell = report.cells[0]
            assert cell.family == family
            assert cell.size == 8
            assert cell.median_seconds >= 0.0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_size_below_one_rejected(self, family) -> None:
        with pytest.raises(MalformedError, match="at least 1"):
            bench_suite(_config(family=family, sizes=(8, 0)))

    def test_deterministic_apart_from_times(self) -> None:
        first = bench_suite(_config())
        second = bench_suite(_config())
        for a, b in zip(first.cells, second.cells):
            assert (a.family, a.size, a.solver, a.solution_size, a.ratio) == (
                b.family,
                b.size,
                b.solver,
                b.solution_size,
                b.ratio,
            )

    def test_different_seed_may_change_instances(self) -> None:
        # same shape either way; the report structure is seed-independent
        report = bench_suite(_config(seed=8))
        assert [c.size for c in report.cells] == [10, 20]

    def test_ratio_only_within_oracle_cap(self) -> None:
        report = bench_suite(_config(family="gnp", sizes=(10, 18), oracle_cap=14))
        by_size = {c.size: c for c in report.cells}
        assert by_size[10].ratio is not None
        assert by_size[18].ratio is None

    def test_exact_solver_ratio_is_one(self) -> None:
        report = bench_suite(_config(family="trees", sizes=(10,)))
        cell = report.cells[0]
        assert cell.solver == "tree"
        assert cell.ratio == 1.0

    def test_greedy_ratio_within_published_factor(self) -> None:
        report = bench_suite(_config(family="gnp", sizes=(8, 10, 12), repetitions=1))
        for cell in report.cells:
            assert cell.ratio is not None
            # ln(2*Delta)+1 with Delta <= n-1 is a generous envelope
            assert 1.0 <= cell.ratio <= math.log(2 * (cell.size - 1)) + 1


class TestReportFormats:
    def test_empty_report(self) -> None:
        report = bench_suite(_config(sizes=()))
        assert report.cells == ()
        assert report.text() == "(empty report)\n"
        assert report.csv().count("\n") == 1  # header only

    def test_text_table_has_header_and_rows(self) -> None:
        report = bench_suite(_config(sizes=(10,)))
        lines = report.text().splitlines()
        assert lines[0].split() == ["family", "size", "solver", "median_s", "|S|", "ratio"]
        assert len(lines) == 3

    def test_csv_columns(self) -> None:
        report = bench_suite(_config(sizes=(10,)))
        lines = report.csv().splitlines()
        assert lines[0] == "family,size,solver,median_seconds,solution_size,ratio"
        row = lines[1].split(",")
        assert row[0] == "trees"
        assert int(row[1]) == 10
        assert int(row[4]) >= 0
