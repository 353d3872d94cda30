"""Command-line surface: records, exit codes, files, env overrides."""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vecdom
from vecdom import cli, feasibility
from vecdom.cli import (
    EXIT_CERTIFICATION,
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_OK,
    ORACLE_CAP_ENV,
    main,
)
from vecdom.io import parse_demands, parse_graph

C4 = "p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n"
STAR = "p edge 4 3\ne 1 2\ne 1 3\ne 1 4\n"
SINGLE = "p edge 1 0\n"
P3 = "p edge 3 2\ne 1 2\ne 2 3\n"


@pytest.fixture()
def c4_file(tmp_path: Path) -> str:
    p = tmp_path / "c4.gr"
    p.write_text(C4)
    return str(p)


def _write(tmp_path: Path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _record(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


class TestSolve:
    def test_total_unit_demands(self, c4_file, tmp_path, capsys) -> None:
        dem = _write(tmp_path, "ones.dem", "1 1\n2 1\n3 1\n4 1\n")
        code = main(["solve", c4_file, "--variant", "total-vector-domination", "--demands", dem])
        assert code == EXIT_OK
        record = _record(capsys)
        assert record["size"] == 2
        assert record["feasible"] is True
        assert record["quality"] == "optimal"

    def test_record_field_order(self, c4_file, tmp_path, capsys) -> None:
        dem = _write(tmp_path, "ones.dem", "1 1\n2 1\n3 1\n4 1\n")
        main(["solve", c4_file, "--variant", "vector-domination", "--demands", dem])
        record = _record(capsys)
        assert list(record) == ["size", "vertices", "feasible", "quality", "solverPath", "elapsed"]
        assert record["vertices"] == sorted(record["vertices"])
        assert min(record["vertices"]) >= 1

    def test_greedy_method_reports_bound(self, c4_file, tmp_path, capsys) -> None:
        dem = _write(tmp_path, "ones.dem", "1 1\n2 1\n3 1\n4 1\n")
        code = main([
            "solve", c4_file, "--variant", "vector-domination",
            "--demands", dem, "--method", "greedy",
        ])
        assert code == EXIT_OK
        record = _record(capsys)
        assert "bound" in record
        assert record["quality"] == "approx"

    def test_alpha_variant(self, c4_file, capsys) -> None:
        code = main(["solve", c4_file, "--variant", "total-alpha-domination", "--alpha", "1/2"])
        assert code == EXIT_OK
        assert _record(capsys)["size"] == 2

    def test_infeasible_exit_one(self, tmp_path, capsys) -> None:
        gr = _write(tmp_path, "single.gr", SINGLE)
        dem = _write(tmp_path, "one.dem", "1 1\n")
        code = main(["solve", gr, "--variant", "total-vector-domination", "--demands", dem])
        assert code == EXIT_INFEASIBLE
        record = _record(capsys)
        assert record["size"] is None
        assert record["feasible"] is False

    def test_infeasible_record_names_the_routed_solver(self, tmp_path, capsys) -> None:
        # vertex 1 of the path 1-2-3 demands 2 but has one neighbour
        gr = _write(tmp_path, "p3.gr", P3)
        dem = _write(tmp_path, "two.dem", "1 2\n")
        expected = {"auto": ("cograph", "optimal"), "greedy": ("greedy-total-vector", "approx")}
        for method, (path, quality) in expected.items():
            code = main([
                "solve", gr, "--variant", "total-vector-domination",
                "--demands", dem, "--method", method,
            ])
            assert code == EXIT_INFEASIBLE
            record = _record(capsys)
            assert record["solverPath"] == path
            assert record["quality"] == quality

    def test_decimal_alpha_rejected(self, c4_file) -> None:
        code = main(["solve", c4_file, "--variant", "total-alpha-domination", "--alpha", "0.5"])
        assert code == EXIT_INPUT

    def test_missing_file(self) -> None:
        assert main(["solve", "no-such-file.gr", "--variant", "domination"]) == EXIT_INPUT

    def test_deterministic_apart_from_elapsed(self, c4_file, capsys) -> None:
        main(["solve", c4_file, "--variant", "domination"])
        first = _record(capsys)
        main(["solve", c4_file, "--variant", "domination"])
        second = _record(capsys)
        first.pop("elapsed")
        second.pop("elapsed")
        assert first == second

    def test_dispatch_methods_agree_on_size(self, c4_file, tmp_path, capsys) -> None:
        dem = _write(tmp_path, "ones.dem", "1 1\n2 1\n3 1\n4 1\n")
        sizes = {}
        for method in ("auto", "oracle", "cograph", "greedy"):
            code = main([
                "solve", c4_file, "--variant", "vector-domination",
                "--demands", dem, "--method", method,
            ])
            assert code == EXIT_OK
            sizes[method] = _record(capsys)["size"]
        assert sizes["auto"] == sizes["oracle"] == sizes["cograph"] == 2
        assert sizes["greedy"] >= 2

    def test_failed_certification_exit_three(self, tmp_path, monkeypatch, capsys) -> None:
        # a self-check that reports a violation must not pass as a solution
        monkeypatch.setattr(
            feasibility,
            "is_feasible",
            lambda inst, chosen: feasibility.FeasibilityResult(False, (0,)),
        )
        gr = _write(tmp_path, "p3.gr", P3)
        for method in ("auto", "greedy"):
            code = main(["solve", gr, "--variant", "k-domination", "--k", "1", "--method", method])
            assert code == EXIT_CERTIFICATION
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "certification failed" in captured.err


class TestVerify:
    def test_star_center_feasible(self, tmp_path, capsys) -> None:
        gr = _write(tmp_path, "star.gr", STAR)
        dem = _write(tmp_path, "k.dem", "1 2\n2 1\n3 1\n4 1\n")
        chosen = _write(tmp_path, "set.txt", "1\n")
        code = main(["verify", gr, "--variant", "vector-domination", "--demands", dem, "--set", chosen])
        assert code == EXIT_OK
        record = _record(capsys)
        assert record["feasible"] is True
        assert record["violations"] == []

    def test_infeasible_set_exits_one(self, c4_file, tmp_path, capsys) -> None:
        dem = _write(tmp_path, "ones.dem", "1 1\n2 1\n3 1\n4 1\n")
        chosen = _write(tmp_path, "set.txt", "1\n")
        code = main(["verify", c4_file, "--variant", "total-vector-domination", "--demands", dem, "--set", chosen])
        assert code == EXIT_INFEASIBLE
        record = _record(capsys)
        assert record["feasible"] is False
        assert record["violations"] == [1, 3]


class TestGadget:
    def test_k_dom_check(self, tmp_path, capsys) -> None:
        gr = _write(tmp_path, "p3.gr", "p edge 3 2\ne 1 2\ne 2 3\n")
        code = main(["gadget", gr, "--construction", "k-dom", "--k", "2", "--check"])
        assert code == EXIT_OK
        record = _record(capsys)
        assert record["check"]["passed"] is True
        assert record["check"]["witnessFeasible"] is True

    def test_alpha_construction_record(self, c4_file, capsys) -> None:
        code = main(["gadget", c4_file, "--construction", "alpha", "--alpha", "2/3"])
        assert code == EXIT_OK
        record = _record(capsys)
        assert record["construction"] == "alpha-domination"
        assert record["order"] == record["baseOrder"] + record["attachment"]

    def test_emit_writes_parseable_files(self, c4_file, tmp_path, capsys) -> None:
        prefix = str(tmp_path / "emitted")
        code = main(["gadget", c4_file, "--construction", "replicate", "--copies", "2", "--emit", prefix])
        assert code == EXIT_OK
        g = parse_graph((tmp_path / "emitted.graph").read_text())
        assert g.n == 8
        demands = parse_demands((tmp_path / "emitted.demands").read_text(), g)
        assert len(demands) == 8
        claim = json.loads((tmp_path / "emitted.claim.json").read_text())
        assert claim["lower"] == [2, 0]

    def test_gate_violation_exits_two(self, c4_file) -> None:
        code = main([
            "gadget", c4_file, "--construction", "total-alpha",
            "--alpha", "1/2", "--blocks", "1", "--copies-per-block", "1",
            "--block-factor", "1",
        ])
        assert code == EXIT_INPUT


# argument errors: each exits 2 with a single error line, never a traceback
ARGUMENT_ERRORS = {
    "copies 0": ["gadget", "C4", "--construction", "replicate", "--copies", "0"],
    "k 0": ["gadget", "C4", "--construction", "k-dom", "--k", "0"],
    "multiplier 0": ["gadget", "C4", "--construction", "alpha", "--alpha", "1/2", "--multiplier", "0"],
    "demand above the pool": [
        "gadget", "STAR", "--construction", "alpha", "--alpha", "3/4", "--multiplier", "1",
    ],
    # G' past the input limit is refused before anything is allocated
    "replicate copies 10^8": ["gadget", "K2", "--construction", "replicate", "--copies", "100000000"],
    "k-dom k 10^5": ["gadget", "K2", "--construction", "k-dom", "--k", "100000"],
    "alpha multiplier 10^8": [
        "gadget", "C4", "--construction", "alpha", "--alpha", "1/2", "--multiplier", "100000000",
    ],
    "total-alpha blocks 10^5": [
        "gadget", "C4", "--construction", "total-alpha", "--alpha", "1/2", "--blocks", "100000",
    ],
    **{
        f"{construction} {flag} 0": [
            "gadget", "C4", "--construction", construction, "--alpha", "1/2", flag, "0",
        ]
        for construction in ("total-alpha", "alpha-rate")
        for flag in ("--blocks", "--copies-per-block", "--block-factor")
    },
    **{
        f"{construction} alpha 1/1": ["gadget", "C4", "--construction", construction, "--alpha", "1/1"]
        for construction in ("total-alpha", "alpha-rate")
    },
    **{
        f"bench {family} size 0": ["bench", "--family", family, "--sizes", "0", "--reps", "1"]
        for family in ("trees", "cographs", "threshold", "gnp")
    },
}


def _graph_files(tmp_path: Path) -> dict[str, str]:
    return {
        "C4": _write(tmp_path, "c4.gr", C4),
        "STAR": _write(tmp_path, "star.gr", STAR),
        "K2": _write(tmp_path, "k2.gr", "p edge 2 1\ne 1 2\n"),
    }


@pytest.mark.parametrize("case", sorted(ARGUMENT_ERRORS))
def test_argument_error_exits_two(case, tmp_path, capsys) -> None:
    files = _graph_files(tmp_path)
    argv = [files.get(arg, arg) for arg in ARGUMENT_ERRORS[case]]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in captured.err


# every file the CLI reads, each in one command that reads it
NOT_UTF8_CASES = [
    ("solve", "graph"),
    ("solve", "demands"),
    ("verify", "graph"),
    ("verify", "demands"),
    ("verify", "set"),
    ("gadget", "graph"),
]


@pytest.mark.parametrize("command, bad", NOT_UTF8_CASES)
def test_non_utf8_file_exits_two(command, bad, tmp_path, capsys) -> None:
    files = {
        "graph": _write(tmp_path, "c4.gr", C4),
        "demands": _write(tmp_path, "ones.dem", "1 1\n2 1\n3 1\n4 1\n"),
        "set": _write(tmp_path, "set.txt", "1 3\n"),
    }
    Path(files[bad]).write_bytes(b"1\n\xff\n")
    argv = {
        "solve": ["solve", files["graph"], "--variant", "vector-domination", "--demands", files["demands"]],
        "verify": [
            "verify", files["graph"], "--variant", "vector-domination",
            "--demands", files["demands"], "--set", files["set"],
        ],
        "gadget": ["gadget", files["graph"], "--construction", "replicate", "--copies", "2"],
    }[command]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert files[bad] in lines[0]


def test_parser_built_once_and_flags_do_not_leak(c4_file, tmp_path, monkeypatch, capsys) -> None:
    built, build = [], cli.build_parser

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build)
    dem = _write(tmp_path, "ones.dem", "1 1\n2 1\n3 1\n4 1\n")
    flags = ["--variant", "vector-domination", "--demands", dem]
    assert main(["solve", c4_file, *flags, "--method", "greedy"]) == EXIT_OK
    assert _record(capsys)["solverPath"] == "greedy-vector-domination"
    assert main(["solve", c4_file, *flags]) == EXIT_OK
    assert _record(capsys)["solverPath"] == "cograph"
    assert main(["gadget", c4_file, "--construction", "replicate"]) == EXIT_OK
    assert _record(capsys)["order"] == 8
    assert built == [1]


@pytest.mark.parametrize(
    "alpha, code", [("2/3", EXIT_OK), ("3/4", EXIT_INPUT)]
)
def test_pool_gadget_same_under_optimize_flag(alpha, code, tmp_path, capsys) -> None:
    # the pool check used to be an assert, which -O strips
    argv = ["gadget", _graph_files(tmp_path)["STAR"], "--construction", "alpha",
            "--alpha", alpha, "--multiplier", "1"]
    assert main(argv) == code
    expected = capsys.readouterr()
    src = Path(vecdom.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-O", "-m", "vecdom.cli", *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
        timeout=60,
    )
    assert done.returncode == code
    assert done.stdout == expected.out
    assert done.stderr == expected.err
    assert "Traceback" not in done.stderr


class TestBench:
    def test_text_table(self, capsys) -> None:
        code = main(["bench", "--family", "trees", "--sizes", "30,60", "--seed", "5", "--reps", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "trees" in out
        assert "60" in out

    def test_csv_output(self, tmp_path, capsys) -> None:
        target = tmp_path / "cells.csv"
        code = main([
            "bench", "--family", "gnp", "--sizes", "10", "--seed", "5",
            "--reps", "1", "--csv", str(target),
        ])
        assert code == EXIT_OK
        lines = target.read_text().strip().splitlines()
        assert lines[0].startswith("family,")
        assert len(lines) == 2

    def test_deterministic_sizes(self, capsys) -> None:
        main(["bench", "--family", "cographs", "--sizes", "12", "--seed", "9", "--reps", "1"])
        first = capsys.readouterr().out
        main(["bench", "--family", "cographs", "--sizes", "12", "--seed", "9", "--reps", "1"])
        second = capsys.readouterr().out

        def sizes(text: str) -> list[str]:
            return [line.split()[4] for line in text.splitlines()[2:] if line.strip()]

        assert sizes(first) == sizes(second)


class TestOracleCapEnv:
    def test_lowered_cap_rejects(self, c4_file, monkeypatch) -> None:
        monkeypatch.setenv(ORACLE_CAP_ENV, "3")
        code = main(["solve", c4_file, "--variant", "domination", "--method", "oracle"])
        assert code == EXIT_INPUT

    def test_default_cap_allows(self, c4_file, monkeypatch, capsys) -> None:
        monkeypatch.delenv(ORACLE_CAP_ENV, raising=False)
        code = main(["solve", c4_file, "--variant", "domination", "--method", "oracle"])
        assert code == EXIT_OK
        assert _record(capsys)["size"] == 2


# -- fuzzed input files ------------------------------------------------------

_FUZZ_TOKENS = ["p", "edge", "e", "c", "x", "0", "1", "2", "3", "5", "8", "-1", "1/2", "+2", "99999999999"]
_FUZZ_SEPS = [" ", " ", "\t", "\n", "\n", "\r\n", "\r", "\x1e"]


@st.composite
def _garbage(draw: st.DrawFn) -> bytes:
    """Tokens and separators in any order, or any bytes at all."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    # a separator after every token, so digits never run into large counts
    parts = draw(st.lists(st.tuples(st.sampled_from(_FUZZ_TOKENS), st.sampled_from(_FUZZ_SEPS)), max_size=15))
    return "".join(t + s for t, s in parts).encode(draw(st.sampled_from(["utf-8", "utf-16"])))


@st.composite
def _fuzz_files(draw: st.DrawFn) -> tuple[bytes, bytes]:
    """A graph file and a demand file: well formed, one line mutilated, or garbage."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    m = len(edges) if draw(st.integers(0, 9)) else draw(st.integers(0, 12))
    graph = [f"p edge {n} {m}"] + [f"e {u} {v}" for u, v in edges]
    listed = draw(st.lists(st.integers(1, n), unique=True))
    demands = [f"{v} {draw(st.integers(0, 3))}" for v in listed]
    for lines in (graph, demands):
        if draw(st.integers(0, 3)) == 0:  # one mutilated line
            bad = " ".join(draw(st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=4)))
            lines.insert(draw(st.integers(0, len(lines))), bad)
    sep = draw(st.sampled_from(["\n", "\r\n", "\n\n", " \n"]))
    files = [sep.join(graph).encode(), sep.join(demands).encode()]
    if draw(st.integers(0, 4)) == 0:
        files[draw(st.integers(0, 1))] = draw(_garbage())
    return files[0], files[1]


_FUZZ_COMMANDS = [
    ["--variant", "vector-domination", "--demands", "{demands}"],
    ["--demands", "{demands}"],
    ["--variant", "total-vector-domination", "--demands", "{demands}", "--method", "greedy"],
    ["--variant", "multiple-domination", "--demands", "{demands}"],
    ["--variant", "k-domination", "--k", "2"],
    ["--variant", "alpha-domination", "--alpha", "2/3"],
    ["--variant", "strict-total-alpha-domination", "--alpha", "1/2"],
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory: pytest.TempPathFactory) -> Path:
    return tmp_path_factory.mktemp("fuzz")


@given(_fuzz_files(), st.sampled_from(_FUZZ_COMMANDS))
@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_files_exit_cleanly(fuzz_dir: Path, files: tuple[bytes, bytes], flags: list[str]) -> None:
    """Whatever bytes the files hold, `solve` ends with an exit code 0-3 and
    never a traceback."""
    graph, demands = files
    graph_path, demand_path = fuzz_dir / "fuzz.gr", fuzz_dir / "fuzz.dem"
    graph_path.write_bytes(graph)
    demand_path.write_bytes(demands)
    argv = ["solve", str(graph_path)] + [f.format(demands=demand_path) for f in flags]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_INPUT, EXIT_CERTIFICATION)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_OK:
        assert json.loads(out.getvalue())["feasible"] is True
