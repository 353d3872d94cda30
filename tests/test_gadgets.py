"""Reduction gadget builders and their machine-checked sandwich claims."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vecdom import (
    brute_force_minimum,
    build_graph,
    complete_graph,
    cycle_graph,
    gadget_alpha_domination,
    gadget_alpha_rate,
    gadget_k_domination,
    gadget_replicate,
    gadget_total_alpha,
    join,
    path_graph,
    star_graph,
    upper_witness,
    verify_sandwich,
)
from vecdom import gadgets
from vecdom.cli import main
from vecdom.errors import (
    AlphaOutOfRangeError,
    BlockTooSmallError,
    FeasibilityConditionViolatedError,
    IsolatedVertexError,
)
from vecdom.io import write_graph

from .strategies import PROPERTY_SETTINGS

SMALL_ALPHAS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


class TestReplicate:
    def test_three_copies_of_an_edge(self) -> None:
        out = gadget_replicate(complete_graph(2), 3)
        assert out.gprime.n == 6
        assert out.gprime.m == 3
        report = verify_sandwich(out)
        assert (report.lower, report.middle, report.upper) == (3, 3, 3)
        assert report.passed
        assert report.witness_feasible

    def test_single_copy_is_identity(self) -> None:
        out = gadget_replicate(path_graph(3), 1)
        assert out.gprime.n == 3
        assert out.gprime.m == 2
        assert verify_sandwich(out).passed

    def test_two_paths(self) -> None:
        report = verify_sandwich(gadget_replicate(path_graph(3), 2))
        assert report.middle == 2
        assert report.passed

    @given(st.integers(1, 3))
    @PROPERTY_SETTINGS
    def test_embeddings_partition_the_copies(self, copies) -> None:
        base = cycle_graph(4)
        out = gadget_replicate(base, copies)
        seen: set[int] = set()
        assert len(out.embeddings) == copies
        for emb in out.embeddings:
            assert len(emb) == base.n
            assert not (seen & set(emb))
            seen |= set(emb)
            for u, v in base.edges():
                assert emb[v] in out.gprime.neighbors(emb[u])
        assert len(seen) == out.gprime.n


class TestAlphaDomination:
    def test_edge_at_half(self) -> None:
        out = gadget_alpha_domination(complete_graph(2), Fraction(1, 2))
        assert out.gprime.n == 3  # base + pool of ceil(a/(1-a)) * max degree = 1
        assert out.attachment_demands == (0, 0)
        report = verify_sandwich(out)
        assert (report.lower, report.middle, report.upper) == (1, 1, 2)
        assert report.passed
        assert report.witness_feasible

    def test_path_all_attachments_zero(self) -> None:
        out = gadget_alpha_domination(path_graph(3), Fraction(1, 2))
        assert out.attachment_demands == (0, 0, 0)

    def test_cycle_at_two_thirds(self) -> None:
        out = gadget_alpha_domination(cycle_graph(4), Fraction(2, 3))
        assert out.attachment_demands == (1, 1, 1, 1)
        assert len(out.attachment_vertices) == 4
        # every base vertex gained exactly its attachment demand in degree
        for v in range(4):
            assert out.gprime.degree(v) == 2 + out.attachment_demands[v]
        report = verify_sandwich(out)
        assert (report.lower, report.middle, report.upper) == (2, 4, 6)
        assert report.passed

    def test_pool_always_larger_than_any_demand(self) -> None:
        for alpha in SMALL_ALPHAS:
            for g in (complete_graph(2), path_graph(4), cycle_graph(4), star_graph(3)):
                out = gadget_alpha_domination(g, alpha)
                assert max(out.attachment_demands) < len(out.attachment_vertices)

    def test_isolated_vertex_rejected(self) -> None:
        with pytest.raises(IsolatedVertexError):
            gadget_alpha_domination(build_graph(2, []), Fraction(1, 2))

    def test_alpha_one_rejected(self) -> None:
        with pytest.raises(AlphaOutOfRangeError):
            gadget_alpha_domination(complete_graph(2), Fraction(1))

    def test_attachment_demand_brackets_alpha(self) -> None:
        # with k extra neighbours, a vertex needs exactly one chosen neighbour
        # beyond them: k / (size + k) < alpha <= (k + 1) / (size + k), exactly
        for q in range(2, 14):
            for p in range(1, q):
                alpha = Fraction(p, q)
                for size in range(1, 60):
                    k = gadgets._attachment_demand(alpha, size)
                    assert Fraction(k, size + k) < alpha <= Fraction(k + 1, size + k), (alpha, size)


class TestTotalAlpha:
    def test_edge_with_two_blocks(self) -> None:
        out = gadget_total_alpha(
            complete_graph(2), Fraction(1, 2), blocks=2, copies_per_block=1, block_factor=1
        )
        assert out.gprime.n == 6  # two copies of the edge + a 2-clique
        report = verify_sandwich(out)
        assert (report.lower, report.middle, report.upper) == (4, 6, 6)
        assert report.passed
        assert report.witness_feasible
        # no block count: the smallest one the gate accepts, here 2
        assert gadget_total_alpha(complete_graph(2), Fraction(1, 2), None, 1, 1) == out

    def test_feasibility_gate(self) -> None:
        with pytest.raises(FeasibilityConditionViolatedError):
            gadget_total_alpha(
                complete_graph(2), Fraction(1, 2), blocks=1, copies_per_block=1, block_factor=1
            )

    def test_block_too_small_for_high_demand(self) -> None:
        # star center needs more attachments than one block can offer
        with pytest.raises(BlockTooSmallError):
            gadget_total_alpha(star_graph(3), Fraction(2, 3), blocks=2, copies_per_block=1)

    def test_isolated_vertex_rejected(self) -> None:
        with pytest.raises(IsolatedVertexError):
            gadget_total_alpha(build_graph(3, [(0, 1)]), Fraction(1, 2), blocks=2, copies_per_block=1)


class TestAlphaRate:
    def test_edge_at_half(self) -> None:
        out = gadget_alpha_rate(
            complete_graph(2), Fraction(1, 2), blocks=1, copies_per_block=1, block_factor=1
        )
        assert out.attachment_demands == (0, 0)
        report = verify_sandwich(out)
        assert (report.lower, report.middle, report.upper) == (1, 2, 2)
        assert report.passed
        assert report.witness_feasible

    def test_triangle_demand_formula(self) -> None:
        out = gadget_alpha_rate(
            complete_graph(3), Fraction(2, 3), blocks=1, copies_per_block=1, block_factor=3
        )
        # d=2 at alpha=2/3 over closed neighborhoods: demand 3, and 3/6 < 2/3 <= 4/6
        assert out.attachment_demands == (3, 3, 3)

    def test_gate_uses_single_alpha_numerator(self) -> None:
        # the alpha-rate gate is half as strict as the total-alpha one
        out = gadget_alpha_rate(
            complete_graph(2), Fraction(1, 2), blocks=1, copies_per_block=1, block_factor=1
        )
        assert out.gprime.n == 3
        with pytest.raises(FeasibilityConditionViolatedError):
            gadget_total_alpha(
                complete_graph(2), Fraction(1, 2), blocks=1, copies_per_block=1, block_factor=1
            )


class TestKDomination:
    def test_path_with_one_universal_vertex(self) -> None:
        out = gadget_k_domination(path_graph(3), 2)
        assert out.gprime.n == 4
        report = verify_sandwich(out)
        assert report.lower is None
        assert (report.middle, report.upper) == (2, 2)
        assert report.passed
        assert report.witness_feasible

    def test_k_one_is_identity(self) -> None:
        out = gadget_k_domination(path_graph(3), 1)
        assert out.gprime.n == 3
        assert out.gprime.m == 2
        assert verify_sandwich(out).passed

    def test_edge_to_k4(self) -> None:
        out = gadget_k_domination(complete_graph(2), 3)
        assert out.gprime.is_complete()
        report = verify_sandwich(out)
        assert (report.middle, report.upper) == (3, 3)
        assert report.passed


class TestVerifier:
    def test_corrupted_claim_fails_honestly(self) -> None:
        out = gadget_replicate(complete_graph(2), 2)
        tampered = dataclasses.replace(
            out, claim=dataclasses.replace(out.claim, lower=(3, 0))
        )
        report = verify_sandwich(tampered)
        assert not report.passed
        assert report.lower == 3
        assert report.middle == 2

    def test_base_optimum_solved_once(self, monkeypatch) -> None:
        calls = []

        def counting(inst, cap):
            calls.append(inst.graph.n)
            return brute_force_minimum(inst, cap)

        monkeypatch.setattr(gadgets, "brute_force_minimum", counting)
        out = gadget_alpha_rate(complete_graph(2), Fraction(1, 2), 1, 1, 1)
        report = verify_sandwich(out)
        # once on the base, once on the construction
        assert calls == [2, 3]
        assert report.witness_feasible


# -- golden digest ------------------------------------------------------------

GOLDEN_BASES = {
    "K2": complete_graph(2),
    "P3": path_graph(3),
    "P4": path_graph(4),
    "C4": cycle_graph(4),
    "K1,3": star_graph(3),
    "K4": complete_graph(4),
    "P2+2K1": join(path_graph(2), build_graph(2, [])),
}
GOLDEN_ALPHAS = ("1/3", "1/2", "2/3", "3/4")
# sandwiches on at most this many vertices are also checked by oracle
VERIFIED_ORDER = 16


def _gadget_calls():
    """Every (label, builder, arguments) of the grid, zero counts included."""
    for name, g in GOLDEN_BASES.items():
        for copies in range(4):
            yield f"replicate|{name}|{copies}", gadget_replicate, (g, copies)
        for k in range(4):
            yield f"k-dom|{name}|{k}", gadget_k_domination, (g, k)
        for alpha in GOLDEN_ALPHAS:
            a = Fraction(alpha)
            for mult in (None, 0, 1, 2):
                yield f"alpha|{name}|{alpha}|{mult}", gadget_alpha_domination, (g, a, mult)
            for build in (gadget_total_alpha, gadget_alpha_rate):
                for blocks in range(4):
                    for per_block in range(3):
                        for factor in (None, 0, 1, 2, 3):
                            if 0 in (blocks, per_block, factor) and alpha != "1/2":
                                continue
                            yield (
                                f"{build.__name__}|{name}|{alpha}|{blocks}|{per_block}|{factor}",
                                build,
                                (g, a, blocks, per_block, factor),
                            )


def _gadget_outcome(build, args) -> str:
    try:
        out = build(*args)
    except Exception as exc:  # the class of whatever escapes is the record
        return f"!{type(exc).__name__}"
    parts = [
        out.construction,
        repr(out.gprime._adj),
        repr(out.embeddings),
        repr(out.attachment_demands),
        repr(out.attachment_vertices),
        repr(out.claim),
    ]
    if out.gprime.n <= VERIFIED_ORDER:
        report = verify_sandwich(out)
        assert report.passed and report.witness_feasible
        parts += [repr(report), repr(sorted(upper_witness(out)))]
    return "|".join(parts)


def _gadget_cli_argvs():
    """``vecdom gadget`` runs: the CLI's own defaults, --emit and --check, bad counts."""
    for name in GOLDEN_BASES:
        for construction in ("total-alpha", "alpha-rate"):
            for alpha in GOLDEN_ALPHAS:
                for per_block in ("1", "2"):
                    for factor in (None, "1", "2", "3"):
                        argv = [name, "--construction", construction, "--alpha", alpha,
                                "--copies-per-block", per_block]
                        if factor is not None:
                            argv += ["--block-factor", factor]
                        yield argv
    yield ["C4", "--construction", "replicate", "--copies", "2", "--emit", "out"]
    yield ["P3", "--construction", "k-dom", "--k", "2", "--emit", "out", "--check"]
    yield ["C4", "--construction", "alpha", "--alpha", "2/3", "--emit", "out", "--check"]
    yield ["K2", "--construction", "total-alpha", "--alpha", "1/2", "--emit", "out", "--check"]
    yield ["P4", "--construction", "alpha-rate", "--alpha", "2/3", "--emit", "out", "--check"]
    yield ["K1,3", "--construction", "alpha", "--alpha", "2/3", "--multiplier", "1"]
    yield ["K1,3", "--construction", "alpha", "--alpha", "3/4", "--multiplier", "1"]
    yield ["K2", "--construction", "replicate", "--copies", "0"]
    yield ["K2", "--construction", "k-dom", "--k", "0"]
    yield ["K2", "--construction", "alpha", "--alpha", "1/2", "--multiplier", "0"]
    for construction in ("total-alpha", "alpha-rate"):
        yield ["K2", "--construction", construction, "--alpha", "1/2", "--blocks", "0"]
        yield ["K2", "--construction", construction, "--alpha", "1/2", "--copies-per-block", "0"]
        yield ["K2", "--construction", construction, "--alpha", "1/2", "--block-factor", "0"]
        yield ["K2", "--construction", construction, "--alpha", "1/1"]


def _gadget_cli_outcome(argv: list[str], cwd: Path) -> str:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["gadget", *argv])
    except Exception as exc:  # the class of whatever escapes is the record
        return f"!{type(exc).__name__}"
    text = out.getvalue()
    if text:
        record = json.loads(text)
        if "check" in record:
            record["check"].pop("elapsed")
        text = json.dumps(record)
    emitted = [
        (cwd / f"out{ext}").read_text() for ext in (".graph", ".demands", ".claim.json")
    ] if "--emit" in argv else []
    return f"exit {code}|{text}|{emitted!r}"


def _gadget_records(tmp_path: Path, monkeypatch) -> list[str]:
    records = [
        f"{label}|{_gadget_outcome(build, args)}" for label, build, args in _gadget_calls()
    ]
    monkeypatch.chdir(tmp_path)
    for name, g in GOLDEN_BASES.items():
        (tmp_path / name).write_text(write_graph(g))
    for argv in _gadget_cli_argvs():
        records.append(f"cli|{' '.join(argv)}|{_gadget_cli_outcome(argv, tmp_path)}")
    return records


# sha256 of the records above; a change means some construction, claim,
# oracle check or CLI run now comes out differently
GADGET_DIGEST = "77d7493d123ca0edbce52c541904a46d21f5369815f1bb72e6ab64b5d0ebfcb9"


def test_gadget_outputs_match_golden_digest(tmp_path, monkeypatch) -> None:
    records = _gadget_records(tmp_path, monkeypatch)
    assert len(records) >= 1500
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == GADGET_DIGEST
