"""Planted mutations that the suite must kill.

Each entry names a function, fragments of its source with their
replacements, and a fast check.  The test rebuilds the function from
``inspect.getsource`` with the fragments replaced, swaps it in with
``monkeypatch`` wherever the package holds it, and requires the check to
fail; the same check must pass on the unmutated code first.  A fragment
that is no longer found exactly once fails the test, so a refactor has to
carry its mutants along.
"""

from __future__ import annotations

import inspect
import random
import re
import sys
import textwrap
from typing import Callable, NamedTuple
from unittest import mock

import pytest

from vecdom import (
    Instance,
    Neighborhood,
    Scope,
    brute_force_minimum,
    solve_threshold_vector,
    solve_tree_vector,
)
from vecdom import approx, decomposition, exact, feasibility, gadgets
from vecdom import io as vio
from vecdom.errors import VecdomError
from vecdom.generators import prufer_to_tree, random_cograph, random_threshold

from .strategies import caterpillar_2k2, relabelled
from .test_approx import _check_partial_greedy, _check_total_greedy, _differential_graph
from .test_decomposition import _check_shape, _recursive_cotree
from .test_exact import (
    _assert_sweep_invariant,
    _check_join,
    _checked_tree,
    _outcomes,
    _random_row,
    _streamed_oracle_returns_lex_first,
    _unpruned_cograph,
)
from .test_gadgets import _gadget_calls
from .test_io_differential import _density_cases_match_reference


def _greedies_match_eager() -> None:
    for case in range(150):
        rng = random.Random(f"mutants-greedy:{case}")
        g = _differential_graph(case, rng)
        demands = tuple(rng.randint(0, min(g.degree(v) + 1, 3)) for v in range(g.n))
        _check_total_greedy(g, demands, case % 2 == 1, case)
        _check_partial_greedy(g, demands, case)


def _join_rows_match_scan() -> None:
    rng = random.Random("mutants-join-row")
    for index in range(600):
        if index % 2:
            n_left, n_right = rng.randint(1, 4), rng.randint(5, 40)
            tops = [rng.randint(5, 30) for _ in range(2)]
        else:
            n_left, n_right = rng.randint(1, 20), rng.randint(1, 20)
            tops = [rng.randint(0, 8) for _ in range(2)]
        infeasible = n_left + n_right + 1
        left = _random_row(rng, n_left, tops[0], infeasible)
        right = _random_row(rng, n_right, tops[1], infeasible)
        _check_join(left, right, n_left, n_right, infeasible)


def _cograph_dp_matches_unpruned() -> None:
    rng = random.Random("mutants-cograph")
    for index in range(80):
        if index % 3 == 0:
            g = relabelled(caterpillar_2k2(rng.randint(1, 6)), rng)
        else:
            g = (random_cograph if index % 3 == 1 else random_threshold)(rng.randint(1, 24), rng)
        # one vertex in ten demands more than its degree
        demands = tuple(
            g.degree(v) + 1 if rng.random() < 0.1 else rng.randint(0, g.degree(v))
            for v in range(g.n)
        )
        scope = Scope.TOTAL if index % 4 == 3 else Scope.PARTIAL
        inst = Instance(g, Neighborhood.OPEN, scope, demands)
        found = _outcomes(inst)
        with mock.patch.dict(exact._EXACT, cograph=_unpruned_cograph):
            assert found == _outcomes(inst), index


def _tree_sweep_keeps_invariant() -> None:
    rng = random.Random("mutants-tree")
    with mock.patch.dict(exact._EXACT, tree=_checked_tree(_assert_sweep_invariant)):
        for _ in range(60):
            n = rng.randint(2, 12)
            g = prufer_to_tree(n, [rng.randrange(n) for _ in range(n - 2)])
            solve_tree_vector(g, tuple(rng.randint(0, g.degree(v) + 1) for v in range(n)))


def _threshold_dp_matches_oracle() -> None:
    rng = random.Random("mutants-threshold")
    for _ in range(150):
        g = relabelled(random_threshold(rng.randint(2, 10), rng), rng)
        demands = tuple(rng.randint(0, g.degree(v) + 1) for v in range(g.n))
        inst = Instance(g, Neighborhood.OPEN, Scope.PARTIAL, demands)
        assert solve_threshold_vector(g, demands).size == brute_force_minimum(inst).size


def _cotrees_match_reference() -> None:
    rng = random.Random("mutants-cotree")
    for _ in range(100):
        g = random_cograph(rng.randint(1, 30), rng)
        tree = decomposition.build_modified_cotree(g)
        _check_shape(tree)
        assert tree == _recursive_cotree(g)


def _deep_cotrees_match_reference() -> None:
    # rows far longer than the sets split deep in the tree: the splits read sets
    rng = random.Random("mutants-deep-cotree")
    for blocks in range(6, 21):
        g = relabelled(caterpillar_2k2(blocks), rng)
        assert decomposition.build_modified_cotree(g) == _recursive_cotree(g), blocks


def _gadgets_glue_each_copy_once() -> None:
    for label, build, args in _gadget_calls():
        try:
            out = build(*args)
        except VecdomError:
            continue
        g, gprime, block = out.base, out.gprime, set(out.attachment_vertices)
        for emb in out.embeddings:
            for v in g.vertices():
                row = set(gprime.neighbors(emb[v]))
                assert row - block == {emb[u] for u in g.neighbors(v)}, label
                assert len(row & block) == out.attachment_demands[v], label
        if out.construction in ("total-alpha", "alpha-rate", "k-domination"):
            for x in block:
                assert block - {x} <= set(gprime.neighbors(x)), label


def _dense_files_match_reference() -> None:
    _density_cases_match_reference(dense=True)


class Mutant(NamedTuple):
    owner: object  # the module or class that defines the function
    name: str
    edits: tuple[tuple[str, str], ...]  # (fragment, replacement)
    check: Callable[[], None]


MUTANTS = {
    # the greedies' score upkeep
    "coverage skips the decrement when a needy vertex is chosen": Mutant(
        feasibility.CoverageState, "add", (("for x in adj[w]:", "for x in ():"),),
        _greedies_match_eager,
    ),
    "coverage skips the neighbour decrement when a vertex fills": Mutant(
        feasibility.CoverageState, "add", (("for x in adj[u]:", "for x in ():"),),
        _greedies_match_eager,
    ),
    "multicover skips the live decrement": Mutant(
        approx, "_multicover", (("live[i] -= 1", "live[i] -= 0"),), _greedies_match_eager,
    ),
    # the cograph DP
    "a forced leaf gets the row [0]": Mutant(
        exact, "_cograph", (("[1] if kv > len(adj[v])", "[0] if kv > len(adj[v])"),),
        _cograph_dp_matches_unpruned,
    ),
    "a join pads each side up to its own guess": Mutant(
        exact, "_cograph", (("((k + 1, j), (ends[k + 1], i))", "((k + 1, i), (ends[k + 1], j))"),),
        _cograph_dp_matches_unpruned,
    ),
    "the join's pointer stops at b[j] < i": Mutant(
        exact, "_join_row", (("b[first - 1] <= i", "b[first - 1] < i"),), _join_rows_match_scan,
    ),
    "the join skips g(I, j) before the pointer": Mutant(
        exact, "_join_row", (("for j in range(first):", "for j in range(0):"),),
        _join_rows_match_scan,
    ),
    "the join drops g(i, J) past the pointer": Mutant(
        exact, "_join_row",
        (("value = (ai if ai > last else last) + (b_last if b_last > i else i)",
          "value = infeasible"),),
        _join_rows_match_scan,
    ),
    "the join takes the last minimising j": Mutant(
        exact, "_join_pair", (("for j, bj in enumerate(b)", "for j, bj in [*enumerate(b)][::-1]"),),
        _join_rows_match_scan,
    ),
    # the tree and threshold DPs
    "the tree sweep skips pulling in its parent": Mutant(
        exact, "_tree", (("if not in_s[pv]:", "if False:"),), _tree_sweep_keeps_invariant,
    ),
    "a dominating vertex is taken one step early": Mutant(
        exact, "_threshold_takes", (("need > i or", "need >= i or"),),
        _threshold_dp_matches_oracle,
    ),
    "a dominating vertex stays out one step too long": Mutant(
        exact, "_threshold_takes", (("need > i or", "need > i + 1 or"),),
        _threshold_dp_matches_oracle,
    ),
    # the oracle's subsets
    "the streamed subsets leave out vertex 0": Mutant(
        exact, "_masks", (("for v in range(n)]", "for v in range(1, n)]"),),
        _streamed_oracle_returns_lex_first,
    ),
    # the cotree build
    "union parts are written in reverse": Mutant(
        decomposition, "build_modified_cotree",
        (('return "union", parts', 'return "union", parts[::-1]'),), _cotrees_match_reference,
    ),
    "a join chain is peeled from its last part": Mutant(
        decomposition, "build_modified_cotree",
        (('return "join", parts', 'return "join", parts[::-1]'),), _cotrees_match_reference,
    ),
    "a long row's set is made from the row before it": Mutant(
        decomposition, "_components_within",
        (("nbrs = rows[v] = set(nbrs)", "nbrs = rows[v] = set(rows[v - 1])"),),
        _deep_cotrees_match_reference,
    ),
    # the gadgets' one layout
    "every block run serves all the copies": Mutant(
        gadgets, "_assemble",
        (("offsets[b * copies // blocks : (b + 1) * copies // blocks]", "offsets"),),
        _gadgets_glue_each_copy_once,
    ),
    "the block loses its clique edges": Mutant(
        gadgets, "_assemble",
        (("edges += combinations(range(start, start + size), 2)", "edges += ()"),),
        _gadgets_glue_each_copy_once,
    ),
    # the dense files' name table
    "the name table is shifted by one": Mutant(
        vio, "parse_graph", (("range(1, n + 1)", "range(n)"),), _dense_files_match_reference,
    ),
    "a name missing from the table escapes as a KeyError": Mutant(
        vio, "parse_graph", (("except KeyError:", "except ():"),), _dense_files_match_reference,
    ),
}


def _mutated(mutant: Mutant) -> Callable:
    original = inspect.getattr_static(mutant.owner, mutant.name)
    source = textwrap.dedent(inspect.getsource(original))
    for fragment, _ in mutant.edits:
        assert source.count(fragment) == 1, f"fragment {fragment!r} is not in the source once"
    # all at once, so that two edits may swap fragments
    replacements = dict(mutant.edits)
    fragments = re.compile("|".join(map(re.escape, replacements)))
    source = fragments.sub(lambda found: replacements[found.group()], source)
    module = sys.modules[original.__module__]
    namespace = dict(vars(module))
    exec(compile(source, f"<mutant of {mutant.name}>", "exec"), namespace)
    return namespace[mutant.name]


def _swap_in(monkeypatch, mutant: Mutant, function: Callable) -> None:
    """Put ``function`` wherever the package holds the original."""
    original = inspect.getattr_static(mutant.owner, mutant.name)
    if isinstance(mutant.owner, type):
        monkeypatch.setattr(mutant.owner, mutant.name, function)
        return
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "vecdom"]:
        if vars(module).get(mutant.name) is original:
            monkeypatch.setattr(module, mutant.name, function)
    for method, body in exact._EXACT.items():
        if body is original:
            monkeypatch.setitem(exact._EXACT, method, function)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(name, monkeypatch) -> None:
    mutant = MUTANTS[name]
    mutant.check()  # passes on the code as it is
    _swap_in(monkeypatch, mutant, _mutated(mutant))
    # a wrong answer, a failed certification or a scan off a row's end
    with pytest.raises((AssertionError, VecdomError, IndexError)):
        mutant.check()
