"""Pins for the solve pipeline: golden output digests and recognition counts.

The golden digests hash what every entry point returns on a fixed seeded
corpus: the method, the sorted vertices, the quality and both bounds, or
the class of the exception raised.  Any change to which set a solver
picks, which solver a route reaches, or which error wins shows up as a
different digest.

The call-count tests count the recognisers, ``tree_order`` among them, and
``is_feasible`` inside one ``auto_solve`` call, so a layer that finds the
same certificate again, or certifies an answer twice, fails them.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from vecdom import (
    Graph,
    Instance,
    Neighborhood,
    Scope,
    auto_solve,
    brute_force_minimum,
    build_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    greedy_multiple_domination,
    greedy_total_vector,
    greedy_vector_domination,
    is_cograph,
    is_threshold,
    join,
    path_graph,
    solve_cograph,
    solve_complete_total,
    solve_complete_vector,
    solve_threshold_vector,
    solve_tree_vector,
    star_graph,
)
from vecdom import decomposition, feasibility, graph
from vecdom.cli import main
from vecdom.errors import VecdomError
from vecdom.generators import (
    random_cograph,
    random_demand_vector,
    random_gnp,
    random_threshold,
    random_tree,
    threshold_graph,
)
from vecdom.io import write_demands, write_graph

OPEN, CLOSED = Neighborhood.OPEN, Neighborhood.CLOSED
PARTIAL, TOTAL = Scope.PARTIAL, Scope.TOTAL

FAMILIES = ("tree", "threshold", "cograph", "complete", "gnp")


def _family_graph(family: str, n: int, rng: random.Random) -> Graph:
    if family == "tree":
        return random_tree(n, rng)
    if family == "threshold":
        return random_threshold(n, rng)
    if family == "cograph":
        return random_cograph(n, rng)
    if family == "complete":
        return complete_graph(n)
    return random_gnp(n, rng.uniform(0.25, 0.6), rng)


def _corpus() -> list[tuple[Graph, tuple[int, ...]]]:
    """Seeded graphs with demands: small ones for the oracle, a few above its cap.

    Demands may exceed the degree by up to two, so partial scope forces
    vertices and total scope is sometimes infeasible.
    """
    rng = random.Random(20260417)
    corpus = [(build_graph(0, []), ())]
    for family in FAMILIES:
        for i in range(40):
            n = rng.randint(1, 9) if i < 36 else rng.randint(21, 30)
            g = _family_graph(family, n, rng)
            if i % 5 == 4:
                k = rng.randint(0, 2)
                demands = (k,) * n
            else:
                demands = random_demand_vector(g, rng, extra=i % 3)
            corpus.append((g, demands))
    return corpus


def _entries(inst: Instance) -> list[tuple[str, object]]:
    """Every public solver and greedy that accepts the instance's variant."""
    g, d = inst.graph, inst.demands
    entries = [
        ("auto_solve", lambda: auto_solve(inst)),
        ("brute_force_minimum", lambda: brute_force_minimum(inst)),
    ]
    if inst.neighborhood is OPEN and inst.scope is PARTIAL:
        entries += [
            ("solve_complete_vector", lambda: solve_complete_vector(g, d)),
            ("solve_tree_vector", lambda: solve_tree_vector(g, d)),
            ("solve_threshold_vector", lambda: solve_threshold_vector(g, d)),
            ("solve_cograph", lambda: solve_cograph(inst)),
            ("greedy_vector_domination", lambda: greedy_vector_domination(inst)),
        ]
    elif inst.neighborhood is OPEN:
        entries += [
            ("solve_complete_total", lambda: solve_complete_total(g, d)),
            ("solve_cograph", lambda: solve_cograph(inst)),
            ("greedy_total_vector", lambda: greedy_total_vector(inst)),
        ]
    elif inst.scope is TOTAL:
        entries.append(("greedy_multiple_domination", lambda: greedy_multiple_domination(inst)))
    else:
        # closed partial: the open-only solvers must refuse it
        entries += [
            ("solve_cograph", lambda: solve_cograph(inst)),
            ("greedy_vector_domination", lambda: greedy_vector_domination(inst)),
        ]
    return entries


def _outcome(call, vertices=lambda sol: list(sol.sorted_vertices())) -> str:
    try:
        sol = call()
    except VecdomError as exc:
        return f"!{type(exc).__name__}"
    return (
        f"{sol.method}|{sol.status}|{sol.quality}|{vertices(sol)}"
        f"|{sol.bound!r}|{sol.coarse_bound!r}"
    )


def _size_outcome(call) -> str:
    """``_outcome`` with the set's size in place of its vertices."""
    return _outcome(call, lambda sol: len(sol.vertices))


def _digest(records: list[str]) -> str:
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


# sha256 of the records below on the seeded corpus; a change means some
# entry point now answers differently.  SIZE_DIGEST keeps only each set's
# size, so a change of tie-break moves SOLVER_DIGEST alone
SOLVER_DIGEST = "84bcacab7504cf104c312e148aaae9459fe2d03df0bcf1d6fc95a81a573ce784"
SIZE_DIGEST = "3e0ea89e35d5253d644fa154b05fc4ffcce630de45dfc8341b4dd3714f04dccf"
CLI_DIGEST = "4a0cafc2cb7bada120d9122f0f13c2ad49bdf5a6e615b4bdbd2469b73c355a75"


def _solver_records(outcome=_outcome) -> list[str]:
    records = []
    for index, (g, demands) in enumerate(_corpus()):
        for neighborhood in (OPEN, CLOSED):
            for scope in (PARTIAL, TOTAL):
                inst = Instance(g, neighborhood, scope, demands)
                for name, call in _entries(inst):
                    records.append(
                        f"{index}|{neighborhood.value}|{scope.value}|{name}|{outcome(call)}"
                    )
    return records


def test_solver_outputs_match_golden_digest() -> None:
    records = _solver_records()
    assert len(records) >= 2000
    assert _digest(records) == SOLVER_DIGEST


def test_solver_sizes_match_golden_digest() -> None:
    records = _solver_records(_size_outcome)
    assert len(records) >= 2000
    assert _digest(records) == SIZE_DIGEST


def test_solver_digest_same_under_optimize_flag() -> None:
    # -O strips every assert, CotreeNode's shape checks among them
    root = Path(__file__).resolve().parents[1]
    script = (
        "from tests.test_pipeline import _digest, _solver_records\n"
        "assert False, 'asserts are still on'\n"
        "records = _solver_records()\n"
        "print(len(records), _digest(records))\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        cwd=root,
        env={"PYTHONPATH": f"{root / 'src'}{os.pathsep}{root}"},
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    count, digest = done.stdout.split()
    assert int(count) >= 2000
    assert digest == SOLVER_DIGEST


CLI_METHODS = ("auto", "greedy", "oracle", "tree", "cograph", "threshold", "complete")
CLI_VARIANTS = ("vector-domination", "total-vector-domination", "multiple-domination")


def _cli_outcome(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code != 0:
        # the infeasible record's solverPath and quality are pinned apart
        return f"exit {code}"
    record = json.loads(out.getvalue().strip().splitlines()[-1])
    record.pop("elapsed")
    return json.dumps(record)


def test_cli_methods_match_golden_digest(tmp_path: Path) -> None:
    records = []
    corpus = _corpus()
    # the empty graph, then eight small graphs and one above the oracle cap per family
    picked = [corpus[0]] + [
        corpus[1 + 40 * family + i] for family in range(len(FAMILIES)) for i in (*range(8), 36)
    ]
    for index, (g, demands) in enumerate(picked):
        graph_file = tmp_path / f"{index}.gr"
        demand_file = tmp_path / f"{index}.dem"
        graph_file.write_text(write_graph(g))
        demand_file.write_text(write_demands(demands))
        for variant in CLI_VARIANTS:
            for method in CLI_METHODS:
                argv = [
                    "solve", str(graph_file), "--variant", variant,
                    "--demands", str(demand_file), "--method", method,
                ]
                records.append(f"{index}|{variant}|{method}|{_cli_outcome(argv)}")
    assert _digest(records) == CLI_DIGEST


# -- recognition and certification counts ----------------------------------

# the counted functions, each with the module that defines it
COUNTED = {
    "threshold_elimination_order": decomposition,
    "build_modified_cotree": decomposition,
    "tree_order": graph,
    "is_feasible": feasibility,
}


@pytest.fixture()
def counts(monkeypatch) -> dict[str, int]:
    """Count calls to the recognisers and is_feasible.

    Every module of the package that holds one of the counted functions
    gets the counting wrapper, wherever it was imported from, so
    ``Graph.is_tree`` counts as one ``tree_order``.
    """
    tally = dict.fromkeys(COUNTED, 0)
    modules = [m for key, m in sys.modules.items() if key == "vecdom" or key.startswith("vecdom.")]
    for name, home in COUNTED.items():
        original = getattr(home, name)

        def counting(*args, _name=name, _original=original):
            tally[_name] += 1
            return _original(*args)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return tally


def _threshold() -> Graph:
    g = threshold_graph([True, False, True, False, False, True, False, True])
    assert is_threshold(g) and not g.is_tree() and not g.is_complete()
    return g


def _cograph() -> Graph:
    # a join of two unions is P4-free, but neither threshold nor a tree
    g = join(disjoint_union([path_graph(2), build_graph(1, [])])[0], cycle_graph(4))
    assert is_cograph(g) and not is_threshold(g) and not g.is_tree() and not g.is_complete()
    return g


def _ones(g: Graph) -> tuple[int, ...]:
    return (1,) * g.n


def _forcing(g: Graph) -> tuple[int, ...]:
    """Demand 1 everywhere, except vertex 0 demands more than its degree."""
    return (g.degree(0) + 1,) + (1,) * (g.n - 1)


def _cases() -> dict[str, tuple[Instance, tuple[int, int, int, int]]]:
    """Instances by route, each with the calls one auto_solve may make.

    The counts are threshold orderings, cotrees, tree orders and
    ``is_feasible``.  A miss costs one attempt: every graph here that is
    not complete or a tree is tried as a threshold graph, and then as a
    cograph unless it is one.  Forced vertices stay in the certificate,
    so they cost no second recognition.
    """
    thr, cog, tree = _threshold(), _cograph(), star_graph(4)
    k5, c5 = complete_graph(5), cycle_graph(5)
    big = random_gnp(30, 0.3, random.Random(3))
    assert not is_cograph(big)
    return {
        "threshold partial": (Instance(thr, OPEN, PARTIAL, _ones(thr)), (1, 0, 1, 1)),
        "threshold partial forced": (Instance(thr, OPEN, PARTIAL, _forcing(thr)), (1, 0, 1, 1)),
        # the caterpillar is read off the ordering: no cotree build
        "threshold total": (Instance(thr, OPEN, TOTAL, _ones(thr)), (1, 0, 0, 1)),
        "cograph partial": (Instance(cog, OPEN, PARTIAL, _ones(cog)), (1, 1, 1, 1)),
        "cograph partial forced": (Instance(cog, OPEN, PARTIAL, _forcing(cog)), (1, 1, 1, 1)),
        "cograph total": (Instance(cog, OPEN, TOTAL, _ones(cog)), (1, 1, 0, 1)),
        "tree": (Instance(tree, OPEN, PARTIAL, _ones(tree)), (0, 0, 1, 1)),
        "tree closed partial": (Instance(tree, CLOSED, PARTIAL, _ones(tree)), (0, 0, 1, 1)),
        "complete total": (Instance(k5, OPEN, TOTAL, _ones(k5)), (0, 0, 0, 1)),
        "oracle": (Instance(c5, OPEN, TOTAL, _ones(c5)), (1, 1, 0, 1)),
        "oracle closed total": (Instance(c5, CLOSED, TOTAL, _ones(c5)), (0, 0, 0, 1)),
        "greedy partial": (Instance(big, OPEN, PARTIAL, _ones(big)), (1, 1, 1, 1)),
        "greedy closed partial": (Instance(big, CLOSED, PARTIAL, _ones(big)), (1, 1, 1, 1)),
        "greedy total": (Instance(big, OPEN, TOTAL, _ones(big)), (1, 1, 0, 1)),
        "greedy closed total": (Instance(big, CLOSED, TOTAL, _ones(big)), (0, 0, 0, 1)),
        "empty graph closed partial": (
            Instance(build_graph(0, []), CLOSED, PARTIAL, ()), (0, 0, 0, 1)
        ),
    }


CASES = _cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_auto_solve_recognises_and_certifies_once(case, counts) -> None:
    inst, expected = CASES[case]
    auto_solve(inst)
    names = ("threshold_elimination_order", "build_modified_cotree", "tree_order", "is_feasible")
    assert tuple(counts[name] for name in names) == expected


def _entry_cases() -> dict[str, tuple[object, tuple[int, int, int, int]]]:
    """Calls to each public entry on the instances of ``_cases``, with its counts.

    Each entry runs through ``solve``, so it recognises only its own class
    and certifies once.  ``solve_cograph`` reads a threshold graph's cotree
    off its ordering and builds a general cotree only for other cographs.
    """
    inst = {name: instance for name, (instance, _) in CASES.items()}

    def on_pair(entry, case):
        return lambda: entry(inst[case].graph, inst[case].demands)

    def on_instance(entry, case):
        return lambda: entry(inst[case])

    return {
        "solve_tree_vector": (on_pair(solve_tree_vector, "tree"), (0, 0, 1, 1)),
        "solve_threshold_vector": (on_pair(solve_threshold_vector, "threshold partial"), (1, 0, 0, 1)),
        "solve_threshold_vector forced": (
            on_pair(solve_threshold_vector, "threshold partial forced"), (1, 0, 0, 1)
        ),
        "solve_complete_vector": (on_pair(solve_complete_vector, "complete total"), (0, 0, 0, 1)),
        "solve_complete_total": (on_pair(solve_complete_total, "complete total"), (0, 0, 0, 1)),
        "brute_force_minimum": (on_instance(brute_force_minimum, "oracle"), (0, 0, 0, 1)),
        "greedy_vector_domination": (
            on_instance(greedy_vector_domination, "greedy partial"), (0, 0, 0, 1)
        ),
        "greedy_total_vector": (on_instance(greedy_total_vector, "greedy total"), (0, 0, 0, 1)),
        "greedy_multiple_domination": (
            on_instance(greedy_multiple_domination, "greedy closed total"), (0, 0, 0, 1)
        ),
        **{
            f"solve_cograph {case}": (on_instance(solve_cograph, case), expected)
            for case, expected in (
                ("threshold partial", (1, 0, 0, 1)),
                ("threshold partial forced", (1, 0, 0, 1)),
                ("threshold total", (1, 0, 0, 1)),
                ("cograph partial", (1, 1, 0, 1)),
                ("cograph partial forced", (1, 1, 0, 1)),
                ("cograph total", (1, 1, 0, 1)),
            )
        },
    }


ENTRY_CASES = _entry_cases()


@pytest.mark.parametrize("case", sorted(ENTRY_CASES))
def test_each_entry_recognises_and_certifies_once(case, counts) -> None:
    call, expected = ENTRY_CASES[case]
    call()
    names = ("threshold_elimination_order", "build_modified_cotree", "tree_order", "is_feasible")
    assert tuple(counts[name] for name in names) == expected


# approx reaches solve through an import at call time; a fresh interpreter
# that imports only approx must still run every greedy
_GREEDIES_ALONE = """
from vecdom.approx import (greedy_multiple_domination, greedy_total_vector,
                           greedy_vector_domination)
from vecdom.graph import cycle_graph
from vecdom.variants import Instance, Neighborhood, Scope
g = cycle_graph(7)
k = (1, 2, 1, 0, 2, 1, 1)
for greedy, nbhd, scope in (
    (greedy_total_vector, Neighborhood.OPEN, Scope.TOTAL),
    (greedy_multiple_domination, Neighborhood.CLOSED, Scope.TOTAL),
    (greedy_vector_domination, Neighborhood.OPEN, Scope.PARTIAL),
):
    sol = greedy(Instance(g, nbhd, scope, k))
    print(sol.method, sorted(sol.vertices))
"""


def test_greedies_run_when_only_approx_is_imported() -> None:
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _GREEDIES_ALONE],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(root / "src")},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    g = cycle_graph(7)
    k = (1, 2, 1, 0, 2, 1, 1)
    expected = [
        f"{sol.method} {sorted(sol.vertices)}"
        for sol in (
            greedy_total_vector(Instance(g, OPEN, TOTAL, k)),
            greedy_multiple_domination(Instance(g, CLOSED, TOTAL, k)),
            greedy_vector_domination(Instance(g, OPEN, PARTIAL, k)),
        )
    ]
    assert done.stdout.splitlines() == expected
