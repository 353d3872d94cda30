"""Tests of the benchmark itself: the checker, the generators, a smoke run.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the repository root; the smoke runs need ``./src/vecdom``.
"""

from __future__ import annotations

import gzip
import json
import math
import random
from itertools import combinations
from pathlib import Path

import pytest

import check
import gen
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


def path3(demands, closed=False, total=False) -> check.Case:
    return check.Case(3, [(0, 1), (1, 2)], list(demands), closed, total)


def random_case(rng: random.Random) -> check.Case:
    n = rng.randint(1, 7)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5]
    closed, total = rng.random() < 0.5, rng.random() < 0.5
    capacity = [d + closed for d in gen.degrees(n, edges)]
    demands = [rng.randint(0, cap if total else cap + 1) for cap in capacity]
    return check.Case(n, edges, demands, closed, total)


# -- the checker ---------------------------------------------------------------


def test_checker_rejects_a_planted_infeasible_set():
    case = path3([1, 1, 1])
    assert check.check_answer(case, [1], "optimal", "tree", None) == []
    problems = check.check_answer(case, [0], "optimal", "tree", None)
    assert problems and problems[0].startswith("infeasible")


def test_total_scope_checks_the_chosen_vertices_too():
    # {1} serves both ends, but vertex 1 itself sees no chosen neighbour
    assert check.violations(path3([1, 1, 1], total=True), {1}) == [1]
    assert check.violations(path3([1, 1, 1]), {1}) == []
    assert check.violations(path3([1, 2, 1], closed=True, total=True), {1}) == [1]


def test_checker_rejects_a_planted_non_minimal_set():
    case = path3([1, 1, 1])
    problems = check.check_answer(case, [0, 1], "optimal", "tree", None)
    assert problems and "inclusion-minimal" in problems[0]


def test_removable_matches_the_definition():
    rng = random.Random(7)
    for _ in range(400):
        case = random_case(rng)
        members = {v for v in range(case.n) if rng.random() < 0.6}
        if check.violations(case, members):
            continue
        naive = sorted(w for w in members if not check.violations(case, members - {w}))
        assert sorted(check.removable(case, members)) == naive


def test_brute_force_finds_the_optimum():
    assert check.brute_force_size(path3([1, 1, 1])) == 1
    assert check.brute_force_size(path3([1, 1, 1], total=True)) == 2
    assert check.brute_force_size(path3([2, 0, 0])) == 1  # vertex 0 must join
    assert check.brute_force_size(path3([2, 0, 0], total=True)) is None


def test_checker_rejects_a_size_above_the_optimum():
    case = path3([1, 1, 1])
    problems = check.check_answer(case, [0, 2], "optimal", "tree", None, optimum=1)
    assert problems == ["size 2 differs from the brute-force optimum 1"]


def test_checker_rejects_a_wrong_greedy_bound_and_an_unforced_vertex():
    case = path3([2, 1, 0])
    # best single value: vertex 0 has k=2 plus one demanding neighbour
    good = check.greedy_bound(case, "greedy-vector-domination")
    assert good == math.log(3) + 1
    assert check.check_answer(case, [0, 1], "approx", "greedy-vector-domination", good) == []
    problems = check.check_answer(case, [0, 1], "approx", "greedy-vector-domination", good + 0.1)
    assert problems and problems[0].startswith("bound")
    # vertex 0 demands 2 of its single neighbour: it has to be chosen
    problems = check.check_answer(case, [1, 2], "approx", "greedy-vector-domination", good)
    assert problems[0] == "vertex 0 demands more than its degree but is not chosen"
    assert problems[-1].startswith("infeasible")
    # the multicover greedies report ln of the largest set, open or closed
    total = path3([1, 1, 1], total=True)
    assert check.greedy_bound(total, "greedy-total-vector") == math.log(2) + 1
    closed = path3([1, 1, 1], closed=True, total=True)
    assert check.greedy_bound(closed, "greedy-multiple-domination") == math.log(3) + 1


def test_fraction_demands_follow_the_definition():
    fraction = {"kind": "fraction", "alpha": "1/2", "strict": False}
    assert check.compile_demands(fraction, [0, 1, 2, 3], closed=False) == [0, 1, 1, 2]
    strict = dict(fraction, strict=True)
    assert check.compile_demands(strict, [0, 1, 2, 3], closed=False) == [1, 1, 2, 2]
    assert check.compile_demands(fraction, [0, 1, 2], closed=True) == [1, 1, 2]


# -- the generators ------------------------------------------------------------


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def _has_induced_p4(n: int, edges) -> bool:
    # four vertices inducing three edges with degrees 1, 1, 2, 2 form a P4
    keys = {frozenset(e) for e in edges}
    for quad in combinations(range(n), 4):
        inside = [pair for pair in combinations(quad, 2) if frozenset(pair) in keys]
        degree = sorted(sum(v in pair for pair in inside) for v in quad)
        if degree == [1, 1, 2, 2]:
            return True
    return False


def _peels_to_nothing(n: int, edges) -> bool:
    # threshold graphs: some vertex is always isolated or dominating
    alive = set(range(n))
    keys = {frozenset(e) for e in edges}
    while alive:
        degree = {v: sum(frozenset((v, u)) in keys for u in alive if u != v) for v in alive}
        pick = [v for v in alive if degree[v] in (0, len(alive) - 1)]
        if not pick:
            return False
        alive.remove(pick[0])
    return True


def test_generated_graphs_belong_to_their_families():
    assert not _peels_to_nothing(4, [(0, 1), (1, 2), (2, 3)])
    for seed in range(20):
        rng = gen.rng_for(seed, "test")
        n = rng.randint(2, 9)
        tree = gen.prufer_tree(n, rng)
        assert len(tree) == n - 1 and _connected(n, tree)
        assert not _has_induced_p4(n, gen.cograph(n, rng))
        threshold = gen.threshold_graph(n, rng)
        assert _peels_to_nothing(n, threshold)
        for edges in (tree, threshold, gen.gnp(n, 0.5, rng), gen.complete_graph(n, rng)):
            keys = {frozenset(e) for e in edges}
            assert len(keys) == len(edges) and all(len(k) == 2 for k in keys)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_the_same_seed_gives_byte_identical_inputs(name, tmp_path):
    def files(root: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in root.iterdir()}

    workloads.write_workload(name, 5, tmp_path / "a")
    workloads.write_workload(name, 5, tmp_path / "b")
    workloads.write_workload(name, 6, tmp_path / "c")
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert files(tmp_path / "a") != files(tmp_path / "c")


def test_total_scope_inputs_are_feasible(tmp_path):
    for name in workloads.WORKLOADS:
        manifest = json.loads(workloads.write_workload(name, 2, tmp_path / name).read_text())
        for op in manifest["ops"]:
            if not op["total"]:
                continue
            if "edges" in op:
                n, edges, explicit = op["n"], op["edges"], op["threshold"].get("demands")
            else:
                n, edges = check.read_graph((tmp_path / name / op["graph"]).read_text())
                explicit = check.read_demands((tmp_path / name / op["demands"]).read_text(), n)
            deg = gen.degrees(n, edges)
            demands = check.compile_demands(op["threshold"], deg, op["closed"], explicit)
            assert all(k <= d + op["closed"] for k, d in zip(demands, deg)), op["id"]


# -- the benchmark end to end --------------------------------------------------


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


SMOKE_SIZES = {
    "TREE_SIZES": (50, 100, 200),
    "GNP_SIZES": (30, 60, 120),
    "CLASS_SIZES": (8, 16, 32),
    "CLASS_GRAPHS": 1,
    "SMALL_SIZES": (3, 6, 12),
    "SMALL_PER_CELL": 2,
}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run(name, trace, monkeypatch, capsys):
    for constant, value in SMOKE_SIZES.items():
        monkeypatch.setattr(workloads, constant, value)
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", name, "--seed", "11", "--seconds", "1", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(expected)
    if trace:
        assert result["metrics"]["exact.auto_solve_s"]["value"] > 0
        spans = ROOT / "perfbench" / "out" / f"{name}-seed11-trace1" / "spans.jsonl.gz"
        with gzip.open(spans, "rt") as lines:
            first = json.loads(next(lines))
        assert set(first) >= {"id", "parent", "op", "name", "start", "end"}
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "tree-cli", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
