"""Timing and quality benchmarks over the random graph families.

Every cell is reproducible: its generator seeds derive from the config
seed, the family name, and the size, never from global state.  Timings
wrap only the solve call; generation and instance building stay outside
the clock.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field

from .errors import MalformedError
from .exact import DEFAULT_ORACLE_CAP, brute_force_minimum, solve
from .feasibility import Solution
from .generators import (
    random_cograph,
    random_demand_vector,
    random_gnp,
    random_threshold,
    random_tree,
)
from .variants import Instance, Neighborhood, Scope

__all__ = ["BenchConfig", "BenchCell", "BenchReport", "bench_suite"]

# the solve method each family is timed with
_METHODS = {"trees": "tree", "cographs": "cograph", "threshold": "threshold", "gnp": "greedy"}
FAMILIES = tuple(_METHODS)


@dataclass(frozen=True)
class BenchConfig:
    family: str
    sizes: tuple[int, ...]
    seed: int
    repetitions: int = 3
    edge_probability: float = 0.3
    oracle_cap: int = DEFAULT_ORACLE_CAP


@dataclass(frozen=True)
class BenchCell:
    family: str
    size: int
    solver: str
    median_seconds: float
    solution_size: int
    ratio: float | None  # solver size / oracle size, when the oracle fits


@dataclass(frozen=True)
class BenchReport:
    cells: tuple[BenchCell, ...] = field(default=())

    def text(self) -> str:
        if not self.cells:
            return "(empty report)\n"
        header = f"{'family':<10} {'size':>8} {'solver':<24} {'median_s':>10} {'|S|':>6} {'ratio':>7}"
        rows = [header, "-" * len(header)]
        for c in self.cells:
            ratio = f"{c.ratio:.3f}" if c.ratio is not None else "-"
            rows.append(
                f"{c.family:<10} {c.size:>8} {c.solver:<24} "
                f"{c.median_seconds:>10.4f} {c.solution_size:>6} {ratio:>7}"
            )
        return "\n".join(rows) + "\n"

    def csv(self) -> str:
        rows = ["family,size,solver,median_seconds,solution_size,ratio"]
        for c in self.cells:
            ratio = f"{c.ratio:.6f}" if c.ratio is not None else ""
            rows.append(
                f"{c.family},{c.size},{c.solver},{c.median_seconds:.6f},"
                f"{c.solution_size},{ratio}"
            )
        return "\n".join(rows) + "\n"


def _cell_rng(config: BenchConfig, size: int) -> random.Random:
    return random.Random(f"{config.seed}:{config.family}:{size}")


def _build_cell_instance(config: BenchConfig, size: int) -> Instance:
    rng = _cell_rng(config, size)
    family = config.family
    if family == "trees":
        g = random_tree(size, rng)
    elif family == "cographs":
        g = random_cograph(size, rng)
    elif family == "threshold":
        g = random_threshold(size, rng)
    elif family == "gnp":
        g = random_gnp(size, config.edge_probability, rng)
    else:
        raise ValueError(f"unknown family {family!r}; pick one of {FAMILIES}")
    demands = random_demand_vector(g, rng)
    return Instance(g, Neighborhood.OPEN, Scope.PARTIAL, demands)


def bench_suite(config: BenchConfig) -> BenchReport:
    """Run one family across its sizes; median time over the repetitions.

    When the graph fits under the oracle cap, the cell also reports the
    solver-to-optimal size ratio (1.0 for the exact solvers, by
    construction, so the interesting values come from the greedy).

    Raises:
        MalformedError: some size is below 1.
    """
    if any(size < 1 for size in config.sizes):
        raise MalformedError(f"sizes must all be at least 1, got {config.sizes}")
    cells = []
    for size in config.sizes:
        inst = _build_cell_instance(config, size)
        times = []
        solution: Solution | None = None
        for _ in range(max(config.repetitions, 1)):
            start = time.perf_counter()
            solution = solve(inst, _METHODS[config.family], config.oracle_cap)
            times.append(time.perf_counter() - start)
        assert solution is not None
        ratio = None
        if inst.graph.n <= config.oracle_cap:
            optimum = brute_force_minimum(inst, config.oracle_cap)
            if optimum.size > 0:
                ratio = solution.size / optimum.size
            else:
                ratio = 1.0 if solution.size == 0 else float("inf")
        cells.append(
            BenchCell(
                family=config.family,
                size=size,
                solver=solution.method,
                median_seconds=statistics.median(times),
                solution_size=solution.size,
                ratio=ratio,
            )
        )
    return BenchReport(tuple(cells))
