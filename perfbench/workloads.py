"""The four workloads: which inputs they generate and which operations run.

``write_workload`` generates one workload's inputs from the run seed,
writes the files ``vecdom solve`` reads, and returns the manifest the
worker executes.  An operation is one solve: a ``vecdom.cli.main`` call on
files for the CLI workloads, one ``compile_variant`` plus ``auto_solve``
for ``small-batch``.  Every instance is feasible: total-scope demands never
exceed what the neighbourhood can supply.
"""

from __future__ import annotations

import json
from pathlib import Path

import gen

WORKLOADS = ("tree-cli", "gnp-greedy", "classes-cli", "small-batch")

TREE_SIZES = (5000, 10000, 20000, 40000)
TREE_K = 2
TREE_ALPHA = "2/3"

GNP_SIZES = (200, 400, 800)
GNP_DENSE_P = 0.05
GNP_SPARSE_DEGREE = 4

CLASS_SIZES = (12, 24, 48, 96)
CLASS_GRAPHS = 4  # graphs per family and size class

SMALL_SIZES = (2, 4, 8)
SMALL_FAMILIES = ("tree", "complete", "threshold", "cograph", "gnp")
SMALL_GNP_P = 0.5
SMALL_PER_CELL = 60  # instances per (size, family, neighbourhood, scope)
SMALL_ALPHAS = ("1/3", "1/2", "2/3", "1/1")

# catalogue variant -> (closed neighbourhood, total scope), for the CLI workloads
VARIANTS = {
    "vector-domination": (False, False),
    "total-vector-domination": (False, True),
    "multiple-domination": (True, True),
    "k-domination": (False, False),
    "alpha-domination": (False, False),
}


class _Writer:
    """Collects one workload's files and operations."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.ops: list[dict] = []
        root.mkdir(parents=True, exist_ok=True)

    def file(self, name: str, text: str) -> str:
        """Write one input file; ops name it relative to the manifest."""
        (self.root / name).write_text(text, encoding="utf-8")
        return name

    def cli_op(
        self,
        size: int,
        family: str,
        graph: str,
        variant: str,
        *,
        demands: str | None = None,
        k: int | None = None,
        alpha: str | None = None,
    ) -> None:
        closed, total = VARIANTS[variant]
        if demands is not None:
            threshold: dict = {"kind": "explicit"}
        elif k is not None:
            threshold = {"kind": "uniform", "k": k}
        else:
            threshold = {"kind": "fraction", "alpha": alpha, "strict": False}
        self.ops.append(
            {
                "id": len(self.ops),
                "size": size,
                "family": family,
                "variant": variant,
                "graph": graph,
                "demands": demands,
                "k": k,
                "alpha": alpha,
                "closed": closed,
                "total": total,
                "threshold": threshold,
            }
        )


def cli_argv(op: dict, base: Path) -> list[str]:
    """The ``vecdom solve`` arguments for a CLI operation."""
    argv = ["solve", (base / op["graph"]).as_posix(), "--variant", op["variant"]]
    if op["demands"] is not None:
        argv += ["--demands", (base / op["demands"]).as_posix()]
    if op["k"] is not None:
        argv += ["--k", str(op["k"])]
    if op["alpha"] is not None:
        argv += ["--alpha", op["alpha"]]
    return argv


def _tree_cli(w: _Writer, seed: int) -> None:
    for n in TREE_SIZES:
        rng = gen.rng_for(seed, "tree-cli", n)
        edges = gen.prufer_tree(n, rng)
        deg = gen.degrees(n, edges)
        graph = w.file(f"tree{n}.graph", gen.graph_text(n, edges))
        demands = w.file(
            f"tree{n}.demands",
            gen.demands_text(gen.demand_vector(deg, rng, top=3, over=0.05)),
        )
        w.cli_op(n, "tree", graph, "vector-domination", demands=demands)
        w.cli_op(n, "tree", graph, "k-domination", k=TREE_K)
        w.cli_op(n, "tree", graph, "alpha-domination", alpha=TREE_ALPHA)


def _gnp_greedy(w: _Writer, seed: int) -> None:
    for n in GNP_SIZES:
        for density, p in (("dense", GNP_DENSE_P), ("sparse", GNP_SPARSE_DEGREE / (n - 1))):
            rng = gen.rng_for(seed, "gnp-greedy", n, density)
            edges = gen.gnp(n, p, rng)
            deg = gen.degrees(n, edges)
            stem = f"gnp{n}{density}"
            graph = w.file(f"{stem}.graph", gen.graph_text(n, edges))
            for variant, capacity, over in (
                ("vector-domination", deg, 0.05),
                ("total-vector-domination", deg, 0.0),
                ("multiple-domination", [d + 1 for d in deg], 0.0),
            ):
                demands = w.file(
                    f"{stem}.{variant}.demands",
                    gen.demands_text(gen.demand_vector(capacity, rng, top=3, over=over)),
                )
                w.cli_op(n, f"gnp-{density}", graph, variant, demands=demands)


def _classes_cli(w: _Writer, seed: int) -> None:
    for n in CLASS_SIZES:
        for family in ("threshold", "cograph"):
            for copy in range(CLASS_GRAPHS):
                rng = gen.rng_for(seed, "classes-cli", n, family, copy)
                make = gen.threshold_graph if family == "threshold" else gen.cograph
                edges = make(n, rng)
                deg = gen.degrees(n, edges)
                stem = f"{family}{n}.{copy}"
                graph = w.file(f"{stem}.graph", gen.graph_text(n, edges))
                for variant, over in (
                    ("vector-domination", 0.05),
                    ("total-vector-domination", 0.0),
                ):
                    demands = w.file(
                        f"{stem}.{variant}.demands",
                        gen.demands_text(gen.demand_vector(deg, rng, top=4, over=over)),
                    )
                    w.cli_op(n, family, graph, variant, demands=demands)


def _small_graph(family: str, n: int, rng) -> list[tuple[int, int]]:
    if family == "tree":
        return gen.prufer_tree(n, rng)
    if family == "complete":
        return gen.complete_graph(n, rng)
    if family == "threshold":
        return gen.threshold_graph(n, rng)
    if family == "cograph":
        return gen.cograph(n, rng)
    return gen.gnp(n, SMALL_GNP_P, rng)


def _small_threshold(index: int, capacity: list[int], total: bool, rng) -> dict:
    """Cycle through explicit, uniform and fraction thresholds.

    Total scope keeps every demand within the neighbourhood's capacity, so
    it uses weak fractions only: a strict fraction asks an isolated vertex
    for one neighbour it does not have.
    """
    kind = ("explicit", "uniform", "fraction")[index % 3]
    if kind == "explicit":
        top = 0 if total else 1
        return {
            "kind": "explicit",
            "demands": [rng.randint(0, cap + top) for cap in capacity],
        }
    if kind == "uniform":
        return {"kind": "uniform", "k": rng.randint(0, min(capacity) if total else 3)}
    return {
        "kind": "fraction",
        "alpha": rng.choice(SMALL_ALPHAS),
        "strict": not total and rng.random() < 0.5,
    }


def _small_batch(w: _Writer, seed: int) -> None:
    for n in SMALL_SIZES:
        for family in SMALL_FAMILIES:
            for closed in (False, True):
                for total in (False, True):
                    rng = gen.rng_for(seed, "small-batch", n, family, closed, total)
                    for index in range(SMALL_PER_CELL):
                        edges = _small_graph(family, n, rng)
                        capacity = [d + closed for d in gen.degrees(n, edges)]
                        w.ops.append(
                            {
                                "id": len(w.ops),
                                "size": n,
                                "family": family,
                                "n": n,
                                "edges": edges,
                                "closed": closed,
                                "total": total,
                                "threshold": _small_threshold(index, capacity, total, rng),
                            }
                        )


_GENERATE = {
    "tree-cli": _tree_cli,
    "gnp-greedy": _gnp_greedy,
    "classes-cli": _classes_cli,
    "small-batch": _small_batch,
}


def write_workload(name: str, seed: int, root: Path) -> Path:
    """Generate the workload's inputs under ``root``; return the manifest path."""
    w = _Writer(root)
    _GENERATE[name](w, seed)
    manifest = {"workload": name, "seed": seed, "ops": w.ops}
    return root / w.file("manifest.json", json.dumps(manifest))
