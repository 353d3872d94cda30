"""Benchmark for ``vecdom``: one workload, one seed, one run.

    python3 perfbench/run.py --workload tree-cli --seed 1 --seconds 15 --trace 0

Run it from the repository root.  It generates the workload's inputs from
the seed, starts ``perfbench/worker.py`` with ``./src`` on the import path,
lets it repeat whole rounds of operations for ``--seconds``, and prints
each metric by name with its unit.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run.  The exit code is 0 only when every
operation passed its checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, write_workload

HERE = Path(__file__).resolve().parent
OUT = Path("perfbench") / "out"
SETUP_REPS = 3  # set-up is measured this many times; the median is reported
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("largest_p50_ms", "ms"),
    ("scaling_exp", "1"),
    ("peak_rss_mb", "MB"),
    ("chosen_total", "vertices"),
)

PER_LAYER = tuple(
    (name, "s")
    for name in (
        "cli.read_s",
        "io.parse_graph_s",
        "io.parse_demands_s",
        "graph.build_graph_s",
        "graph.is_tree_s",
        "variants.compile_variant_s",
        "decomposition.is_threshold_s",
        "decomposition.is_cograph_s",
        "decomposition.build_modified_cotree_s",
        "decomposition.threshold_elimination_order_s",
        "exact.solve_tree_vector_s",
        "exact.solve_threshold_vector_s",
        "exact.solve_cograph_s",
        "exact.solve_complete_s",
        "exact.brute_force_minimum_s",
        "exact.auto_solve_s",
        "exact.dispatch_s",
        "approx.greedy_vector_domination_s",
        "approx.greedy_total_vector_s",
        "approx.greedy_multiple_domination_s",
        "feasibility.is_feasible_s",
    )
) + tuple(
    (f"dispatch.{method}_ops", "count")
    for method in (
        "tree",
        "cograph",
        "threshold",
        "oracle",
        "complete-vector",
        "complete-total",
        "greedy-vector-domination",
        "greedy-total-vector",
        "greedy-multiple-domination",
    )
)


def scaling_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics from one untraced worker result.

    ``ops`` holds [size class, [seconds per round]] per operation.  Each
    operation's time is first reduced to its median over the rounds, so a
    burst of load on the machine during a few rounds moves no metric; the
    metrics then aggregate these per-operation medians.
    """
    typical = [(size, statistics.median(ts)) for size, ts in result["ops"]]
    by_size: dict[int, list[float]] = {}
    for size, t in typical:
        by_size.setdefault(size, []).append(t)
    medians = sorted((size, statistics.median(ts)) for size, ts in by_size.items())
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(t for _, t in typical),
        "op_p50_ms": 1000 * statistics.median(t for _, t in typical),
        "largest_p50_ms": 1000 * medians[-1][1],
        "scaling_exp": scaling_exponent(medians),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "chosen_total": result["chosen_total"],
    }


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _worker(args: list[str], deadline: float) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path.cwd() / "src")
    env.pop("VECDOM_ORACLE_CAP", None)
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark one vecdom workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (Path("src") / "vecdom" / "__init__.py").is_file():
        print("run from the repository root: ./src/vecdom is missing", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    setups = []
    for rep in range(SETUP_REPS):
        start = time.monotonic()
        manifest = write_workload(args.workload, args.seed, run_dir / f"inputs{rep}")
        result_path = run_dir / f"worker{rep}.json"
        worker_args = ["--manifest", str(manifest), "--result", str(result_path),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if rep < SETUP_REPS - 1:
            worker_args.append("--probe")
        elif args.trace:
            worker_args += ["--spans", str(run_dir / "spans.jsonl.gz")]
        try:
            _worker(worker_args, deadline)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"worker failed: {exc}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text("utf-8"))
        setups.append(result["ready_at"] - start)

    problems = list(result["problems"])
    reference = _files(run_dir / "inputs0")
    for rep in range(1, SETUP_REPS):
        if _files(run_dir / f"inputs{rep}") != reference:
            problems.append(f"seed {args.seed} gave different input files in set-up {rep}")
    for rep in range(SETUP_REPS):
        shutil.rmtree(run_dir / f"inputs{rep}")

    if args.trace:
        layer = result["per_layer"]
        metrics = {name: {"value": layer.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
    else:
        values = end_to_end(result, setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for text in problems:
        print(f"FAILED {text}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} rounds={result['rounds']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
