"""Command-line surface: solve, verify, gadget, bench.

Every run prints one flat JSON record with a fixed field order, so outputs
diff cleanly; only the elapsed-time fields vary between identical runs.
Exit codes: 0 success, 1 infeasible (or a failed check), 2 input error,
3 a solver's answer failed its own feasibility certification.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .bench import FAMILIES, BenchConfig, bench_suite
from .errors import (
    CertificationError,
    InfeasibleError,
    MalformedError,
    VecdomError,
)
from .exact import DEFAULT_ORACLE_CAP, METHODS, solve
from .feasibility import is_feasible
from .gadgets import (
    GadgetOutput,
    gadget_alpha_domination,
    gadget_alpha_rate,
    gadget_k_domination,
    gadget_replicate,
    gadget_total_alpha,
    verify_sandwich,
)
from .io import (
    parse_alpha,
    parse_demands,
    parse_graph,
    parse_vertex_set,
    write_demands,
    write_graph,
)
from .variants import (
    Instance,
    Neighborhood,
    Scope,
    compile_variant,
    named_variant,
)

ORACLE_CAP_ENV = "VECDOM_ORACLE_CAP"

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_CERTIFICATION = 3


def _oracle_cap() -> int:
    raw = os.environ.get(ORACLE_CAP_ENV)
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        return int(raw)
    except ValueError:
        raise MalformedError(f"{ORACLE_CAP_ENV} must be an integer, got {raw!r}")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}")


def _instance_from_args(args: argparse.Namespace) -> Instance:
    g = parse_graph(_read(args.graph))
    demands = parse_demands(_read(args.demands), g) if args.demands else None
    if args.variant is None:
        if demands is None:
            raise MalformedError("provide --variant, --demands, or both")
        return Instance(g, Neighborhood.OPEN, Scope.PARTIAL, demands)
    alpha = parse_alpha(args.alpha) if args.alpha else None
    spec = named_variant(args.variant, alpha=alpha, k=args.k, demands=demands)
    return compile_variant(g, spec)


def _emit(record: dict) -> None:
    print(json.dumps(record))


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _instance_from_args(args)
    cap = _oracle_cap()
    start = time.perf_counter()
    try:
        solution = solve(inst, args.method, cap)
    except InfeasibleError as exc:
        elapsed = time.perf_counter() - start
        record: dict = {"size": None, "vertices": [], "feasible": False, "quality": exc.quality}
        path, code = exc.method, EXIT_INFEASIBLE
    else:
        elapsed = time.perf_counter() - start
        record = {
            "size": solution.size,
            "vertices": [v + 1 for v in solution.sorted_vertices()],
            "feasible": solution.status == "feasible",
            "quality": solution.quality,
        }
        if solution.bound is not None:
            record["bound"] = solution.bound
        path, code = solution.method, EXIT_OK
    record["solverPath"] = path
    record["elapsed"] = elapsed
    _emit(record)
    return code


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = _instance_from_args(args)
    members = parse_vertex_set(_read(args.set), inst.graph)
    start = time.perf_counter()
    result = is_feasible(inst, members)
    elapsed = time.perf_counter() - start
    _emit(
        {
            "size": len(members),
            "vertices": [v + 1 for v in sorted(members)],
            "feasible": result.feasible,
            "violations": [v + 1 for v in result.violations],
            "elapsed": elapsed,
        }
    )
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def _build_gadget(args: argparse.Namespace) -> GadgetOutput:
    g = parse_graph(_read(args.graph))
    name = args.construction
    if name == "replicate":
        return gadget_replicate(g, args.copies)
    if name == "k-dom":
        if args.k is None:
            raise MalformedError("k-dom needs --k")
        return gadget_k_domination(g, args.k)
    if args.alpha is None:
        raise MalformedError(f"{name} needs --alpha p/q")
    alpha = parse_alpha(args.alpha)
    if name == "alpha":
        return gadget_alpha_domination(g, alpha, args.multiplier)
    build = gadget_total_alpha if name == "total-alpha" else gadget_alpha_rate
    return build(g, alpha, args.blocks, args.copies_per_block, args.block_factor)


def _claim_record(out: GadgetOutput) -> dict:
    claim = out.claim
    return {
        "baseVariant": claim.base_variant,
        "middleVariant": claim.middle_variant,
        "alpha": str(claim.alpha) if claim.alpha is not None else None,
        "k": claim.k,
        "lower": list(claim.lower) if claim.lower is not None else None,
        "upper": list(claim.upper),
    }


def _cmd_gadget(args: argparse.Namespace) -> int:
    out = _build_gadget(args)
    record: dict = {
        "construction": out.construction,
        "baseOrder": out.base.n,
        "order": out.gprime.n,
        "edges": out.gprime.m,
        "attachment": len(out.attachment_vertices),
        "claim": _claim_record(out),
    }
    if args.emit:
        names = [args.emit + ext for ext in (".graph", ".demands", ".claim.json")]
        middle = compile_variant(
            out.gprime,
            named_variant(out.claim.middle_variant, alpha=out.claim.alpha, k=out.claim.k),
        )
        Path(names[0]).write_text(write_graph(out.gprime), "utf-8")
        Path(names[1]).write_text(write_demands(middle.demands), "utf-8")
        Path(names[2]).write_text(
            json.dumps(_claim_record(out), indent=2) + "\n", "utf-8"
        )
        record["emitted"] = names
    exit_code = EXIT_OK
    if args.check:
        start = time.perf_counter()
        report = verify_sandwich(out, _oracle_cap())
        elapsed = time.perf_counter() - start
        record["check"] = {
            "lower": report.lower,
            "middle": report.middle,
            "upper": report.upper,
            "passed": report.passed,
            "witnessSize": report.witness_size,
            "witnessFeasible": report.witness_feasible,
            "elapsed": elapsed,
        }
        if not (report.passed and report.witness_feasible):
            exit_code = EXIT_INFEASIBLE
    _emit(record)
    return exit_code


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = tuple(int(part) for part in args.sizes.split(",") if part)
    except ValueError:
        raise MalformedError(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    config = BenchConfig(
        family=args.family,
        sizes=sizes,
        seed=args.seed,
        repetitions=args.reps,
        edge_probability=args.p,
        oracle_cap=_oracle_cap(),
    )
    report = bench_suite(config)
    sys.stdout.write(report.text())
    if args.csv:
        Path(args.csv).write_text(report.csv(), "utf-8")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecdom",
        description="Solvers and gadget builders for vector domination problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("graph", help="graph file (DIMACS-style edge list)")
        p.add_argument("--variant", help="variant name from the catalogue")
        p.add_argument("--alpha", help="fraction threshold as p/q")
        p.add_argument("--k", type=int, help="uniform integer threshold")
        p.add_argument("--demands", help="per-vertex demand file")

    solve = sub.add_parser("solve", help="solve one instance")
    add_instance_flags(solve)
    solve.add_argument(
        "--method",
        choices=METHODS,
        default="auto",
    )
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="check a vertex set against an instance")
    add_instance_flags(verify)
    verify.add_argument("--set", required=True, help="file of 1-based vertex ids")
    verify.set_defaults(func=_cmd_verify)

    gadget = sub.add_parser("gadget", help="build a sandwich construction")
    gadget.add_argument("graph", help="base graph file")
    gadget.add_argument(
        "--construction",
        required=True,
        choices=("replicate", "alpha", "total-alpha", "alpha-rate", "k-dom"),
    )
    gadget.add_argument("--copies", type=int, default=2, help="replicate count")
    gadget.add_argument("--alpha", help="fraction as p/q")
    gadget.add_argument("--k", type=int, help="k for the k-dom construction")
    gadget.add_argument("--multiplier", type=int, help="pool multiplier override")
    gadget.add_argument("--blocks", type=int, help="clique block count")
    gadget.add_argument("--copies-per-block", type=int, default=1)
    gadget.add_argument("--block-factor", type=int, help="block size per copy served")
    gadget.add_argument("--check", action="store_true", help="verify the sandwich by oracle")
    gadget.add_argument("--emit", help="write <prefix>.graph/.demands/.claim.json")
    gadget.set_defaults(func=_cmd_gadget)

    bench = sub.add_parser("bench", help="time solvers over random families")
    bench.add_argument("--family", required=True, choices=FAMILIES)
    bench.add_argument("--sizes", required=True, help="comma-separated sizes")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--reps", type=int, default=3)
    bench.add_argument("--p", type=float, default=0.3, help="edge probability for gnp")
    bench.add_argument("--csv", help="also write the report as CSV")
    bench.set_defaults(func=_cmd_bench)
    return parser


# built on the first main call, not at import, then reused: parse_args
# returns a fresh namespace each time and leaves the parser unchanged
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except VecdomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
