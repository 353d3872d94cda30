"""Run one workload's operations in a process of its own.

    python3 perfbench/worker.py --manifest M --result R --seconds S --trace 0|1

``run.py`` starts this with ``src`` on ``PYTHONPATH``.  The worker imports
``vecdom``, prepares the operations, and then repeats whole rounds of them
until ``--seconds`` have passed since the first one.  Untraced, it times
each operation as a user calls it.  Traced, it calls each module's public
functions directly on the same inputs and records a span around each call;
the spans stay in memory and are written out when the run ends.  Outputs
are checked by ``check.py`` between operations, outside the timed region.
With ``--probe`` it stops once it is ready for the first operation, which
lets ``run.py`` measure set-up more than once.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import resource
import statistics
import sys
import time
import traceback
from array import array
from fractions import Fraction
from pathlib import Path

import vecdom
from vecdom import approx, cli, decomposition, exact, feasibility, graph, variants
from vecdom import io as vio
from vecdom.variants import Instance, Neighborhood, Scope

import check
import gen
from workloads import cli_argv

# auto_solve tries the quadratic recognisers only up to this many vertices
RECOGNITION_CAP = 4096
MAX_REPORTED_PROBLEMS = 20

# The solver auto_solve picked, by Solution.method, as the traced run calls
# it directly: (span name, function, takes an Instance rather than graph
# and demands).  exact.dispatch_s is auto_solve's time minus this call's.
DIRECT = {
    "tree": ("exact.solve_tree_vector", exact.solve_tree_vector, False),
    "threshold": ("exact.solve_threshold_vector", exact.solve_threshold_vector, False),
    "complete-vector": ("exact.solve_complete_vector", exact.solve_complete_vector, False),
    "complete-total": ("exact.solve_complete_total", exact.solve_complete_total, False),
    "cograph": ("exact.solve_cograph", exact.solve_cograph, True),
    "oracle": ("exact.brute_force_minimum", exact.brute_force_minimum, True),
    "greedy-vector-domination": (
        "approx.greedy_vector_domination", approx.greedy_vector_domination, True),
    "greedy-total-vector": ("approx.greedy_total_vector", approx.greedy_total_vector, True),
    "greedy-multiple-domination": (
        "approx.greedy_multiple_domination", approx.greedy_multiple_domination, True),
}
DIRECT_SPANS = {name for name, _, _ in DIRECT.values()}

METRIC_OF_SPAN = {
    "exact.solve_complete_vector": "exact.solve_complete_s",
    "exact.solve_complete_total": "exact.solve_complete_s",
}


class Tracer:
    """Spans kept in memory: (id, parent, op, name, start, end, method)."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.op = -1
        self.parent: int | None = None

    def begin_op(self, op: int) -> float:
        self.op = op
        self.parent = len(self.spans)
        self.spans.append(None)  # the op span, filled in by end_op
        return time.perf_counter()

    def end_op(self, start: float, method: str | None) -> None:
        end = time.perf_counter()
        self.spans[self.parent] = (self.parent, None, self.op, "op", start, end, method)
        self.parent = None

    def call(self, name: str, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        end = time.perf_counter()
        self.spans.append((len(self.spans), self.parent, self.op, name, start, end, None))
        return out

    def per_layer(self, ops_per_round: int) -> dict[str, float]:
        """Per-round totals from the spans, median over rounds.

        Times are summed per span name; op spans count operations per
        ``Solution.method``.  exact.dispatch_s is auto_solve's total minus
        the total of the direct solver calls made after it.
        """
        rows: list[dict[str, float]] = []
        ops_seen = 0
        for _, parent, _, name, start, end, method in self.spans:
            if parent is None:
                if ops_seen % ops_per_round == 0:
                    rows.append({"exact.dispatch_s": 0.0})
                ops_seen += 1
                key = f"dispatch.{method}_ops"
                rows[-1][key] = rows[-1].get(key, 0) + 1
                continue
            row = rows[-1]
            key = METRIC_OF_SPAN.get(name, name + "_s")
            row[key] = row.get(key, 0.0) + (end - start)
            if name == "exact.auto_solve":
                row["exact.dispatch_s"] += end - start
            elif name in DIRECT_SPANS:
                row["exact.dispatch_s"] -= end - start
        names = sorted({key for row in rows for key in row})
        return {key: statistics.median_low(row.get(key, 0) for row in rows) for key in names}

    def write(self, path: Path, origin: float) -> None:
        """One JSON object per line, gzip-compressed; times from ``origin``."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for span_id, parent, op, name, start, end, method in self.spans:
                record = {
                    "id": span_id,
                    "parent": parent,
                    "op": op,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                }
                if method is not None:
                    record["method"] = method
                out.write(json.dumps(record) + "\n")


def _record_answer(code: int, stdout: str) -> dict:
    """The answer in a ``vecdom solve`` JSON record, or what is wrong with it."""
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        return {"error": f"exit code {code}, {len(lines)} output lines"}
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": "last output line is not JSON"}
    keys = ("size", "vertices", "feasible", "quality", "solverPath", "elapsed")
    if not isinstance(record, dict) or any(key not in record for key in keys):
        return {"error": f"record lacks one of {keys}"}
    vertices = record["vertices"]
    if record["feasible"] is not True or record["size"] != len(vertices):
        return {"error": "record is not feasible or its size disagrees"}
    if vertices != sorted(vertices):
        return {"error": "record vertices are not sorted"}
    return {
        "vertices": [u - 1 for u in vertices],
        "quality": record["quality"],
        "method": record["solverPath"],
        "bound": record.get("bound"),
    }


def _solution_answer(solution) -> dict:
    if solution.status != "feasible":
        return {"error": f"solution status {solution.status!r}", "method": solution.method}
    return {
        "vertices": sorted(solution.vertices),
        "quality": solution.quality,
        "method": solution.method,
        "bound": solution.bound,
    }


def _spec(op: dict) -> variants.VariantSpec:
    t = op["threshold"]
    if t["kind"] == "explicit":
        threshold = variants.ExplicitThreshold(tuple(t["demands"]))
    elif t["kind"] == "uniform":
        threshold = variants.UniformThreshold(t["k"])
    else:
        threshold = variants.FractionThreshold(Fraction(t["alpha"]))
    strict = t["kind"] == "fraction" and t["strict"]
    return variants.VariantSpec(
        Neighborhood.CLOSED if op["closed"] else Neighborhood.OPEN,
        Scope.TOTAL if op["total"] else Scope.PARTIAL,
        variants.Inequality.STRICT if strict else variants.Inequality.WEAK,
        threshold,
    )


class Worker:
    def __init__(self, manifest: dict, base: Path, trace: bool) -> None:
        self.workload = manifest["workload"]
        self.ops = manifest["ops"]
        self.base = base
        self.tracer = Tracer() if trace else None
        self.prepared: dict[int, tuple] = {}  # small-batch: op id -> (graph, spec)
        self.cases: dict[int, check.Case] = {}
        self.optimum: dict[int, int | None] = {}
        self.cross: dict[int, tuple[int, int]] = {}
        self.problems: list[str] = []

    def prepare(self) -> None:
        """Build the in-process operations' graphs and variant specs."""
        for op in self.ops:
            if "edges" in op:
                g = graph.build_graph(op["n"], [tuple(e) for e in op["edges"]])
                self.prepared[op["id"]] = (g, _spec(op))

    # -- untraced operations --------------------------------------------

    def run_cli(self, op: dict) -> tuple[float, dict]:
        argv = cli_argv(op, self.base)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
        return elapsed, _record_answer(code, out.getvalue())

    def run_inproc(self, op: dict) -> tuple[float, dict]:
        g, spec = self.prepared[op["id"]]
        start = time.perf_counter()
        inst = variants.compile_variant(g, spec)
        solution = exact.auto_solve(inst)
        elapsed = time.perf_counter() - start
        return elapsed, _solution_answer(solution)

    # -- traced operations ----------------------------------------------

    def traced(self, op: dict) -> dict:
        """Call each layer's functions for one operation, a span around each."""
        tr = self.tracer
        if "edges" in op:
            g, spec = self.prepared[op["id"]]
        else:
            text = tr.call("cli.read", cli._read, (self.base / op["graph"]).as_posix())
            dtext = None
            if op["demands"] is not None:
                dtext = tr.call("cli.read", cli._read, (self.base / op["demands"]).as_posix())
            g = tr.call("io.parse_graph", vio.parse_graph, text)
            demands = None
            if dtext is not None:
                demands = tr.call("io.parse_demands", vio.parse_demands, dtext, g)
            n, edges = check.read_graph(text)  # the parsed edge list, in file order
            tr.call("graph.build_graph", graph.build_graph, n, edges)
            alpha = Fraction(op["alpha"]) if op["alpha"] is not None else None
            spec = variants.named_variant(op["variant"], alpha=alpha, k=op["k"], demands=demands)
        inst = tr.call("variants.compile_variant", variants.compile_variant, g, spec)
        partial = inst.scope is Scope.PARTIAL
        closed = inst.neighborhood is Neighborhood.CLOSED
        tree = tr.call("graph.is_tree", g.is_tree)
        # the recognisers run where auto_solve would run them
        threshold = cograph = False
        if (partial or not closed) and not g.is_complete() and not (partial and tree):
            if g.n <= RECOGNITION_CAP:
                threshold = tr.call("decomposition.is_threshold", decomposition.is_threshold, g)
                if not threshold:
                    cograph = tr.call("decomposition.is_cograph", decomposition.is_cograph, g)
        if threshold:
            tr.call("decomposition.threshold_elimination_order",
                    decomposition.threshold_elimination_order, g)
        if threshold or cograph:
            tr.call("decomposition.build_modified_cotree", decomposition.build_modified_cotree, g)
        solution = tr.call("exact.auto_solve", exact.auto_solve, inst)
        if solution.method in DIRECT:
            name, fn, takes_instance = DIRECT[solution.method]
            if not takes_instance:
                tr.call(name, fn, g, inst.demands)
            elif closed and partial:  # auto_solve solves the open equivalent
                tr.call(name, fn, Instance(g, Neighborhood.OPEN, inst.scope, inst.demands))
            else:
                tr.call(name, fn, inst)
        tr.call("feasibility.is_feasible", feasibility.is_feasible, inst, solution.vertices)
        return _solution_answer(solution)

    # -- checks -----------------------------------------------------------

    def case_for(self, op: dict) -> check.Case:
        if op["id"] in self.cases:
            return self.cases[op["id"]]
        if "edges" in op:
            n, edges = op["n"], [tuple(e) for e in op["edges"]]
            explicit = op["threshold"].get("demands")
        else:
            n, edges = check.read_graph((self.base / op["graph"]).read_text("utf-8"))
            explicit = None
            if op["demands"] is not None:
                explicit = check.read_demands((self.base / op["demands"]).read_text("utf-8"), n)
        demands = check.compile_demands(op["threshold"], gen.degrees(n, edges), op["closed"], explicit)
        case = check.Case(n, edges, demands, op["closed"], op["total"])
        if "edges" in op:  # small; the large CLI inputs are re-read instead
            self.cases[op["id"]] = case
        return case

    def check(self, op: dict, answer: dict) -> list[str]:
        if "error" in answer:
            return [answer["error"]]
        case = self.case_for(op)
        optimum = None
        if self.workload == "small-batch":
            if op["id"] not in self.optimum:
                self.optimum[op["id"]] = check.brute_force_size(case)
            optimum = self.optimum[op["id"]]
        problems = check.check_answer(
            case, answer["vertices"], answer["quality"], answer["method"], answer["bound"], optimum
        )
        if self.workload == "classes-cli" and op["family"] == "threshold" and not op["total"]:
            problems += self._threshold_agreement(op, case, len(answer["vertices"]))
        return problems

    def _threshold_agreement(self, op: dict, case: check.Case, size: int) -> list[str]:
        """Both exact partial-scope solvers must find the same optimum size."""
        if op["id"] not in self.cross:
            edges = [(a, b) for a in range(case.n) for b in case.adj[a] if a < b]
            g = graph.build_graph(case.n, edges)
            demands = tuple(case.demands)
            by_threshold = exact.solve_threshold_vector(g, demands).size
            inst = Instance(g, Neighborhood.OPEN, Scope.PARTIAL, demands)
            self.cross[op["id"]] = (by_threshold, exact.solve_cograph(inst).size)
        by_threshold, by_cograph = self.cross[op["id"]]
        if by_threshold == by_cograph == size:
            return []
        return [f"threshold DP {by_threshold}, cograph DP {by_cograph}, answer {size} disagree"]

    # -- rounds -------------------------------------------------------------

    def run(self, seconds: float) -> dict:
        """Repeat whole rounds until ``seconds`` have passed since the first op."""
        times = {op["id"]: array("d") for op in self.ops}  # seconds per round
        chosen_total = 0  # sum of |S| over the first round
        deadline = time.monotonic() + seconds
        rounds = failed = 0
        while True:
            gc.collect()
            for op in self.ops:
                elapsed, answer = 0.0, {}
                try:
                    if self.tracer is not None:
                        start = self.tracer.begin_op(op["id"])
                        answer = self.traced(op)
                        self.tracer.end_op(start, answer.get("method"))
                    elif "edges" in op:
                        elapsed, answer = self.run_inproc(op)
                    else:
                        elapsed, answer = self.run_cli(op)
                    problems = self.check(op, answer)
                except Exception:  # one failed operation must not end the run
                    problems = [traceback.format_exc(limit=3)]
                    if self.tracer is not None and self.tracer.parent is not None:
                        self.tracer.end_op(start, "error")
                if problems:
                    failed += 1
                    for text in problems:
                        if len(self.problems) < MAX_REPORTED_PROBLEMS:
                            self.problems.append(f"op {op['id']} ({op['family']}, n={op['size']}): {text}")
                times[op["id"]].append(elapsed)
                if rounds == 0:
                    chosen_total += len(answer.get("vertices", ()))
            rounds += 1
            if time.monotonic() >= deadline:
                break
        return {
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "rounds": rounds,
            "attempted": rounds * len(self.ops),
            "failed": failed,
            "problems": self.problems,
            "chosen_total": chosen_total,
            "ops": [[op["size"], list(times[op["id"]])] for op in self.ops],
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--probe", action="store_true", help="stop when ready")
    args = parser.parse_args()

    src = (Path.cwd() / "src").resolve()
    if src not in Path(vecdom.__file__).resolve().parents:
        print(f"vecdom was imported from {vecdom.__file__}, not from ./src", file=sys.stderr)
        return 2
    manifest_path = Path(args.manifest)
    manifest = json.loads(manifest_path.read_text("utf-8"))
    worker = Worker(manifest, manifest_path.parent, bool(args.trace))
    worker.prepare()
    result: dict = {"ready_at": time.monotonic()}
    if not args.probe:
        origin = time.perf_counter()
        result.update(worker.run(args.seconds))
        if worker.tracer is not None:
            result["per_layer"] = worker.tracer.per_layer(len(worker.ops))
            if args.spans:
                worker.tracer.write(Path(args.spans), origin)
    Path(args.result).write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
