#!/usr/bin/env python3
"""gatecap benchmark: one closed-loop client per workload, in one process.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 45 --trace 0

Workloads: certify, cli-analyze (see perfbench/README.md).
With --trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a traced
run, and the line before it a JSON report with the tracing overhead.  The
program under test is imported from src/ of the checkout holding this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

TAIL_PERCENTILE = 80  # at least ten of the >= 56 cli-analyze samples lie beyond it
SETUP_SAMPLES = 3  # this process plus two fresh interpreters
IMPORT_SAMPLES = 3

# (name, unit) of every per-layer metric, as listed in BENCHMARK.json.
PER_LAYER = [
    ("canonical.cartan_decompose.calls", "1/op"),
    ("canonical.cartan_decompose.self_us", "us"),
    ("canonical.cartan_decompose.failed", "1/op"),
    ("linalg.eig_unitary.calls", "1/op"),
    ("linalg.eig_unitary.self_us", "us"),
    ("linalg.check_unitary.calls", "1/op"),
    ("linalg.check_unitary.self_us", "us"),
    ("distinguishability.d_min_canonical.calls", "1/op"),
    ("distinguishability.d_min_canonical.self_us", "us"),
    ("distinguishability.d_min_geometric.calls", "1/op"),
    ("distinguishability.d_min_geometric.self_us", "us"),
    ("distinguishability.verify_theorem.calls", "1/op"),
    ("distinguishability.verify_theorem.self_us", "us"),
    ("distinguishability.verify_theorem_quartic.calls", "1/op"),
    ("distinguishability.verify_theorem_quartic.self_us", "us"),
    ("entanglement.capacities_closed_form.calls", "1/op"),
    ("entanglement.capacities_closed_form.self_us", "us"),
    ("oracle.max_concurrence_product.self_s", "s"),
    ("oracle.max_concurrence_product.evaluations", "1/call"),
    ("oracle.max_concurrence_unrestricted.self_s", "s"),
    ("oracle.max_concurrence_unrestricted.evaluations", "1/call"),
    ("oracle.max_delta_concurrence.self_s", "s"),
    ("oracle.max_delta_concurrence.evaluations", "1/call"),
    ("oracle.min_probe_overlap.self_s", "s"),
    ("oracle.min_probe_overlap.evaluations", "1/call"),
    ("oracle.max_delta_concurrence.nested_product_searches", "1/call"),
    ("oracle.refine.calls", "1/op"),
    ("oracle.refine.nfev", "1/call"),
    ("oracle.refine.useful_ratio", "ratio"),
    ("distinguishability.hull_optimal_weights.calls", "1/op"),
    ("distinguishability.hull_optimal_weights.self_us", "us"),
    ("capacities.verify_relation1.self_s", "s"),
    ("capacities.verify_relation2.self_s", "s"),
    ("import.gatecap_s", "s"),
    ("import.scipy_s", "s"),
    ("serialization.load_matrix.self_us", "us"),
    ("cli.cmd_analyze.self_us", "us"),
]


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_metrics(summary: dict, ops: int, imports: dict) -> dict:
    """The per-layer metrics from a traced run's summary; layers the run
    never reached read 0."""
    refine = summary["refine"]
    refines = refine["calls"]
    direct = {
        "import.gatecap_s": imports["gatecap_s"],
        "import.scipy_s": imports["scipy_s"],
        "oracle.refine.calls": refines / ops,
        "oracle.refine.nfev": refine["nfev"] / refines if refines else 0.0,
        "oracle.refine.useful_ratio": refine["useful"] / refines if refines else 0.0,
    }
    values = {}
    for name, unit in PER_LAYER:
        layer, _, field = name.rpartition(".")
        s = summary["layers"].get(layer, {"calls": 0, "self_s": 0.0, "failed": 0, "evaluations": 0})
        per_call = 1.0 / s["calls"] if s["calls"] else 0.0
        if name in direct:
            value = direct[name]
        elif field == "nested_product_searches":
            value = summary[field] * per_call
        elif field in ("calls", "failed"):
            value = s[field] / ops
        elif field == "self_us":
            value = s["self_s"] * per_call * 1e6
        else:  # self_s, evaluations
            value = s[field] * per_call
        values[name] = {"value": value, "unit": unit}
    return values


def import_times() -> dict:
    """Median over fresh interpreters of `import gatecap` and of the scipy
    modules it pulls in, from -X importtime (outermost scipy entries)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    gatecap_s, scipy_s = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gatecap"],
                              env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        entries = []  # (depth, name, cumulative us), in the order printed
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line.split("|")
            depth = (len(name) - len(name.lstrip())) // 2
            entries.append((depth, name.strip(), int(cumulative)))
        # A module is printed after everything it imports, so walking the
        # list backwards meets each parent before its children.
        stack, total = [], 0
        for depth, name, cum in reversed(entries):
            del stack[depth:]
            if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy" for n in stack):
                total += cum
            stack.append(name)
        gatecap_s.append(next(cum for _, name, cum in entries if name == "gatecap") / 1e6)
        scipy_s.append(total / 1e6)
    return {"gatecap_s": statistics.median(gatecap_s), "scipy_s": statistics.median(scipy_s)}


def setup_probe(args) -> float:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                           "--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--trace", "0", "--setup-only"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="measure set-up only and print it (used for the setup_s samples)")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "gatecap", "__init__.py")):
        print(f"error: no gatecap sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    sys.path.insert(0, SRC)

    # Set-up: from before the first import of the program to the end of the
    # workload's first operation, which is untimed and checked.
    t_setup = time.perf_counter()
    import workloads
    import tracing

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    correct, attempted, failed = True, 0, 0
    work = workloads.WORKLOADS[args.workload](args.seed, OUT)
    warm = work.inputs(0)[0]
    try:
        work.check(warm, work.call(warm))
    except workloads.ref.Mismatch as exc:
        print(f"error: {work.name}: wrong output on the first operation: {exc}", file=sys.stderr)
        correct = False
    setup_s = time.perf_counter() - t_setup
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    latencies, traced_latencies, dumps = [], [], []

    def settle(item, traced: bool) -> float:
        """Run one operation, check it, and return its latency."""
        nonlocal correct, attempted, failed
        attempted += 1
        t0 = time.perf_counter()
        try:
            result = work.call_traced(item) if traced else work.call(item)
        except Exception as exc:  # a failure of the program under test
            print(f"error: {work.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        if traced:
            result, dump = result
            dumps.append(dump)
        try:
            failed += work.check(item, result) == "failed"
        except workloads.ref.Mismatch as exc:
            print(f"error: {work.name}: wrong output: {exc}", file=sys.stderr)
            correct = False
        return elapsed

    start = time.perf_counter()
    rounds = 0
    while rounds < (1 if args.trace else work.min_rounds) or time.perf_counter() - start < args.seconds:
        rounds += 1
        for item in work.inputs(rounds):
            latencies.append(settle(item, traced=False))
            if args.trace:
                traced_latencies.append(settle(item, traced=True))

    if args.trace:
        tolerance = workloads.gatecap.SearchConfig().tolerance
        summary = tracing.summarize(dumps, tolerance)
        metrics = layer_metrics(summary, len(dumps), import_times())
        overhead = sum(traced_latencies) / sum(latencies) - 1
        report = {"workload": work.name, "seed": args.seed, "traced_ops": len(dumps),
                  "tracing_overhead": overhead, "layers": summary["layers"],
                  "refine": summary["refine"],
                  "nested_product_searches": summary["nested_product_searches"]}
        with open(os.path.join(OUT, f"trace-{work.name}-{args.seed}.json"), "w") as fh:
            json.dump({**report, "dumps": dumps}, fh)
        print(json.dumps(report))
    else:
        setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        # Throughput and time per gate over the whole run: the host's speed
        # drifts over tens of seconds, and the run-long mean follows that
        # drift least.  Whole rounds keep the mix of gates the same.
        gate_s = sum(latencies) / len(latencies)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (work.peak_rss_mb(), "MB"),
            "trials_per_s": (1 / gate_s, "1/s"),
            "certify_s": (gate_s, "s"),
            "analyze_s_p50": (statistics.median(latencies), "s"),
            "analyze_s_tail": (percentile(latencies, TAIL_PERCENTILE), "s"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
