"""walshcs benchmark: runs one workload as a closed loop, one task in flight.

    python3 perfbench/run.py --workload solve-lowband --seed 0 --seconds 24 --trace 0

Run from the root of a checkout; it benchmarks the walshcs sources under
`src/` of that checkout and fails when there are none.  The last line of
standard output is the result: {"correct", "attempted", "failed", "metrics"}.
The line before it records the environment.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the per-layer ones, from one untraced
and one traced run of the same task.  Details and spans go to perfbench/out/.
NOTES.md explains the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import harness

SETUP_SAMPLES = 5  # cold set-ups per run: this process's own, then fresh processes

SPAN_METRICS = (
    ("walsh.fwht_sequency", ("calls", "s", "points")),
    ("walsh.ifwht_sequency", ("calls", "s", "points")),
    ("wavelets.dwt_inverse", ("calls", "s", "points")),
    ("wavelets.dwt_forward", ("calls", "s", "points")),
    ("wavelets.build_basis", ("s",)),
    ("operator.apply", ("calls", "s", "self_s")),
    ("operator.apply_adjoint", ("calls", "s", "self_s")),
    ("operator.synthesize", ("calls", "s")),
    ("operator.column", ("calls", "s")),
    ("operator.section_dense", ("s",)),
    ("operator.write_matrix_csv", ("s",)),
    ("operator.write_pgm", ("s",)),
    ("reconstruct.solve_bpdn", ("calls", "s", "self_s")),
    ("reconstruct.measure_signal", ("s",)),
    ("sampling.draw_scheme", ("calls", "s")),
    ("sampling.allocate_budget", ("s",)),
    ("signals.make_signal", ("s",)),
    ("analysis.coherence_report", ("s", "self_s")),
    ("analysis.tail_norm", ("s", "self_s")),
    ("analysis.balancing_check", ("s", "self_s")),
    ("analysis.analytic_constants", ("s",)),
    ("cli.cmd_analyze", ("s",)),
    ("cli.cmd_matrix", ("s",)),
)
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s", "points": "count"}
SOLVER_UNITS = {
    "reconstruct.iterations": "count",
    "reconstruct.applies_per_solve": "count",
    "reconstruct.feasibility_gap": "l2",
    "reconstruct.cs_error": "ratio",
    "reconstruct.converged": "count",
}
TRACE_UNITS = {
    "trace.task_s": "s",
    "trace.untraced_task_s": "s",
    "trace.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.spans": "count",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def attempt(workload, ctx, task_input):
    """One task and its output check: (seconds, outcome or None, problems)."""
    start = perf_counter()
    try:
        outcome = workload.task(ctx, task_input)
    except Exception:
        seconds = perf_counter() - start
        traceback.print_exc()
        return seconds, None, ["task raised"]
    seconds = perf_counter() - start
    try:
        problems = workload.check(ctx, task_input, outcome)
    except Exception:
        traceback.print_exc()
        problems = ["output check raised"]
    for problem in problems:
        print(f"perfbench: {workload.name} input {task_input!r}: {problem}", file=sys.stderr)
    return seconds, outcome, problems


def cold_setup_seconds(workload):
    probe = Path(__file__).with_name("setup_probe.py")
    proc = subprocess.run(
        [sys.executable, str(probe), workload.name],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def timed_run(workload, ctx, own_setup_s, seed, seconds):
    setups = [own_setup_s] + [cold_setup_seconds(workload) for _ in range(SETUP_SAMPLES - 1)]
    times, failed = [], 0
    start = perf_counter()
    # start another task only if it should end within the measured window
    while not times or perf_counter() - start + statistics.median(times) <= seconds:
        task_s, _, problems = attempt(workload, ctx, workload.make_input(seed, len(times)))
        times.append(task_s)
        failed += bool(problems)
    metrics = {
        "task_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {"task_s": times, "setup_s": setups}
    return len(times), failed, metrics, details


def traced_run(workload, ctx, setup_wall_s, tracer, seed):
    """The first task of the seed, once untraced and then once traced."""
    task_input = workload.make_input(seed, 0)
    untraced_s, _, problems_untraced = attempt(workload, ctx, task_input)
    with tracer.installed():
        tracer.task = 0
        traced_s, outcome, problems = attempt(workload, ctx, task_input)

    totals, solver_applies = tracer.summary()
    metrics = {}
    for name, fields in SPAN_METRICS:
        entry = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "points": 0})
        for field in fields:
            metrics[f"{name}.{field}"] = (entry[field], FIELD_UNITS[field])
    solves = totals.get("reconstruct.solve_bpdn", {"calls": 0})["calls"]
    solved = getattr(outcome, "iterations", None) is not None
    solver_values = {
        "reconstruct.iterations": outcome.iterations if solved else 0,
        "reconstruct.applies_per_solve": solver_applies / solves if solves else 0,
        "reconstruct.feasibility_gap": outcome.feasibility_gap if solved else 0.0,
        "reconstruct.cs_error": outcome.cs_error if solved else 0.0,
        "reconstruct.converged": int(outcome.converged) if solved else 0,
    }
    for name, unit in SOLVER_UNITS.items():
        metrics[name] = (solver_values[name], unit)
    trace_values = {
        "trace.task_s": traced_s,
        "trace.untraced_task_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.wall_s": setup_wall_s + traced_s,
        "trace.self_sum_s": sum(entry["self_s"] for entry in totals.values()),
        "trace.spans": len(tracer.spans),
    }
    for name, unit in TRACE_UNITS.items():
        metrics[name] = (trace_values[name], unit)
    failed = bool(problems_untraced) + bool(problems)
    return 2, failed, metrics, {"traced_task_s": traced_s, "untraced_task_s": untraced_s}


def main(argv=None):
    args = parse_args(argv)
    harness.pin_threads()
    try:
        harness.use_checkout_sources()
    except harness.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    harness.OUT.mkdir(exist_ok=True)
    import numpy  # noqa: F401  (after pinning; outside the set-up clock)

    setup_start = perf_counter()
    import walshcs
    import workloads

    harness.check_imported_from_checkout(walshcs)
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracer.installed():
            traced_setup_start = perf_counter()
            ctx = workload.setup()
            setup_wall = perf_counter() - traced_setup_start
        attempted, failed, metrics, details = traced_run(workload, ctx, setup_wall, tracer, args.seed)
        tracer.write_csv(harness.OUT / f"spans-{tag}.csv")
    else:
        ctx = workload.setup()
        own_setup_s = perf_counter() - setup_start
        attempted, failed, metrics, details = timed_run(
            workload, ctx, own_setup_s, args.seed, args.seconds
        )

    facts = harness.environment_facts()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": facts, "details": details, "result": result}
    (harness.OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"environment": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
