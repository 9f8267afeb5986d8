"""End-to-end benchmark of ``repro.run()``: seven workloads, one command.

    python3 benchmarks/e2e/run.py [--seed 11] [--trace] [--workload NAME]

prints every end-to-end metric of every workload by name and unit, checks the
outputs, and with ``--trace`` adds the per-layer metrics of a separate traced
iteration.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics, or
with ``--trace 1`` the per-layer ones; metric names carry a ``<workload>/``
prefix when more than one workload ran.  The exit code is non-zero when any
circuit execution failed its check.  The command returns only when every
process it started has ended (``e2e_supervise.py``).  See README.md beside this
file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.core import effective_cpu_count  # noqa: E402 - needs the path set above

from e2e_harness import (  # noqa: E402
    DETERMINISTIC,
    E2E,
    SETUP_PROBES,
    environment,
    host_speed,
    measure,
    reference_speed,
    setup_seconds,
)
from e2e_supervise import SUPERVISED, supervise  # noqa: E402
from e2e_trace import PER_LAYER, Tracer, traced_iteration  # noqa: E402
from e2e_workloads import WORKLOADS, Workload  # noqa: E402

RESULTS = HERE / "results"
EXIT_FAILED = 1
EXIT_SKIPPED = 3


def manifest() -> dict:
    """The content of ``BENCHMARK.json``, from the tables the harness runs on."""

    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": 6,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in E2E
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def run_workload(workload: Workload, args, reference_digest: str | None) -> dict:
    """Measure one workload: untraced pass, set-up probes, optional traced pass."""

    if workload.parallel and effective_cpu_count() < 2:
        return {
            "status": "skipped",
            "reason": f"needs 2 effective CPUs, have {effective_cpu_count()}",
        }
    case = workload.build(args.seed, args.smoke)
    measured = measure(
        case,
        args.seed,
        iterations=1 if args.smoke else workload.iterations,
        seconds=args.seconds,
        reference_digest=reference_digest,
        speed=reference_speed if args.smoke else host_speed,
    )
    record = {
        "status": "failed" if measured.failures else "ok",
        "failures": measured.failures,
        "attempted": measured.attempted,
        "failed": len(measured.failures),
        "iterations": len(measured.walls),
        "source_gates": case.source_gates,
        "config": case.config,
        "state_digest": measured.state_digest,
    }
    if not measured.walls:
        return record
    setup = setup_seconds(case, 1 if args.smoke else SETUP_PROBES)
    record["wall_samples"] = measured.walls
    record["host_slowdown"] = measured.slowdowns
    record["setup_samples"] = setup
    record["e2e"] = {
        "wall_s": measured.wall_s,
        "gates_per_s": case.source_gates / measured.wall_s,
        "setup_s": statistics.median(setup),
        "peak_footprint_mib": measured.peak_footprint_bytes / 2**20,
        "min_ratio": measured.min_ratio,
        "fidelity": measured.fidelity,
    }
    if args.trace:
        tracer = Tracer(run_id=f"{workload.name}:seed{args.seed}:traced")
        record["per_layer"] = traced_iteration(
            case, args.seed, tracer, untraced_wall_s=statistics.median(measured.walls)
        )
        record["self_seconds"] = tracer.self_seconds()
        tracer.write(RESULTS / f"trace-{workload.name}-seed{args.seed}.jsonl")
    return record


def run_set(workloads: list[Workload], args) -> dict:
    records: dict[str, dict] = {}
    for workload in workloads:
        # The parallel rcs16 tiers must end in the sequential tier's exact
        # state.  When rcs16_seq ran in this set its digest is the reference;
        # alone, bit-equality to dense (which rcs16_seq passes too) implies it.
        reference = None
        if workload.name.startswith("rcs16_") and "rcs16_seq" in records:
            reference = records["rcs16_seq"].get("state_digest")
        records[workload.name] = run_workload(workload, args, reference)
        print_record(workload.name, records[workload.name])
    return records


def print_record(name: str, record: dict) -> None:
    if record["status"] == "skipped":
        print(f"{name:16s} skipped: {record['reason']}")
        return
    for failure in record["failures"]:
        print(f"{name:16s} FAILED: {failure}")
    if "e2e" not in record:
        return
    walls, setup = record["wall_samples"], record["setup_samples"]
    slow = statistics.median(record["host_slowdown"])
    spread = {
        "wall_s": f"  (n={len(walls)}, raw min={min(walls):.4f}, max={max(walls):.4f}, "
        f"host slowdown {slow:.3f})",
        "setup_s": f"  (n={len(setup)}, min={min(setup):.4f}, max={max(setup):.4f})",
    }
    for metric, unit, _better, _bound in E2E:
        value = record["e2e"][metric]
        print(f"{name:16s} {metric:28s} {value:>16.9g} {unit}{spread.get(metric, '')}")
    share = record["failed"] / record["attempted"]
    print(f"{name:16s} {'failed_share':28s} {share:>16.9g} 1  "
          f"({record['failed']} of {record['attempted']} circuit executions)")
    for metric, unit, _better in PER_LAYER if "per_layer" in record else ():
        value = record["per_layer"][metric]
        shown = "null" if value is None else f"{value:.9g}"
        print(f"{name:16s} {metric:28s} {shown:>16s} {unit}")


def contract_line(records: dict[str, dict], trace: bool) -> dict:
    """The last line: totals plus value/unit of every metric that was asked for."""

    table = [(name, unit) for name, unit, *_ in (PER_LAYER if trace else E2E)]
    section = "per_layer" if trace else "e2e"
    measured = {n: r for n, r in records.items() if r["status"] != "skipped"}
    metrics = {}
    for name, record in measured.items():
        prefix = f"{name}/" if len(records) > 1 else ""
        for metric, unit in table:
            value = record.get(section, {}).get(metric)
            # A metric that does not exist on this workload reads 0 here; the
            # results file keeps the null.
            metrics[prefix + metric] = {"value": value or 0.0, "unit": unit}
    failed = sum(record["failed"] for record in measured.values())
    return {
        "correct": failed == 0,
        "attempted": sum(record["attempted"] for record in measured.values()),
        "failed": failed,
        "metrics": metrics,
    }


def repeat_mismatches(first: dict, second: dict) -> list[str]:
    """Where two sets of the same commit and seed disagree beyond the bounds:
    timed metrics by more than their bound, deterministic ones and per-layer
    counts at all."""

    problems = []
    for name, a in first.items():
        b = second[name]
        if "e2e" not in a or "e2e" not in b:
            if a["status"] != b["status"]:
                problems.append(f"{name}: status {a['status']} vs {b['status']}")
            continue
        for metric, _unit, _better, bound in E2E:
            x, y = a["e2e"][metric], b["e2e"][metric]
            if metric in DETERMINISTIC:
                if x != y:
                    problems.append(f"{name} {metric}: {x!r} != {y!r}")
            elif abs(y - x) / x > bound:
                problems.append(f"{name} {metric}: {x:.6g} vs {y:.6g} (bound {bound})")
        for metric, unit, _better in PER_LAYER:
            if unit in ("count", "B") and "per_layer" in a:
                x, y = a["per_layer"][metric], b["per_layer"][metric]
                if x != y:
                    problems.append(f"{name} {metric}: count {x!r} != {y!r}")
    return problems


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--seconds",
        type=float,
        help="time each workload's loop for this long (at least two iterations); "
        "default: the fixed iteration counts of the workload table",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="add the traced pass; the last line then carries the per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="8-qubit versions, seconds")
    parser.add_argument(
        "--repeat-check", action="store_true",
        help="run the set twice and fail where the two disagree beyond the bounds",
    )
    parser.add_argument(
        "--manifest", action="store_true", help="print BENCHMARK.json and exit"
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    workloads = [w for w in WORKLOADS if args.workload in (None, w.name)]
    record_of_run = {"environment": environment(args.seed), "smoke": args.smoke}
    print(json.dumps(record_of_run["environment"]))

    records = run_set(workloads, args)
    record_of_run["workloads"] = records
    problems = []
    if args.repeat_check:
        print("-- second set --")
        record_of_run["second_set"] = run_set(workloads, args)
        problems = repeat_mismatches(records, record_of_run["second_set"])
        for problem in problems:
            print(f"repeat-check: {problem}")
        print(f"repeat-check: {'FAILED' if problems else 'passed'}")

    RESULTS.mkdir(exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    with open(RESULTS / f"e2e-seed{args.seed}{suffix}.json", "w", encoding="utf-8") as out:
        json.dump(record_of_run, out, indent=1)

    if all(record["status"] == "skipped" for record in records.values()):
        return EXIT_SKIPPED
    line = contract_line(records, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] and not problems else EXIT_FAILED


if __name__ == "__main__":
    # The command itself only supervises: the measuring runs in a child, and
    # the command returns when no process started below it is left.
    if SUPERVISED in os.environ:
        sys.exit(main())
    sys.exit(supervise(__file__, sys.argv[1:]))
