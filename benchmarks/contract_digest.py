"""Print the stored-block and counter contract of every e2e workload.

A refactor that claims to change no behaviour must leave every stored block
and every task / codec / cache / exchange counter exactly as it was.  This
script prints one JSON line per workload of ``benchmarks/e2e/e2e_workloads.py``
(imported, never modified): a SHA-256 digest of every stored block — codec
name plus blob, block by block — after each circuit, plus the report counters
listed in ``COUNTERS``.  Diff its output between two commits::

    python3 benchmarks/contract_digest.py [--seed N] [--smoke] > after.jsonl

or compare against a saved output directly: ``--compare before.jsonl``
prints one line per workload and field that differs from it (and nothing
else) and exits 1 on any difference.

It exits non-zero unless the four ``rcs16_*`` workloads — one circuit on the
sequential tier and on three spellings of the ranked tier — store identical
blocks: block-level cross-tier bit-identity (about 1 s at ``--smoke`` size).
Timing-free, so the output is the same on any host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

from e2e_workloads import WORKLOADS  # noqa: E402

from repro.core import CompressedSimulator, SimulatorConfig  # noqa: E402

#: The report counters a behaviour-preserving change must leave unchanged.
COUNTERS = (
    "tasks_executed",
    "duplicate_tasks",
    "decompress_calls",
    "compress_calls",
    "cache_hits",
    "block_exchanges",
    "communication_bytes",
)


def _blocks_digest(simulator: CompressedSimulator) -> str:
    digest = hashlib.sha256()
    for _, entry in simulator.state.iter_blocks():
        digest.update(entry.compressor.encode())
        digest.update(len(entry.blob).to_bytes(8, "little"))
        digest.update(entry.blob)
    return digest.hexdigest()


def workload_contract(workload, seed: int, smoke: bool) -> dict:
    """Run *workload*'s circuits on one simulator, reset between circuits as
    a batched ``repro.run()`` does, and collect its contract."""

    case = workload.build(seed, smoke)
    blocks, counters = [], {name: [] for name in COUNTERS}
    with CompressedSimulator(case.num_qubits, SimulatorConfig(**case.config)) as sim:
        for number, circuit in enumerate(case.circuits):
            if number:
                sim.reset()
            report = sim.apply_circuit(circuit)
            blocks.append(_blocks_digest(sim))
            for name in COUNTERS:
                counters[name].append(getattr(report, name))
    return {
        "workload": workload.name,
        "seed": seed,
        "smoke": smoke,
        "blocks": blocks,
        **counters,
    }


def differences(rows: list[dict], saved_text: str) -> list[str]:
    """One line per workload and field of *rows* that differs from
    *saved_text*, a saved output of this script (its JSON lines)."""

    saved = {
        row["workload"]: row
        for row in map(json.loads, filter(str.strip, saved_text.splitlines()))
    }
    lines = []
    for row in rows:
        before = saved.pop(row["workload"], None)
        if before is None:
            lines.append(f"{row['workload']}: not in the saved output")
            continue
        for field in sorted(row.keys() | before.keys()):
            old, new = before.get(field), row.get(field)
            if old == new:
                continue
            if field == "blocks" and old and len(old) == len(new):
                circuits = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
                lines.append(f"{row['workload']}: blocks differ after circuits {circuits}")
            else:
                lines.append(f"{row['workload']}: {field} was {old}, is {new}")
    lines += [f"{name}: only in the saved output" for name in saved]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--smoke", action="store_true", help="8-qubit registers (the e2e smoke sizes)"
    )
    parser.add_argument(
        "--compare",
        type=Path,
        metavar="FILE",
        help="print what differs from this saved output; exit 1 on any difference",
    )
    args = parser.parse_args(argv)

    rows, rcs = [], {}
    for workload in WORKLOADS:
        row = workload_contract(workload, args.seed, args.smoke)
        rows.append(row)
        if args.compare is None:
            print(json.dumps(row, sort_keys=True), flush=True)
        if workload.name.startswith("rcs16_"):
            rcs[workload.name] = row["blocks"]
    status = 0
    if len({tuple(blocks) for blocks in rcs.values()}) != 1:
        print(f"rcs16 tiers store different blocks: {rcs}", file=sys.stderr)
        status = 1
    if args.compare is not None:
        changed = differences(rows, args.compare.read_text())
        for line in changed:
            print(line)
        print(
            f"{len(changed)} difference(s) from {args.compare}"
            if changed
            else f"identical to {args.compare}"
        )
        status = status or int(bool(changed))
    return status


if __name__ == "__main__":
    sys.exit(main())
