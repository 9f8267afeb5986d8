"""Per-commit codec benchmark trend tracking (asv-style, dependency-free).

``bench_codec_throughput.py`` writes one ``BENCH_codec.json`` per run; this
script distills each run into a one-line summary record, appends it to
``TREND.jsonl`` next to it (``benchmarks/results/``, or the git-ignored
``benchmarks/results-quick/`` under ``REPRO_BENCH_QUICK=1``:
:func:`recordings.results_dir`) and compares the fresh run against the
most recent *environment-matched* baseline already in the file.  An encode or
decode throughput drop of more than ``--threshold`` (default 30%) on any
tracked series fails the run with exit code 1, so the CI codec-bench job
turns a silent performance regression into a red build while still recording
the data point for later inspection.

Environment matching is deliberately strict: a baseline only counts when it
ran in the same mode (quick vs full), on the same stream sizes and on a host
with the same effective CPU count — comparing a
laptop full run against a throttled CI quick run, or two different
containers, would only produce noise (unchanged zfp-abs code measured 112 and
58 MB/s decode at 128 Ki on the 1-CPU and 2-CPU recording hosts).  When no
matched baseline exists the run is recorded and passes.

The same file also carries per-commit *lint* records: ``--lint PATH``
distills a ``repro.tools.lint --json`` report into a one-line record
(``"kind": "lint"`` — per-rule diagnostic counts, suppression count, files
checked) and appends it.  Lint records are history only: the CI lint step
itself is the pass/fail gate, and codec baseline matching skips them.

Likewise ``--serve PATH`` ingests the summary JSON written by
``tests/run_serve_soak.py`` into a ``"kind": "serve"`` record (job count,
fairness/starvation verdicts, recoveries, cache hit rate, soak duration).
The soak script's exit code is the gate; the trend record is the history.

Usage::

    python benchmarks/trend.py                  # append + check
    python benchmarks/trend.py --check-only     # compare without appending
    python benchmarks/trend.py --threshold 0.5  # looser gate
    python benchmarks/trend.py --lint lint-report.json  # record lint counts
    python benchmarks/trend.py --serve serve-soak.json  # record soak summary
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from recordings import results_dir  # noqa: E402

DEFAULT_RESULTS = results_dir() / "BENCH_codec.json"
DEFAULT_TREND = results_dir() / "TREND.jsonl"
DEFAULT_THRESHOLD = 0.30

#: Throughput families gated by :func:`compare` (higher is better in all).
GATED_FAMILIES = ("encode_mb_s", "decode_mb_s", "huffman_decode_msym_s")

#: Keys that must agree between two records for a comparison to make sense.
ENVIRONMENT_KEYS = (
    "quick",
    "huffman_symbols",
    "block_sizes",
    "available_cpus",
)


def current_commit() -> str:
    """Short hash of the checked-out commit (``"unknown"`` outside git)."""

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).parent,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def summarise(bench: dict, commit: str, timestamp: str) -> dict:
    """One flat trend record from a ``BENCH_codec.json`` payload.

    ``encode_mb_s`` and ``decode_mb_s`` carry one series per (codec, block)
    cell of the throughput matrix; ``huffman_decode_msym_s`` the one series
    ``"numpy"`` (the key rows recorded before 1.9.0 carry it under, next to an
    ``engines_available`` field nothing reads any more).
    Sections absent from a partial bench run are simply absent here too.
    """

    meta = bench.get("meta", {})
    record = {
        "schema": 1,
        "kind": "codec",
        "commit": commit,
        "timestamp": timestamp,
        "quick": bool(meta.get("quick", False)),
        "huffman_symbols": meta.get("huffman_symbols"),
        "block_sizes": meta.get("block_sizes"),
        "available_cpus": meta.get("available_cpus"),
        "encode_mb_s": {},
        "decode_mb_s": {},
        "huffman_decode_msym_s": {},
    }
    for row in bench.get("throughput", []):
        cell = f"{row['codec']}@{row['block']}"
        record["encode_mb_s"][cell] = row["encode_mb_s"]
        record["decode_mb_s"][cell] = row["decode_mb_s"]
    if "huffman_speedup" in bench:
        section = bench["huffman_speedup"]
        record["huffman_decode_msym_s"]["numpy"] = (
            section["symbols"] / section["vectorised_seconds"] / 1e6
        )
    return record


def lint_record(report: dict, commit: str, timestamp: str) -> dict:
    """One flat trend record from a ``repro.tools.lint --json`` report.

    Tracks the shape of the lint surface over time — how many diagnostics
    each rule would raise without suppressions, how many sanctioned
    suppressions the tree carries, and how many files the walk covered.
    """

    per_rule = {rule: 0 for rule in report.get("rules_active", [])}
    for diagnostic in report.get("diagnostics", []):
        per_rule[diagnostic["rule"]] = per_rule.get(diagnostic["rule"], 0) + 1
    return {
        "schema": 1,
        "kind": "lint",
        "commit": commit,
        "timestamp": timestamp,
        "files_checked": report.get("files_checked", 0),
        "diagnostics": len(report.get("diagnostics", [])),
        "suppressed": len(report.get("suppressed", [])),
        "per_rule": per_rule,
    }


def serve_record(summary: dict, commit: str, timestamp: str) -> dict:
    """One flat trend record from a ``tests/run_serve_soak.py`` summary.

    Tracks the service soak over time — how many jobs ran, whether the
    fairness and bit-identity contracts held, how many injected worker
    kills were recovered and how warm the result cache ran.  The soak
    script's own exit code is the pass/fail gate; this is the history.
    """

    cache = summary.get("cache") or {}
    hits = cache.get("hits", 0)
    lookups = hits + cache.get("misses", 0)
    return {
        "schema": 1,
        "kind": "serve",
        "commit": commit,
        "timestamp": timestamp,
        "jobs": summary.get("jobs", 0),
        "tenants": summary.get("tenants"),
        "fairness_ok": bool(summary.get("fairness_ok", False)),
        "starvation_ok": bool(summary.get("starvation_ok", False)),
        "recoveries": summary.get("recoveries", 0),
        "bit_identity_checked": summary.get("bit_identity_checked", 0),
        "bit_identity_mismatches": summary.get("bit_identity_mismatches", 0),
        "cache_hit_rate": (hits / lookups) if lookups else None,
        "duration_seconds": summary.get("duration_seconds"),
    }


def environment_matches(current: dict, candidate: dict) -> bool:
    """Whether *candidate* ran under comparable conditions to *current*.

    Only codec records qualify as codec baselines; lint records (and any
    future kinds) share TREND.jsonl but never match.
    """

    if candidate.get("kind", "codec") != "codec":
        return False
    return all(current.get(key) == candidate.get(key) for key in ENVIRONMENT_KEYS)


def find_baseline(entries: list[dict], current: dict) -> dict | None:
    """The most recent environment-matched record, if any."""

    for candidate in reversed(entries):
        if environment_matches(current, candidate):
            return candidate
    return None


def compare(current: dict, baseline: dict, threshold: float) -> list[str]:
    """Regression messages for every tracked series that dropped too far.

    A series regresses when its current throughput falls below
    ``baseline * (1 - threshold)``.  Series (or whole families) present in
    only one record are ignored: new codecs appear, old ones retire, and
    records from before a family was tracked carry none of it — none of
    these is a regression.
    """

    regressions = []
    for family in GATED_FAMILIES:
        base_series = baseline.get(family, {})
        for key, value in current.get(family, {}).items():
            base = base_series.get(key)
            if base is None or base <= 0:
                continue
            if value < base * (1.0 - threshold):
                drop = 100.0 * (1.0 - value / base)
                regressions.append(
                    f"{family}[{key}]: {value:.2f} vs baseline {base:.2f} "
                    f"from {baseline.get('commit', '?')} (-{drop:.0f}%, "
                    f"gate {100 * threshold:.0f}%)"
                )
    return regressions


def load_trend(path: Path) -> list[dict]:
    """All records in a TREND.jsonl file, oldest first (missing file: [])."""

    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line:
            entries.append(json.loads(line))
    return entries


def append_record(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--results", type=Path, default=DEFAULT_RESULTS)
    parser.add_argument("--trend", type=Path, default=DEFAULT_TREND)
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    parser.add_argument(
        "--check-only",
        action="store_true",
        help="compare against the baseline without appending a record",
    )
    parser.add_argument(
        "--lint",
        type=Path,
        default=None,
        metavar="REPORT",
        help="append a lint record distilled from a repro.tools.lint --json "
        "report instead of processing benchmark results",
    )
    parser.add_argument(
        "--serve",
        type=Path,
        default=None,
        metavar="SUMMARY",
        help="append a serve-soak record distilled from a "
        "tests/run_serve_soak.py summary JSON instead of processing "
        "benchmark results",
    )
    args = parser.parse_args(argv)

    if args.serve is not None:
        # Recorder, not a gate: the soak script fails the build on any
        # broken contract; this writes the data point into the history.
        if not args.serve.exists():
            print(f"trend: no serve-soak summary at {args.serve}; run "
                  "python tests/run_serve_soak.py first", file=sys.stderr)
            return 2
        record = serve_record(
            json.loads(args.serve.read_text()),
            commit=current_commit(),
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )
        if not args.check_only:
            append_record(args.trend, record)
        rate = record["cache_hit_rate"]
        print(
            f"trend: serve soak @ {record['commit']}: {record['jobs']} jobs, "
            f"fairness={'ok' if record['fairness_ok'] else 'BROKEN'}, "
            f"{record['recoveries']} recovery(ies), "
            f"cache hit rate {'n/a' if rate is None else f'{rate:.0%}'}"
        )
        return 0

    if args.lint is not None:
        # Recorder, not a gate: the CI lint step fails the build on
        # diagnostics; this just writes the data point into the history.
        if not args.lint.exists():
            print(f"trend: no lint report at {args.lint}; run "
                  "python -m repro.tools.lint --json first", file=sys.stderr)
            return 2
        record = lint_record(
            json.loads(args.lint.read_text()),
            commit=current_commit(),
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )
        if not args.check_only:
            append_record(args.trend, record)
        print(
            f"trend: lint @ {record['commit']}: {record['diagnostics']} "
            f"diagnostic(s), {record['suppressed']} suppressed, "
            f"{record['files_checked']} file(s)"
        )
        return 0

    if not args.results.exists():
        print(f"trend: no benchmark results at {args.results}; run "
              "bench_codec_throughput.py first", file=sys.stderr)
        return 2
    bench = json.loads(args.results.read_text())
    record = summarise(
        bench,
        commit=current_commit(),
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )

    entries = load_trend(args.trend)
    baseline = find_baseline(entries, record)
    if not args.check_only:
        # Record the data point even when it regresses: the trend file is the
        # history, the exit code is the gate.
        append_record(args.trend, record)

    series = sum(len(record[family]) for family in GATED_FAMILIES)
    if baseline is None:
        print(
            f"trend: recorded {record['commit']} ({series} throughput series); "
            "no environment-matched baseline yet"
        )
        return 0

    regressions = compare(record, baseline, args.threshold)
    if regressions:
        print(f"trend: codec throughput regressed vs {baseline['commit']}:")
        for message in regressions:
            print(f"  {message}")
        return 1
    print(
        f"trend: {record['commit']} within {100 * args.threshold:.0f}% of "
        f"baseline {baseline['commit']} on all {series} series"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
