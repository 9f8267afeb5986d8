"""Unit tests for the benchmark trend harness (``benchmarks/trend.py``).

The harness is what turns a silent codec-throughput regression (encode or
decode) into a red CI build, so its own logic — summarising a bench JSON,
matching baselines by environment, the 30% gate, the append-always contract —
is pinned here with fabricated bench payloads (no actual benchmarking).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "trend", Path(__file__).parent.parent / "benchmarks" / "trend.py"
)
trend = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trend)


def _bench_payload(decode_mb_s: float = 100.0, encode_mb_s: float = 50.0) -> dict:
    return {
        "meta": {
            "quick": False,
            "huffman_symbols": 1 << 20,
            "block_sizes": [1 << 14, 1 << 17, 1 << 20],
            "available_cpus": 4,
        },
        "huffman_speedup": {
            "symbols": 1 << 20,
            "vectorised_seconds": (1 << 20) / (2.0 * 1e6),
        },
        "throughput": [
            {
                "codec": "sz-rel",
                "block": 1 << 17,
                "ratio": 8.0,
                "encode_mb_s": encode_mb_s,
                "decode_mb_s": decode_mb_s,
            },
            {
                "codec": "huffman",
                "block": 1 << 17,
                "ratio": 4.0,
                "encode_mb_s": 80.0,
                "decode_mb_s": 2 * decode_mb_s,
            },
        ],
    }


def _record(decode_mb_s: float = 100.0, commit: str = "abc1234", **kwargs) -> dict:
    return trend.summarise(
        _bench_payload(decode_mb_s, **kwargs), commit=commit, timestamp="t"
    )


class TestSummarise:
    def test_extracts_per_codec_and_per_engine_series(self):
        # The Huffman rate keeps the series key "numpy" — the one engine
        # there is, and the key the rows already in TREND.jsonl use.
        record = _record()
        assert record["decode_mb_s"]["sz-rel@131072"] == 100.0
        assert record["decode_mb_s"]["huffman@131072"] == 200.0
        assert record["encode_mb_s"] == {"sz-rel@131072": 50.0, "huffman@131072": 80.0}
        assert record["huffman_decode_msym_s"] == {"numpy": 2.0}
        assert "engines_available" not in record
        assert record["quick"] is False
        assert record["commit"] == "abc1234"

    def test_engines_section_of_an_old_bench_file_is_ignored(self):
        # BENCH_codec.json files written before 1.9.0 carry an engine matrix.
        payload = _bench_payload()
        payload["engines"] = {
            "available": ["numba", "numpy"],
            "results": {"numba": {"huffman_decode_msym_s": 10.0}},
        }
        assert trend.summarise(payload, commit="abc1234", timestamp="t") == _record()

    def test_partial_bench_runs_summarise_cleanly(self):
        record = trend.summarise({"meta": {"quick": True}}, commit="x", timestamp="t")
        assert record["encode_mb_s"] == {}
        assert record["decode_mb_s"] == {}
        assert record["huffman_decode_msym_s"] == {}
        assert record["quick"] is True


class TestBaselineMatching:
    def test_most_recent_matching_entry_wins(self):
        current = _record()
        older, newer = _record(90.0, commit="old"), _record(95.0, commit="new")
        assert trend.find_baseline([older, newer], current)["commit"] == "new"

    def test_environment_mismatch_is_not_a_baseline(self):
        current = _record()
        quick = dict(_record(), quick=True)
        other_size = dict(_record(), huffman_symbols=1 << 16)
        other_host = dict(_record(), available_cpus=1)
        assert trend.find_baseline([quick, other_size, other_host], current) is None

    def test_rows_recorded_with_an_engine_set_still_load_and_match(self):
        # The committed history predates 1.9.0: every codec row carries
        # "engines_available", which is no longer an environment key.
        committed = [
            row
            for row in trend.load_trend(trend.DEFAULT_TREND)
            if row.get("kind", "codec") == "codec"
        ]
        assert committed and all(
            row["engines_available"] == ["numpy"] for row in committed[:2]
        )
        newest = committed[-1]
        current = dict(
            _record(),
            **{key: newest[key] for key in trend.ENVIRONMENT_KEYS},
        )
        assert "engines_available" not in current
        assert trend.find_baseline(committed, current) is newest
        assert "numpy" in newest["huffman_decode_msym_s"]

    def test_empty_history(self):
        assert trend.find_baseline([], _record()) is None


class TestCompare:
    def test_within_gate_passes(self):
        # 25% drop < 30% gate.
        assert trend.compare(_record(75.0), _record(100.0), 0.30) == []

    def test_large_drop_fails(self):
        regressions = trend.compare(_record(60.0), _record(100.0), 0.30)
        # Both throughput series dropped 40%.
        assert len(regressions) == 2
        assert any("sz-rel@131072" in r for r in regressions)

    def test_encode_drop_fails_on_its_own(self):
        # Decode steady, sz-rel encode down 40%: the encode family is gated
        # under the same threshold.
        regressions = trend.compare(
            _record(encode_mb_s=30.0), _record(encode_mb_s=50.0), 0.30
        )
        assert len(regressions) == 1
        assert "encode_mb_s[sz-rel@131072]" in regressions[0]

    def test_baseline_without_encode_series_is_not_a_regression(self):
        # Records written before the encode family was tracked carry none.
        baseline = _record()
        del baseline["encode_mb_s"]
        assert trend.compare(_record(encode_mb_s=1.0), baseline, 0.30) == []

    def test_improvement_passes(self):
        assert trend.compare(_record(200.0), _record(100.0), 0.30) == []

    def test_new_series_is_not_a_regression(self):
        current, baseline = _record(), _record()
        current["decode_mb_s"]["zfp-abs@131072"] = 1.0
        assert trend.compare(current, baseline, 0.30) == []


def _soak_summary(**overrides) -> dict:
    summary = {
        "kind": "serve",
        "jobs": 120,
        "tenants": {"t0": 1, "t1": 2, "t2": 3, "t3": 4},
        "fairness_rounds_checked": 7,
        "fairness_ok": True,
        "starvation_gaps": {"t0": 9, "t1": 7, "t2": 5, "t3": 3},
        "starvation_ok": True,
        "recoveries": 1,
        "bit_identity_checked": 120,
        "bit_identity_mismatches": 0,
        "cache": {"entries": 34, "max_entries": 256, "hits": 86, "misses": 34, "evictions": 0},
        "dispatched": 120,
        "duration_seconds": 1.5,
    }
    summary.update(overrides)
    return summary


class TestServeRecord:
    def test_distills_soak_summary(self):
        record = trend.serve_record(_soak_summary(), commit="abc1234", timestamp="t")
        assert record["kind"] == "serve"
        assert record["schema"] == 1
        assert record["jobs"] == 120
        assert record["fairness_ok"] is True
        assert record["recoveries"] == 1
        assert record["bit_identity_mismatches"] == 0
        assert record["cache_hit_rate"] == pytest.approx(86 / 120)
        assert record["duration_seconds"] == 1.5

    def test_empty_cache_yields_no_hit_rate(self):
        record = trend.serve_record(
            _soak_summary(cache={"hits": 0, "misses": 0}), commit="x", timestamp="t"
        )
        assert record["cache_hit_rate"] is None

    def test_serve_records_never_match_codec_baselines(self):
        # Serve records share TREND.jsonl with codec records; they must
        # never be picked up as a codec throughput baseline.
        serve = trend.serve_record(_soak_summary(), commit="s", timestamp="t")
        assert trend.find_baseline([serve], _record()) is None

    def test_main_serve_appends_record(self, tmp_path, capsys):
        summary_path = tmp_path / "serve-soak.json"
        summary_path.write_text(json.dumps(_soak_summary()))
        trend_path = tmp_path / "TREND.jsonl"
        code = trend.main(
            ["--serve", str(summary_path), "--trend", str(trend_path)]
        )
        assert code == 0
        entries = trend.load_trend(trend_path)
        assert len(entries) == 1
        assert entries[0]["kind"] == "serve"
        assert "serve soak" in capsys.readouterr().out

    def test_main_serve_missing_summary_is_an_error(self, tmp_path, capsys):
        code = trend.main(
            [
                "--serve",
                str(tmp_path / "missing.json"),
                "--trend",
                str(tmp_path / "TREND.jsonl"),
            ]
        )
        assert code == 2
        assert "no serve-soak summary" in capsys.readouterr().err


class TestMain:
    def _run(self, tmp_path: Path, payload: dict, argv: list[str] = ()) -> int:
        results = tmp_path / "BENCH_codec.json"
        results.write_text(json.dumps(payload))
        return trend.main(
            ["--results", str(results), "--trend", str(tmp_path / "TREND.jsonl"), *argv]
        )

    def test_first_run_records_and_passes(self, tmp_path, capsys):
        assert self._run(tmp_path, _bench_payload()) == 0
        entries = trend.load_trend(tmp_path / "TREND.jsonl")
        assert len(entries) == 1
        assert "no environment-matched baseline" in capsys.readouterr().out

    def test_stable_reruns_accumulate_and_pass(self, tmp_path):
        assert self._run(tmp_path, _bench_payload(100.0)) == 0
        assert self._run(tmp_path, _bench_payload(98.0)) == 0
        assert len(trend.load_trend(tmp_path / "TREND.jsonl")) == 2

    def test_regression_fails_but_is_still_recorded(self, tmp_path, capsys):
        assert self._run(tmp_path, _bench_payload(100.0)) == 0
        assert self._run(tmp_path, _bench_payload(50.0)) == 1
        # The data point lands in the history even though the gate failed.
        entries = trend.load_trend(tmp_path / "TREND.jsonl")
        assert len(entries) == 2
        assert "regressed" in capsys.readouterr().out

    def test_check_only_does_not_append(self, tmp_path):
        assert self._run(tmp_path, _bench_payload(100.0)) == 0
        assert self._run(tmp_path, _bench_payload(50.0), ["--check-only"]) == 1
        assert len(trend.load_trend(tmp_path / "TREND.jsonl")) == 1

    def test_threshold_is_configurable(self, tmp_path):
        assert self._run(tmp_path, _bench_payload(100.0)) == 0
        assert self._run(tmp_path, _bench_payload(50.0), ["--threshold", "0.6"]) == 0

    def test_missing_results_file_is_an_error(self, tmp_path, capsys):
        code = trend.main(
            [
                "--results",
                str(tmp_path / "missing.json"),
                "--trend",
                str(tmp_path / "TREND.jsonl"),
            ]
        )
        assert code == 2
        assert "no benchmark results" in capsys.readouterr().err

    def test_jsonl_lines_are_valid_json(self, tmp_path):
        self._run(tmp_path, _bench_payload())
        raw = (tmp_path / "TREND.jsonl").read_text().splitlines()
        assert all(json.loads(line)["schema"] == 1 for line in raw)
