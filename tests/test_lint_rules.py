"""Per-rule tests for :mod:`repro.tools.lint`: offending, clean, suppressed.

Every rule gets at least one snippet it must flag, one it must stay silent
on, and one where a reasoned suppression moves the diagnostic to the
suppressed list.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.tools.lint import LintConfig, lint_source
from repro.tools.lint.cli import main as lint_main
from repro.tools.lint.config import DEFAULT_OPTIONS, project_config


def run(source: str, *rules: str, options: dict | None = None):
    """Lint a dedented snippet with the named rules; returns the report."""

    return lint_source(
        textwrap.dedent(source),
        rules=rules or None,
        options=options if options is not None else DEFAULT_OPTIONS,
    )


def messages(report) -> list[str]:
    return [d.message for d in report.diagnostics]


# ---------------------------------------------------------------------------
# mp-hygiene
# ---------------------------------------------------------------------------


class TestMpHygiene:
    def test_flags_multiprocessing_import(self):
        report = run("import multiprocessing\n", "mp-hygiene")
        assert [d.rule for d in report.diagnostics] == ["mp-hygiene"]
        assert "procpool" in report.diagnostics[0].message

    def test_flags_submodule_from_import(self):
        report = run(
            "from multiprocessing import shared_memory\n", "mp-hygiene"
        )
        assert [d.rule for d in report.diagnostics] == ["mp-hygiene"]

    def test_allowed_file_is_exempt(self):
        report = lint_source(
            "import multiprocessing\n",
            rel="src/repro/core/procpool.py",
            rules=("mp-hygiene",),
            options=DEFAULT_OPTIONS,
        )
        assert report.diagnostics == []

    def test_rank_comm_module_is_not_exempt(self):
        # The rank-to-rank transport is sockets now; a shared-memory import
        # coming back there (or anywhere else in src/) fails the lint.
        report = lint_source(
            "from multiprocessing import shared_memory\n",
            rel="src/repro/distributed/process_comm.py",
            rules=("mp-hygiene",),
            options=DEFAULT_OPTIONS,
        )
        assert [d.rule for d in report.diagnostics] == ["mp-hygiene"]

    def test_suppression_with_reason(self):
        report = run(
            "import multiprocessing  "
            "# repro-lint: disable=mp-hygiene -- transport prototype\n",
            "mp-hygiene",
        )
        assert report.diagnostics == []
        assert [d.rule for d in report.suppressed] == ["mp-hygiene"]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_flags_global_numpy_rng(self):
        report = run(
            """\
            import numpy as np

            def jitter(values):
                np.random.shuffle(values)
                return values
            """,
            "determinism",
        )
        assert [d.rule for d in report.diagnostics] == ["determinism"]
        assert "numpy.random.shuffle" in messages(report)[0]

    def test_flags_stdlib_rng_and_from_import(self):
        report = run(
            """\
            import random
            from random import shuffle

            def pick(items):
                shuffle(items)
                return random.choice(items)
            """,
            "determinism",
        )
        assert len(report.diagnostics) == 2

    def test_flags_time_time(self):
        report = run(
            """\
            import time

            def deadline():
                return time.time() + 5.0
            """,
            "determinism",
        )
        assert [d.rule for d in report.diagnostics] == ["determinism"]
        assert "monotonic" in messages(report)[0]

    def test_seeded_generators_and_monotonic_are_clean(self):
        report = run(
            """\
            import random
            import time

            import numpy as np

            def sample(seed):
                rng = np.random.default_rng(seed)
                local = random.Random(seed)
                start = time.monotonic()
                return rng.random(), local.random(), start
            """,
            "determinism",
        )
        assert report.diagnostics == []

    def test_suppressed_with_reason(self):
        report = run(
            """\
            import time

            def wall_clock_stamp():
                return time.time()  # repro-lint: disable=determinism -- display only
            """,
            "determinism",
        )
        assert report.diagnostics == []
        assert len(report.suppressed) == 1


# ---------------------------------------------------------------------------
# error-taxonomy
# ---------------------------------------------------------------------------


class TestErrorTaxonomy:
    def test_flags_bare_except(self):
        report = run(
            """\
            def swallow(fn):
                try:
                    fn()
                except:
                    pass
            """,
            "error-taxonomy",
        )
        assert [d.rule for d in report.diagnostics] == ["error-taxonomy"]
        assert "bare 'except:'" in messages(report)[0]

    def test_flags_broad_except_without_reraise(self):
        report = run(
            """\
            def swallow(fn):
                try:
                    fn()
                except Exception:
                    return None
            """,
            "error-taxonomy",
        )
        assert len(report.diagnostics) == 1
        assert "without re-raise" in messages(report)[0]

    def test_broad_except_with_reraise_is_clean(self):
        report = run(
            """\
            def wrap(fn, error_cls):
                try:
                    return fn()
                except Exception as exc:
                    raise error_cls(str(exc)) from exc
            """,
            "error-taxonomy",
        )
        assert report.diagnostics == []

    def test_flags_forbidden_builtin_raise_and_cause(self):
        report = run(
            """\
            def fail(detail):
                raise RuntimeError(detail)

            def chain(exc, detail):
                raise exc from RuntimeError(detail)
            """,
            "error-taxonomy",
        )
        assert len(report.diagnostics) == 2
        assert all("repro.errors" in m for m in messages(report))

    def test_contract_builtins_are_allowed(self):
        report = run(
            """\
            def check(count):
                if count < 0:
                    raise ValueError("count must be non-negative")
                if not isinstance(count, int):
                    raise TypeError("count must be an int")
            """,
            "error-taxonomy",
        )
        assert report.diagnostics == []

    def test_wrapped_standalone_suppression_covers_next_code_line(self):
        # The reason wraps onto a second comment line; the suppression must
        # still reach the 'except' two lines below the marker.
        report = run(
            """\
            def teardown(state):
                try:
                    state.close()
                # repro-lint: disable=error-taxonomy -- best-effort teardown:
                # nothing to report to on the way out
                except Exception:
                    pass
            """,
            "error-taxonomy",
        )
        assert report.diagnostics == []
        assert len(report.suppressed) == 1


# ---------------------------------------------------------------------------
# docstring-coverage
# ---------------------------------------------------------------------------


class TestDocstringCoverage:
    def test_flags_module_class_and_method(self):
        report = run(
            """\
            class Widget:
                def render(self):
                    return None
            """,
            "docstring-coverage",
        )
        kinds = messages(report)
        assert len(kinds) == 3  # module, class, method
        assert any("module has no docstring" in m for m in kinds)
        assert any("'Widget'" in m for m in kinds)
        assert any("'Widget.render'" in m for m in kinds)

    def test_private_and_dunder_and_local_defs_exempt(self):
        report = run(
            '''\
            """Documented module."""

            def _helper():
                return 1

            class Widget:
                """Documented class."""

                def __len__(self):
                    return 0

                def render(self):
                    """Documented method with a local def."""

                    def undocumented_local():
                        return 2

                    return undocumented_local()
            ''',
            "docstring-coverage",
        )
        assert report.diagnostics == []


# ---------------------------------------------------------------------------
# resource-hygiene
# ---------------------------------------------------------------------------


class TestResourceHygiene:
    def test_flags_open_outside_with(self):
        report = run(
            """\
            def slurp(path):
                handle = open(path)
                return handle.read()
            """,
            "resource-hygiene",
        )
        assert [d.rule for d in report.diagnostics] == ["resource-hygiene"]
        assert "with" in messages(report)[0]

    def test_with_open_and_finally_close_are_clean(self):
        report = run(
            """\
            def slurp(path):
                with open(path) as handle:
                    return handle.read()

            def slurp_finally(path):
                handle = open(path)
                try:
                    return handle.read()
                finally:
                    handle.close()
            """,
            "resource-hygiene",
        )
        assert report.diagnostics == []

    def test_flags_unowned_socket(self):
        report = run(
            """\
            import socket

            def probe(payload):
                ours, theirs = socket.socketpair()
                ours.sendall(payload)
                return theirs.recv(len(payload))

            def listener(port):
                server = socket.socket()
                server.bind(("localhost", port))
            """,
            "resource-hygiene",
        )
        assert len(report.diagnostics) == 2
        assert all("socket with no reachable close" in m for m in messages(report))

    def test_owned_transferred_and_finally_closed_sockets_are_clean(self):
        report = run(
            """\
            import socket

            def make():
                return socket.socketpair()

            def links(count):
                pairs = []
                try:
                    for _ in range(count):
                        pairs.append(socket.socketpair())
                    yield pairs
                finally:
                    for ours, theirs in pairs:
                        ours.close()
                        theirs.close()

            class Endpoint:
                def __init__(self):
                    self._sock = socket.socket()

                def close(self):
                    self._sock.close()

            def not_a_socket(pool):
                return pool.socket("tcp")
            """,
            "resource-hygiene",
        )
        assert report.diagnostics == []

    def test_flags_lost_asyncio_task(self):
        # A bare create_task/ensure_future expression discards the only
        # strong reference: the loop may garbage-collect the task mid-flight.
        report = run(
            """\
            import asyncio

            async def fire_and_forget(coro, loop):
                asyncio.create_task(coro)
                asyncio.ensure_future(coro, loop=loop)
            """,
            "resource-hygiene",
        )
        assert len(report.diagnostics) == 2
        assert all("task spawned and discarded" in m for m in messages(report))

    def test_held_awaited_and_taskgroup_tasks_are_clean(self):
        report = run(
            """\
            import asyncio

            class Service:
                def start(self):
                    self._worker = asyncio.create_task(self._run())

                def close(self):
                    self._worker.cancel()

            async def run_all(coros):
                tasks = [asyncio.create_task(c) for c in coros]
                await asyncio.create_task(coros[0])
                async with asyncio.TaskGroup() as tg:
                    tg.create_task(coros[1])
                return tasks
            """,
            "resource-hygiene",
        )
        assert report.diagnostics == []


# ---------------------------------------------------------------------------
# Engine mechanics: suppressions, parse errors, report shape
# ---------------------------------------------------------------------------


class TestEngine:
    def test_reasonless_suppression_is_flagged_and_does_not_suppress(self):
        report = run(
            "import multiprocessing  # repro-lint: disable=mp-hygiene\n",
            "mp-hygiene",
        )
        rules = sorted(d.rule for d in report.diagnostics)
        assert rules == ["mp-hygiene", "suppression-format"]
        assert report.suppressed == []
        assert "without a reason" in messages(report)[0] + messages(report)[1]

    def test_unknown_rule_suppression_is_flagged(self):
        report = run(
            "import multiprocessing  "
            "# repro-lint: disable=no-such-rule -- because\n",
            "mp-hygiene",
        )
        rules = sorted(d.rule for d in report.diagnostics)
        assert rules == ["mp-hygiene", "suppression-format"]
        assert any("unknown rule" in m for m in messages(report))

    def test_multi_rule_suppression(self):
        report = run(
            """\
            import time

            def stamp():
                return time.time()  # repro-lint: disable=determinism,docstring-coverage -- display
            """,
            "determinism",
        )
        assert report.diagnostics == []
        assert len(report.suppressed) == 1

    def test_marker_inside_string_literal_is_ignored(self):
        report = run(
            """\
            EXAMPLE = "# repro-lint: disable=mp-hygiene"
            import multiprocessing
            """,
            "mp-hygiene",
        )
        assert [d.rule for d in report.diagnostics] == ["mp-hygiene"]

    def test_parse_error_diagnostic(self):
        report = lint_source("def broken(:\n")
        assert [d.rule for d in report.diagnostics] == ["parse-error"]
        assert report.exit_code == 1

    def test_unknown_rule_selection_raises(self):
        with pytest.raises(ValueError, match="no-such-rule"):
            lint_source("x = 1\n", rules=("no-such-rule",))

    def test_report_shape_and_render(self):
        report = run("import multiprocessing\n", "mp-hygiene")
        diagnostic = report.diagnostics[0]
        assert diagnostic.render() == (
            f"snippet.py:1:1: mp-hygiene: {diagnostic.message}"
        )
        payload = report.as_dict()
        assert payload["schema"] == 1
        assert payload["summary"]["per_rule"]["mp-hygiene"] == 1
        assert payload["summary"]["diagnostics"] == 1
        json.dumps(payload)  # JSON-serialisable end to end

    def test_exit_codes(self):
        assert run("x = 1\n", "mp-hygiene").exit_code == 0
        assert run("import multiprocessing\n", "mp-hygiene").exit_code == 1


# ---------------------------------------------------------------------------
# Config and CLI
# ---------------------------------------------------------------------------


class TestConfigAndCli:
    def test_per_path_rule_scoping(self):
        config = project_config()
        src_rules = config.enabled_for("src/repro/core/cache.py")
        test_rules = config.enabled_for("tests/test_cache.py")
        assert "docstring-coverage" in src_rules
        assert "docstring-coverage" not in test_rules
        assert "suppression-format" in src_rules and "suppression-format" in test_rules

    def test_selected_rules_filtering(self):
        registry = frozenset({"a", "b", "c"})
        config = LintConfig(root=Path("."), select=frozenset({"a", "b"}))
        assert config.selected_rules(registry) == {"a", "b"}
        config = LintConfig(root=Path("."), ignore=frozenset({"c"}))
        assert config.selected_rules(registry) == {"a", "b"}
        with pytest.raises(ValueError, match="unknown rule"):
            LintConfig(root=Path("."), select=frozenset({"zzz"})).selected_rules(
                registry
            )

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "error-taxonomy",
            "determinism",
            "mp-hygiene",
            "docstring-coverage",
            "resource-hygiene",
            "suppression-format",
        ):
            assert rule_id in out

    def test_cli_selecting_a_removed_rule_is_a_usage_error(self, capsys):
        # njit-purity went with the kernels it policed (1.9.0).
        assert lint_main(["--select", "njit-purity"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_cli_json_on_clean_file(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text('"""Documented."""\n\nX = 1\n')
        assert lint_main(["--json", str(target)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["diagnostics"] == 0

    def test_cli_exit_codes_for_usage_errors(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "missing.py")]) == 2
        assert lint_main(["--select", "no-such-rule"]) == 2
        assert lint_main(["--select", "lock-order"]) == 2  # removed in 1.6
        assert lint_main(["--select", "pickle-contract"]) == 2
        capsys.readouterr()
