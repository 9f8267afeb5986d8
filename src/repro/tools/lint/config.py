"""Lint configuration: which files are walked and which rules apply where.

The project configuration is code, not a config file: the container that
builds this repository has no TOML/YAML parser guaranteed beyond the stdlib
(Python 3.10 lacks :mod:`tomllib`), and a typed dataclass is easier to test
than a parsed document.  :func:`project_config` returns the committed
repository policy; tests build their own :class:`LintConfig` instances for
isolated runs.

Path patterns are :mod:`fnmatch` globs against repository-relative POSIX
paths, and ``*`` matches across ``/`` (fnmatch semantics) — so
``src/repro/*`` covers the whole package tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

__all__ = ["LintConfig", "project_config", "repo_root"]


def repo_root() -> Path:
    """The repository root, located from this file's position in ``src/``."""

    return Path(__file__).resolve().parents[4]


#: Directories/files the default (no-argument) run walks.
DEFAULT_INCLUDE = (
    "src/repro",
    "benchmarks",
    "examples",
    "tests",
    "docs/build_docs.py",
    "setup.py",
)

#: Never linted: the built site is generated output.
DEFAULT_EXCLUDE = ("docs/_site/*",)

#: Per-rule path scopes.  A rule absent from this mapping applies to every
#: linted file.
DEFAULT_RULE_PATHS: dict[str, tuple[str, ...]] = {
    # Library-quality contracts apply to the shipped package only: tests
    # may monkeypatch, raise builtins and skip docstrings by design, and
    # benchmarks legitimately use wall-clock time.
    "docstring-coverage": ("src/repro/*",),
    "error-taxonomy": ("src/repro/*",),
    "mp-hygiene": ("src/repro/*",),
    "determinism": ("src/repro/*", "examples/*", "tests/*"),
    "resource-hygiene": ("src/repro/*", "benchmarks/*", "examples/*", "docs/*"),
}

#: Per-rule option mappings (rule id -> knobs the rule reads).
DEFAULT_OPTIONS: dict[str, dict] = {
    "mp-hygiene": {
        # The only module allowed to touch raw multiprocessing primitives;
        # everything else goes through ProcessPool.
        "allowed_files": ("src/repro/core/procpool.py",),
    },
    "error-taxonomy": {
        # Builtin types that must not be raised from public repro modules:
        # these signal *execution-tier failures* and belong to repro.errors.
        # ValueError/TypeError/KeyError stay allowed — they express caller
        # contract violations, the standard-library idiom.
        "forbidden_raises": (
            "RuntimeError",
            "Exception",
            "BaseException",
            "OSError",
            "IOError",
            "EnvironmentError",
            "SystemError",
        ),
    },
}


@dataclass(frozen=True)
class LintConfig:
    """One lint run's policy: file scope, per-path rule selection, options.

    Parameters
    ----------
    root:
        Repository root all relative paths/patterns are resolved against.
    include:
        Paths (relative to *root*) walked when the CLI gets no arguments.
    exclude:
        fnmatch patterns of files never linted, even when named explicitly.
    rule_paths:
        Rule id -> patterns the rule is restricted to; unlisted rules apply
        everywhere.
    options:
        Rule id -> option mapping handed to the rule via
        :meth:`~repro.tools.lint.engine.ModuleContext.option`.
    select / ignore:
        CLI-level rule filters: when *select* is non-empty only those rules
        run; *ignore* removes rules from whatever is selected.
    """

    root: Path
    include: tuple[str, ...] = DEFAULT_INCLUDE
    exclude: tuple[str, ...] = DEFAULT_EXCLUDE
    rule_paths: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_RULE_PATHS)
    )
    options: dict[str, dict] = field(default_factory=lambda: dict(DEFAULT_OPTIONS))
    select: frozenset[str] = frozenset()
    ignore: frozenset[str] = frozenset()

    def default_paths(self) -> list[Path]:
        """Absolute paths of the default walk (existing entries only)."""

        return [
            self.root / entry for entry in self.include if (self.root / entry).exists()
        ]

    def relative(self, path: Path) -> str:
        """Repository-relative POSIX form of *path* (as-given if outside)."""

        try:
            return path.resolve().relative_to(self.root).as_posix()
        except ValueError:
            return path.as_posix()

    def excluded(self, rel: str) -> bool:
        """Whether a repository-relative path is excluded from linting."""

        return any(fnmatch(rel, pattern) for pattern in self.exclude)

    def enabled_for(self, rel: str) -> frozenset[str]:
        """Rule ids enabled for one file under the per-path scoping."""

        from .engine import all_rules

        enabled = set()
        for rule_id in all_rules():
            patterns = self.rule_paths.get(rule_id)
            if patterns is None or any(fnmatch(rel, p) for p in patterns):
                enabled.add(rule_id)
        return frozenset(enabled)

    def selected_rules(self, registry: frozenset[str]) -> frozenset[str]:
        """Apply the CLI ``--select`` / ``--ignore`` filters to the registry."""

        unknown = (self.select | self.ignore) - registry
        if unknown:
            raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
        chosen = self.select if self.select else registry
        return frozenset(chosen) - self.ignore


def project_config(
    select: frozenset[str] = frozenset(), ignore: frozenset[str] = frozenset()
) -> LintConfig:
    """The committed repository policy (what CI and the self-lint gate run)."""

    return LintConfig(root=repo_root(), select=select, ignore=ignore)
