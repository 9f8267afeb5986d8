"""Core of the AST rule engine: diagnostics, suppressions, rules, the runner.

The engine is deliberately boring machinery so the interesting logic lives
in the rule modules (:mod:`repro.tools.lint.rules`).  It owns four things:

* :class:`Diagnostic` — one finding, with a stable rule id and a
  ``file:line:col`` anchor, renderable as text or JSON.
* :class:`SuppressionTable` — the ``# repro-lint: disable=rule-id -- reason``
  mechanism.  A suppression **must** carry a reason after `` -- ``; one
  without a reason (or naming an unknown rule) is itself a diagnostic, so
  the suppression inventory stays auditable.
* :class:`LintRule` and the rule registry — rules are classes registered by
  the :func:`rule` decorator.  A rule sees one parsed module at a time
  (:meth:`LintRule.check_module`).
* :func:`lint_paths` — file discovery, parsing, rule dispatch, suppression
  filtering, and the :class:`LintReport` the CLI turns into text/JSON and an
  exit code.

Per-path rule selection lives in :class:`repro.tools.lint.config.LintConfig`;
the engine only asks it which rules are enabled for a given file.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Diagnostic",
    "Suppression",
    "SuppressionTable",
    "ModuleContext",
    "LintRule",
    "rule",
    "all_rules",
    "LintReport",
    "lint_paths",
    "lint_source",
    "PARSE_ERROR",
    "SUPPRESSION_FORMAT",
]

#: Pseudo-rule id for files the engine cannot parse.  Not suppressible.
PARSE_ERROR = "parse-error"

#: Rule id of the suppression-comment format checks.  Not suppressible
#: (a malformed suppression cannot excuse itself).
SUPPRESSION_FORMAT = "suppression-format"

#: Rules whose diagnostics ignore ``disable=`` comments.
_UNSUPPRESSABLE = frozenset({PARSE_ERROR, SUPPRESSION_FORMAT})

_SUPPRESSION_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Za-z0-9_,\- ]+?)"
    r"(?:\s+--\s*(?P<reason>.*\S))?\s*$"
)


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable rule id anchored to ``path:line:col``."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """The one-line human-readable form (``path:line:col: rule: msg``)."""

        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def as_dict(self) -> dict:
        """JSON-ready mapping with the same fields the text form carries."""

        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def sort_key(self) -> tuple:
        """Stable ordering: by file, then position, then rule id."""

        return (self.path, self.line, self.col, self.rule)


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro-lint: disable=...`` comment.

    ``target_line`` is the line the suppression covers: the comment's own
    line for a trailing comment, or — for a comment standing alone on its
    line — the next *code* line, so a long reason may wrap onto further
    comment lines between the marker and the statement it excuses.
    """

    comment_line: int
    target_line: int
    rules: tuple[str, ...]
    reason: str | None


class SuppressionTable:
    """All suppressions of one source file, plus their format problems.

    Comments are found with :mod:`tokenize` rather than string scanning, so
    a ``repro-lint:`` marker inside a string literal never counts.
    """

    def __init__(self, rel: str, source: str, known_rules: frozenset[str]) -> None:
        self._by_line: dict[int, list[Suppression]] = {}
        self.problems: list[Diagnostic] = []
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            # The parse-error diagnostic for this file is raised elsewhere.
            return
        source_lines = source.splitlines()
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION_RE.search(token.string)
            if match is None:
                continue
            line = token.start[0]
            col = token.start[1] + 1
            rules = tuple(
                part.strip() for part in match.group("rules").split(",") if part.strip()
            )
            reason = match.group("reason")
            standalone = token.line[: token.start[1]].strip() == ""
            suppression = Suppression(
                comment_line=line,
                target_line=(
                    self._next_code_line(source_lines, line) if standalone else line
                ),
                rules=rules,
                reason=reason,
            )
            if not reason:
                self.problems.append(
                    Diagnostic(
                        SUPPRESSION_FORMAT,
                        rel,
                        line,
                        col,
                        "suppression without a reason: write "
                        "'# repro-lint: disable=<rule-id> -- <why this is safe>'",
                    )
                )
                continue  # a reasonless suppression does not suppress
            unknown = [name for name in rules if name not in known_rules]
            if unknown:
                self.problems.append(
                    Diagnostic(
                        SUPPRESSION_FORMAT,
                        rel,
                        line,
                        col,
                        f"suppression names unknown rule(s) {', '.join(unknown)}; "
                        "run with --list-rules for the catalog",
                    )
                )
                continue
            self._by_line.setdefault(suppression.target_line, []).append(suppression)

    @staticmethod
    def _next_code_line(source_lines: list[str], comment_line: int) -> int:
        """First line after *comment_line* that is not blank/comment-only."""

        for offset, text in enumerate(source_lines[comment_line:], start=1):
            stripped = text.strip()
            if stripped and not stripped.startswith("#"):
                return comment_line + offset
        return comment_line + 1

    def covers(self, line: int, rule_id: str) -> bool:
        """Whether a valid suppression on *line* disables *rule_id*."""

        return any(
            rule_id in suppression.rules
            for suppression in self._by_line.get(line, ())
        )

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._by_line.values())


class ModuleContext:
    """One parsed source file as the rules see it.

    Attributes
    ----------
    path:
        Absolute filesystem path.
    rel:
        Repository-relative POSIX path — the stable name diagnostics carry.
    source / tree:
        Raw text and the parsed :class:`ast.Module`.
    enabled:
        Rule ids active for this file under the per-path configuration.
    options:
        Per-rule option mappings from the config (``options.get(rule_id)``).
    """

    def __init__(
        self,
        path: Path,
        rel: str,
        source: str,
        tree: ast.Module,
        enabled: frozenset[str],
        options: dict[str, dict],
        known_rules: frozenset[str],
    ) -> None:
        self.path = path
        self.rel = rel
        self.source = source
        self.tree = tree
        self.enabled = enabled
        self.options = options
        self.suppressions = SuppressionTable(rel, source, known_rules)
        self._imports: dict[str, str] | None = None

    def option(self, rule_id: str, key: str, default):
        """One per-rule configuration knob (``default`` when unset)."""

        return self.options.get(rule_id, {}).get(key, default)

    @property
    def imports(self) -> dict[str, str]:
        """Top-level import aliases: local name -> dotted module/object path.

        ``import numpy as np`` maps ``np -> numpy``; ``from multiprocessing
        import connection`` maps ``connection ->
        multiprocessing.connection``.  Function-local imports are included
        too (rules care about what a name means, not where it was bound).
        """

        if self._imports is None:
            table: dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        table[alias.asname or alias.name.split(".")[0]] = alias.name
                elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                    for alias in node.names:
                        table[alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}"
                        )
            self._imports = table
        return self._imports

    def diagnostic(
        self, rule_id: str, node: ast.AST, message: str
    ) -> Diagnostic:
        """Build a diagnostic anchored at *node* in this module."""

        return Diagnostic(
            rule_id,
            self.rel,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1,
            message,
        )


class LintRule:
    """Base class of every rule; subclasses register with :func:`rule`.

    A rule defines a stable kebab-case ``id`` (the suppression token and the
    JSON key), a one-line ``summary`` for ``--list-rules``, and overrides
    :meth:`check_module`, called once per enabled file to return (or yield)
    diagnostics for that file alone.
    """

    id: str = ""
    summary: str = ""

    def check_module(self, ctx: ModuleContext):
        """Per-file check; the default finds nothing."""

        return ()


_RULES: dict[str, type[LintRule]] = {}


def rule(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator adding a :class:`LintRule` subclass to the registry."""

    if not cls.id:
        raise ValueError(f"rule class {cls.__name__} has no id")
    if cls.id in _RULES:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    _RULES[cls.id] = cls
    return cls


def all_rules() -> dict[str, type[LintRule]]:
    """The registry: rule id -> rule class (import-time populated)."""

    from . import rules as _rules  # noqa: F401  (registers on import)

    return dict(_RULES)


@dataclass
class LintReport:
    """Everything one lint run produced, ready for text/JSON rendering."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    suppressed: list[Diagnostic] = field(default_factory=list)
    files_checked: int = 0
    rules_active: tuple[str, ...] = ()

    @property
    def exit_code(self) -> int:
        """``0`` when clean, ``1`` when any non-suppressed diagnostic exists."""

        return 1 if self.diagnostics else 0

    def per_rule_counts(self) -> dict[str, int]:
        """Surviving diagnostic count per rule id (zero-count rules included)."""

        counts = {rule_id: 0 for rule_id in self.rules_active}
        for diagnostic in self.diagnostics:
            counts[diagnostic.rule] = counts.get(diagnostic.rule, 0) + 1
        return counts

    def as_dict(self) -> dict:
        """JSON document for ``--json`` and the CI artifact."""

        return {
            "schema": 1,
            "rules_active": list(self.rules_active),
            "files_checked": self.files_checked,
            "diagnostics": [d.as_dict() for d in self.diagnostics],
            "suppressed": [d.as_dict() for d in self.suppressed],
            "summary": {
                "diagnostics": len(self.diagnostics),
                "suppressed": len(self.suppressed),
                "per_rule": self.per_rule_counts(),
            },
        }


def _discover(paths: list[Path], config) -> list[tuple[Path, str]]:
    """Expand *paths* to ``(abs_path, rel_posix)`` pairs of lintable files."""

    files: dict[str, Path] = {}
    for path in paths:
        if path.is_file():
            candidates = [path]
        else:
            candidates = sorted(path.rglob("*.py"))
        for candidate in candidates:
            if candidate.suffix != ".py":
                continue
            rel = config.relative(candidate)
            if config.excluded(rel):
                continue
            files[rel] = candidate
    return [(files[rel], rel) for rel in sorted(files)]


def _lint(sources, registry, selected: frozenset[str], options) -> LintReport:
    """Check ``(path, rel, source, enabled rule ids)`` tuples with *selected*.

    The one runner behind :func:`lint_paths` and :func:`lint_source`: parse,
    run each enabled rule's :meth:`~LintRule.check_module`, and split the
    findings into surviving and suppressed diagnostics.
    """

    known = frozenset(registry) | _UNSUPPRESSABLE
    checkers = {rule_id: registry[rule_id]() for rule_id in sorted(selected)}
    kept: list[Diagnostic] = []
    suppressed: list[Diagnostic] = []
    files_checked = 0
    for path, rel, source, enabled in sources:
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            kept.append(
                Diagnostic(
                    PARSE_ERROR,
                    rel,
                    exc.lineno or 1,
                    (exc.offset or 0) + 1,
                    f"cannot parse: {exc.msg}",
                )
            )
            continue
        files_checked += 1
        ctx = ModuleContext(
            path, rel, source, tree, enabled & selected, options, known
        )
        found = list(ctx.suppressions.problems)
        for rule_id, checker in checkers.items():
            if rule_id in ctx.enabled:
                found.extend(checker.check_module(ctx))
        for diagnostic in found:
            if diagnostic.rule not in _UNSUPPRESSABLE and ctx.suppressions.covers(
                diagnostic.line, diagnostic.rule
            ):
                suppressed.append(diagnostic)
            else:
                kept.append(diagnostic)
    return LintReport(
        diagnostics=sorted(kept, key=Diagnostic.sort_key),
        suppressed=sorted(suppressed, key=Diagnostic.sort_key),
        files_checked=files_checked,
        rules_active=tuple(sorted(selected)),
    )


def lint_paths(paths: list[Path], config) -> LintReport:
    """Lint every Python file under *paths* according to *config*."""

    registry = all_rules()
    sources = (
        (path, rel, path.read_text(encoding="utf-8"), config.enabled_for(rel))
        for path, rel in _discover(paths, config)
    )
    selected = config.selected_rules(frozenset(registry))
    return _lint(sources, registry, selected, config.options)


def lint_source(
    source: str,
    *,
    rel: str = "snippet.py",
    rules: tuple[str, ...] | None = None,
    options: dict[str, dict] | None = None,
) -> LintReport:
    """Lint one in-memory source string (the unit-test entry point).

    *rules* restricts the run to the named rule ids (default: all).
    Suppression comments in *source* behave exactly as they do on disk.
    """

    registry = all_rules()
    selected = frozenset(rules) if rules is not None else frozenset(registry)
    unknown = selected - frozenset(registry)
    if unknown:
        raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
    sources = [(Path(rel), rel, source, selected)]
    return _lint(sources, registry, selected, options or {})
