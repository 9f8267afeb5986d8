"""Project-native static analysis: the ``repro`` contract linter.

Seven PRs of growth piled up contracts that only fail at runtime — often
only under fault injection: typed :mod:`repro.errors` exceptions at the
public surface, raw multiprocessing confined to the pool modules, released
resources, seeded RNG everywhere.
This package machine-checks them, one file at a time, with a self-contained
stdlib-:mod:`ast` rule engine (the container cannot install third-party
linters, the same constraint that shaped the docs builder).

Usage::

    python -m repro.tools.lint                 # lint the repository
    python -m repro.tools.lint --json          # machine-readable report
    python -m repro.tools.lint src/repro/core  # specific paths
    python -m repro.tools.lint --list-rules    # the rule catalog

Exit codes: 0 clean, 1 diagnostics found, 2 usage error.  Per-line
suppressions require a reason::

    except Exception:  # repro-lint: disable=error-taxonomy -- worker boundary:
                       # the exception is shipped to the parent and re-raised

See ``docs/static_analysis.md`` for the full rule catalog and rationale.
"""

from .config import LintConfig, project_config
from .engine import (
    Diagnostic,
    LintReport,
    LintRule,
    all_rules,
    lint_paths,
    lint_source,
    rule,
)

__all__ = [
    "Diagnostic",
    "LintConfig",
    "LintReport",
    "LintRule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "project_config",
    "rule",
]
