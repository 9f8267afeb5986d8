"""Tier-1 gate: the repository lints clean under its own rule engine.

This is the self-hosting check the CI ``lint`` job enforces: every rule in
the catalog active, zero non-suppressed diagnostics, and every suppression
in the tree carrying a reason.  A failure here means a commit introduced a
contract violation (or an unreasoned suppression) somewhere in the linted
scope.
"""

from __future__ import annotations

import pytest

from repro.tools.lint import all_rules, lint_paths
from repro.tools.lint.config import project_config


@pytest.fixture(scope="module")
def report():
    """One lint run over the whole tree, shared by every check below."""

    config = project_config()
    return lint_paths(config.default_paths(), config)


def test_repository_lints_clean(report):
    rendered = "\n".join(d.render() for d in report.diagnostics[:25])
    assert report.exit_code == 0, f"repository must lint clean:\n{rendered}"
    assert report.files_checked > 100  # the walk really covered the tree


def test_rule_catalog_is_exactly_the_six_rules(report):
    assert set(report.rules_active) == set(all_rules()) == {
        "determinism",
        "docstring-coverage",
        "error-taxonomy",
        "mp-hygiene",
        "resource-hygiene",
        "suppression-format",
    }


def test_every_suppression_in_tree_is_reasoned(report):
    # The engine drops reasonless suppressions and flags them, so a clean
    # report plus non-empty suppressed list proves each carries a reason.
    assert all(d.rule != "suppression-format" for d in report.diagnostics)
    assert len(report.suppressed) >= 1  # the sanctioned swallows in procpool
