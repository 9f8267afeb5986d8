"""The rule catalog: importing this package registers every rule.

Each module holds one rule class decorated with
:func:`repro.tools.lint.engine.rule`; the engine's registry is populated as
a side effect of the imports below.  Rule ids are the kebab-case module
themes — they are the stable public names used in suppressions, ``--select``
and the JSON report, so renaming one is a breaking change.
"""

from . import (  # noqa: F401  (imported for their registration side effect)
    determinism,
    docstrings,
    error_taxonomy,
    mp_hygiene,
    resource_hygiene,
    suppression_format,
)

__all__ = [
    "determinism",
    "docstrings",
    "error_taxonomy",
    "mp_hygiene",
    "resource_hygiene",
    "suppression_format",
]
