"""mp-hygiene: raw multiprocessing primitives stay in the process pool.

The process tier's correctness depends on every process being owned by
:class:`repro.core.procpool.ProcessPool`, which owns the spawn/teardown
discipline (bounded joins, crash detection, fault arming).  A stray
``multiprocessing.Process`` elsewhere bypasses all of it: no crash
detection, no chaos gating, zombies on interpreter exit — and the
package's shared-memory submodule would bring back segments (and the
``resource_tracker`` helper process) that nothing in ``src/`` creates any
more.  This rule flags any ``import multiprocessing`` (or submodule)
outside the allow-listed file.
"""

from __future__ import annotations

import ast

from ..engine import LintRule, ModuleContext, rule

__all__ = ["MpHygieneRule"]


@rule
class MpHygieneRule(LintRule):
    """Flag multiprocessing imports outside the sanctioned pool module."""

    id = "mp-hygiene"
    summary = "raw multiprocessing primitives only in core/procpool.py"

    def check_module(self, ctx: ModuleContext):
        """Flag multiprocessing imports outside the sanctioned module."""

        allowed = ctx.option(self.id, "allowed_files", ())
        if ctx.rel in allowed:
            return
        for node in ast.walk(ctx.tree):
            module = None
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "multiprocessing":
                        module = alias.name
                        break
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[0] == "multiprocessing":
                    module = node.module
            if module is not None:
                yield ctx.diagnostic(
                    self.id,
                    node,
                    f"import of {module!r} outside core/procpool.py; route "
                    "process work through repro.core.procpool.ProcessPool "
                    "(rank-to-rank bytes: repro.distributed.process_comm)",
                )
