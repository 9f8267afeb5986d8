"""resource-hygiene: sockets and file handles cannot leak.

A leaked socket or file handle is a descriptor: the ranked tier opens one
socket pair per rank-neighbour pair per simulator, and a long
:mod:`repro.serve` session (or a fault-injection chaos run) that loses one
per build ends in ``EMFILE``.  The codebase's discipline:

* every ``socket.socketpair()`` / ``socket.socket(...)`` created is either
  **owned** — assigned to ``self.<attr>`` in a class that defines
  ``close()`` or ``__exit__`` — or **transferred** (directly returned), or
  created under a ``try/finally`` that closes it
  (:func:`repro.distributed.process_comm.rank_links`);
* every ``open(...)`` is a ``with`` context manager;
* every asyncio task is **held**: a ``create_task(...)`` /
  ``ensure_future(...)`` whose return value is discarded is a lost task —
  the event loop keeps only a weak reference, so the task can be
  garbage-collected mid-flight and its exception is silently dropped
  (:mod:`repro.serve` stores its workers precisely to keep its
  zero-leaked-tasks close contract checkable).  ``TaskGroup`` receivers
  (``tg`` / ``group`` / ``task_group``) own their tasks and are exempt.

This rule enforces exactly that, statically.
"""

from __future__ import annotations

import ast

from ..engine import LintRule, ModuleContext, rule

__all__ = ["ResourceHygieneRule"]


def _call_name(node: ast.Call) -> str | None:
    """Last attribute/name segment of the called expression."""

    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


#: Spawning call names whose return value must not be discarded.
_TASK_SPAWNERS = frozenset({"create_task", "ensure_future"})

#: Receiver names that look like an ``asyncio.TaskGroup`` — groups keep a
#: strong reference to (and await) every task they spawn, so a discarded
#: ``tg.create_task(...)`` is not lost.
_TASKGROUP_RECEIVERS = frozenset({"tg", "group", "task_group", "taskgroup"})


def _is_lost_task_call(node: ast.Call) -> bool:
    """Whether *node* spawns an asyncio task outside a TaskGroup."""

    if _call_name(node) not in _TASK_SPAWNERS:
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id in _TASKGROUP_RECEIVERS:
            return False
    return True


class _FunctionScanner(ast.NodeVisitor):
    """Collect resource-creation sites within one function (or module) body."""

    def __init__(self) -> None:
        self.open_calls: list[ast.Call] = []
        self.socket_calls: list[ast.Call] = []
        self.lost_task_calls: list[ast.Call] = []
        self.with_items: set[int] = set()
        self.returned: set[int] = set()
        self.self_assigned: set[int] = set()
        self.has_finally_close = False

    def visit_Expr(self, node: ast.Expr) -> None:
        # A task-spawning call as a bare expression statement discards the
        # only strong reference to the task.  ``await create_task(...)``
        # wraps the call in ast.Await and is therefore not a bare Call here.
        if isinstance(node.value, ast.Call) and _is_lost_task_call(node.value):
            self.lost_task_calls.append(node.value)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                self.with_items.add(id(expr))
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if isinstance(node.value, ast.Call):
            self.returned.add(id(node.value))
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Call):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    self.self_assigned.add(id(node.value))
        self.generic_visit(node)

    def visit_Try(self, node: ast.Try) -> None:
        if node.finalbody:
            for final_node in ast.walk(ast.Module(body=node.finalbody, type_ignores=[])):
                if (
                    isinstance(final_node, ast.Call)
                    and _call_name(final_node) in ("close", "unlink", "cleanup")
                ):
                    self.has_finally_close = True
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name == "open" and isinstance(node.func, ast.Name):
            self.open_calls.append(node)
        elif name == "socketpair" or (
            name == "socket" and ast.unparse(node.func) == "socket.socket"
        ):
            self.socket_calls.append(node)
        self.generic_visit(node)

    # Nested defs get their own scanner pass; do not double-visit.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def _class_has_teardown(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and member.name in ("close", "__exit__", "__del__")
        for member in cls.body
    )


@rule
class ResourceHygieneRule(LintRule):
    """Flag socket/file handles and asyncio tasks that can leak."""

    id = "resource-hygiene"
    summary = (
        "socket/open() handles closed via with, finally, or owner "
        "close(); asyncio tasks stored, not spawned-and-discarded"
    )

    def check_module(self, ctx: ModuleContext):
        """Flag open()/socket acquisitions with no deterministic release."""

        yield from self._scan_scope(ctx, ctx.tree.body, enclosing_class=None)

    def _scan_scope(self, ctx: ModuleContext, body, enclosing_class):
        scanner = _FunctionScanner()
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            scanner.visit(stmt)
        yield from self._report(ctx, scanner, enclosing_class)
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                yield from self._scan_scope(ctx, stmt.body, enclosing_class=stmt)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn_scanner = _FunctionScanner()
                for inner in stmt.body:
                    fn_scanner.visit(inner)
                yield from self._report(ctx, fn_scanner, enclosing_class)
                # One level of nested defs is enough for this codebase; a
                # deeper nest re-enters here through the recursion below.
                yield from self._scan_scope(
                    ctx,
                    [n for n in stmt.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))],
                    enclosing_class,
                )

    def _report(self, ctx: ModuleContext, scanner: _FunctionScanner, enclosing_class):
        owner_ok = enclosing_class is not None and _class_has_teardown(enclosing_class)
        for call in scanner.open_calls:
            if id(call) in scanner.with_items:
                continue
            if id(call) in scanner.returned:
                continue
            if scanner.has_finally_close:
                continue
            if id(call) in scanner.self_assigned and owner_ok:
                continue
            yield ctx.diagnostic(
                self.id,
                call,
                "open() outside a 'with' block leaks the handle on any "
                "exception; use 'with open(...) as f:' (or close in a "
                "finally)",
            )
        for call in scanner.socket_calls:
            if id(call) in scanner.returned:
                continue  # ownership transferred to the caller
            if scanner.has_finally_close:
                continue
            if id(call) in scanner.self_assigned and owner_ok:
                continue
            yield ctx.diagnostic(
                self.id,
                call,
                "socket with no reachable close: assign it to "
                "self in a class defining close()/__exit__, close it in a "
                "finally, or return it to a caller that does",
            )
        for call in scanner.lost_task_calls:
            yield ctx.diagnostic(
                self.id,
                call,
                "asyncio task spawned and discarded: the loop holds only a "
                "weak reference, so the task can be garbage-collected "
                "mid-flight and its exception silently dropped; store the "
                "returned task (and await or cancel it at teardown) or "
                "spawn it through an asyncio.TaskGroup",
            )
