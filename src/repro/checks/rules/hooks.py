"""Observability-hook hygiene.

``active_recorder()`` is a contextvar lookup that returns ``None``
when no recorder is installed — which is the default.  It is the only
instrumentation hook: metrics are a fold over the recorded trace.  The
discipline is: fetch the hook *once* per operation into a local (or
instance attribute), guard that binding with a single ``is not None``
(or truthiness) check, and never re-fetch inside per-tuple loops where
the contextvar lookup becomes measurable overhead.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.checks.engine import Finding, Module, Rule

_HOOKS = ("active_recorder",)


def _hook_name(module: Module, call: ast.Call) -> str | None:
    dotted = module.dotted(call.func)
    if dotted is None:
        return None
    leaf = dotted.rsplit(".", 1)[-1]
    return leaf if leaf in _HOOKS else None


def _guard_texts(module: Module) -> set[str]:
    """Unparse-texts of every expression used as a None/truthiness guard."""
    texts: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Compare):
            if any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops) and any(
                isinstance(cmp, ast.Constant) and cmp.value is None
                for cmp in node.comparators
            ):
                texts.add(ast.unparse(node.left))
        elif isinstance(node, (ast.If, ast.IfExp, ast.While)):
            test = node.test
            if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
                test = test.operand
            if isinstance(test, (ast.Name, ast.Attribute)):
                texts.add(ast.unparse(test))
        elif isinstance(node, ast.BoolOp):
            for value in node.values:
                if isinstance(value, (ast.Name, ast.Attribute)):
                    texts.add(ast.unparse(value))
    return texts


class HookGuardRule(Rule):
    id = "hook-guard"
    description = (
        "active_recorder() must be fetched once into a "
        "None-guarded binding, never used inline or re-fetched in loops"
    )

    def check(self, module: Module) -> Iterable[Finding]:
        guards: set[str] | None = None  # built lazily, only if hooks appear
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            hook = _hook_name(module, node)
            if hook is None:
                continue
            if module.in_loop(node):
                yield self.finding(
                    module,
                    node,
                    f"{hook}() fetched inside a loop; hoist the lookup "
                    "out of the hot path and reuse the binding",
                )
                continue
            statement = module.statement_of(node)
            target: ast.expr | None = None
            if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                target = statement.targets[0]
            elif isinstance(statement, ast.AnnAssign):
                target = statement.target
            if not isinstance(target, (ast.Name, ast.Attribute)):
                yield self.finding(
                    module,
                    node,
                    f"{hook}() used without binding the result; assign it "
                    "to a local and guard with `is not None`",
                )
                continue
            if guards is None:
                guards = _guard_texts(module)
            if ast.unparse(target) not in guards:
                yield self.finding(
                    module,
                    node,
                    f"{hook}() result {ast.unparse(target)!r} is never "
                    "None-checked; hooks return None when telemetry is "
                    "off (the default)",
                )
