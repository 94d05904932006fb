"""Resolution discipline.

``repro.config`` is the single place where ``pool=`` / ``machines=``
get their defaults (the ``REPRO_DEFAULT_*`` environment variables,
machine-spec parsing).  An entry point that hand-rolls its own default
— ``machines = machines or "4x1"`` or ``if pool is None: pool =
"serial"`` — silently diverges from ``REPRO_DEFAULT_*`` and from every
other entry point the moment the central default moves.  Resolve
through ``ExecutionSettings.resolve`` / ``resolve_pool`` /
``resolve_machines`` instead.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.checks.engine import Finding, Module, Rule

_SETTING_NAMES = frozenset({"pool", "machines"})

#: The module that *defines* the resolvers necessarily hand-rolls the
#: defaults everyone else must route through.
_EXEMPT_SUFFIX = "repro/config.py"


def _terminal_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class SettingsResolutionRule(Rule):
    id = "settings-resolution"
    description = (
        "pool/machines defaults must come from repro.config resolvers, "
        "not hand-rolled `or`/`is None` fallbacks"
    )

    def check(self, module: Module) -> Iterable[Finding]:
        if module.posix.endswith(_EXEMPT_SUFFIX):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
                name = _terminal_name(node.values[0])
                if name not in _SETTING_NAMES:
                    continue
                fallback = any(
                    isinstance(value, ast.Constant) and value.value is not None
                    for value in node.values[1:]
                )
                if not fallback:
                    continue
                # Purely presentational uses (f-strings building labels)
                # never feed execution; skip them.
                if module.inside(node, (ast.JoinedStr,)):
                    continue
                yield self.finding(
                    module,
                    node,
                    f"hand-rolled default `{ast.unparse(node)}`; resolve "
                    f"{name} through repro.config (ExecutionSettings."
                    "resolve / resolve_*) so env-var and registry "
                    "defaults apply",
                )
            elif isinstance(node, ast.If):
                finding = self._none_branch_default(module, node)
                if finding is not None:
                    yield finding

    def _none_branch_default(
        self, module: Module, node: ast.If
    ) -> Finding | None:
        """``if X is None: X = <constant>`` for a settings name."""
        test = node.test
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            return None
        name = _terminal_name(test.left)
        if name not in _SETTING_NAMES:
            return None
        subject = ast.unparse(test.left)
        for stmt in node.body:
            if not isinstance(stmt, ast.Assign):
                continue
            if not any(
                isinstance(t, (ast.Name, ast.Attribute))
                and ast.unparse(t) == subject
                for t in stmt.targets
            ):
                continue
            if (
                isinstance(stmt.value, ast.Constant)
                and stmt.value.value is not None
            ):
                return self.finding(
                    module,
                    stmt,
                    f"hand-rolled default `{subject} = "
                    f"{ast.unparse(stmt.value)}` under `is None`; resolve "
                    f"{name} through repro.config instead",
                )
        return None
