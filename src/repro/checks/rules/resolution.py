"""Resolution discipline.

``repro.config`` is the single place where ``backend=`` / ``pool=`` /
``machines=`` get their defaults (env vars, registered fallbacks,
machine-spec parsing).  An entry point that hand-rolls its own default
— ``backend = backend or "numpy"`` or ``if pool is None: pool =
"serial"`` — silently diverges from ``REPRO_DEFAULT_*`` and from every
other entry point the moment the central default moves.  Resolve
through ``ExecutionSettings.resolve`` / ``resolve_backend`` /
``resolve_pool`` / ``resolve_machines`` instead.

The same discipline covers *reading* the backend: which engine runs a
round is decided once, by the round kernel
(``repro.hypercube.blocks``).  An engine, planner or session module
that compares ``backend`` / ``settings.backend`` with a string literal
re-opens a second code path beside the kernel.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.checks.engine import Finding, Module, Rule

_SETTING_NAMES = frozenset({"backend", "pool", "machines"})

#: The module that *defines* the resolvers necessarily hand-rolls the
#: defaults everyone else must route through.
_EXEMPT_SUFFIX = "repro/config.py"

#: Where a backend branch is a finding: the engines and their callers,
#: minus the kernel module that owns the decision.
_ENGINE_PATH = re.compile(
    r"repro/(?:(?:hypercube|skew|multiround|planner)/|(?:run|session)\.py$)"
)
_KERNEL_SUFFIX = "repro/hypercube/blocks.py"


def _terminal_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _compares_backend_to_literal(node: ast.Compare) -> bool:
    """``backend == "numpy"`` / ``settings.backend != "tuples"`` and kin."""
    operands = [node.left, *node.comparators]
    return any(_terminal_name(o) == "backend" for o in operands) and any(
        isinstance(o, ast.Constant) and isinstance(o.value, str)
        for o in operands
    )


class SettingsResolutionRule(Rule):
    id = "settings-resolution"
    description = (
        "backend/pool/machines defaults must come from repro.config "
        "resolvers, not hand-rolled `or`/`is None` fallbacks; only the "
        "round kernel (repro.hypercube.blocks) branches on the backend"
    )

    def check(self, module: Module) -> Iterable[Finding]:
        if module.posix.endswith(_EXEMPT_SUFFIX):
            return
        engine_code = bool(
            _ENGINE_PATH.search(module.posix)
        ) and not module.posix.endswith(_KERNEL_SUFFIX)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Compare):
                if engine_code and _compares_backend_to_literal(node):
                    yield self.finding(
                        module,
                        node,
                        f"backend branch `{ast.unparse(node)}` outside the "
                        "round kernel; build blocks and let "
                        "repro.hypercube.blocks pick the implementation",
                    )
            elif isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
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
