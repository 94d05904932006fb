"""Run-path discipline.

``Session.run`` / ``Session.run_many`` are the public run verbs; below
them a :class:`~repro.planner.strategies.Strategy` hands its executor
core (``Strategy.core``) to ``repro.run.dispatch_run``.  A package
module that calls ``dispatch_run`` itself is a free run wrapper beside
the session: a second entry point that skips the statistics, the budget
rule and the prediction the session attaches, and so drifts from it.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.checks.engine import Finding, Module, Rule

#: Modules of the package itself; tests, the bench and examples may
#: drive executor cores directly.
_PACKAGE_PATH = re.compile(r"(?:^|/)repro/(?!(?:tests|bench|examples)/)")

#: The strategy registry is the one caller.
_REGISTRY_SUFFIX = "repro/planner/strategies.py"


class RunPathRule(Rule):
    id = "run-path"
    description = (
        "only repro/planner/strategies.py calls dispatch_run; run queries "
        "through Session.run / run_many, not free wrappers"
    )

    def check(self, module: Module) -> Iterable[Finding]:
        if module.posix.endswith(_REGISTRY_SUFFIX):
            return
        if not _PACKAGE_PATH.search(module.posix):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = module.dotted(node.func)
            if dotted is None or dotted.rsplit(".", 1)[-1] != "dispatch_run":
                continue
            yield self.finding(
                module,
                node,
                "dispatch_run called outside the strategy registry; run "
                "through Session.run / run_many (or Strategy.run)",
            )
