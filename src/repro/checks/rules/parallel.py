"""Parallel-safety rules.

The worker-pool seam (PR 6) runs task bodies under a *spawn*-context
process pool: every task function crosses a pickle boundary.  Pickle
ships functions by qualified name, so a lambda, a closure, or a nested
def works under the serial/thread pools and then dies — or silently
diverges — under ``pool="process"``.  And because bit-identity is
guaranteed by replaying all simulator accounting on the parent in
serial order, a worker body that mutates ``MPCSimulation`` state
directly (``send_array``/``output_array``) would double-count
or order-scramble the very loads the paper's bounds are about.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.checks.engine import Finding, Module, Rule

#: MPCSimulation calls that mutate accounting state.
_SIM_MUTATORS = frozenset({"send_array", "output_array"})


def _module_level_bindings(tree: ast.Module) -> set[str]:
    """Names bound by top-level defs, imports, and assignments."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".", 1)[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    names.add(alias.asname or alias.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
        elif isinstance(node, (ast.If, ast.Try)):
            # Conditional imports / fallback defs still bind at module
            # scope; one level of nesting covers the common idiom.
            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(sub.name)
                elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                    for alias in sub.names:
                        if alias.name != "*":
                            names.add(
                                alias.asname or alias.name.split(".", 1)[0]
                            )
    return names


def _nested_defs(tree: ast.Module) -> set[str]:
    """Names of functions defined *inside* another function (closures)."""
    nested: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if sub is node:
                    continue
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested.add(sub.name)
    return nested


def _imap_calls(tree: ast.Module) -> Iterable[ast.Call]:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "imap"
            and node.args
        ):
            yield node


class PoolTaskRule(Rule):
    id = "pool-task"
    description = (
        "functions handed to pool.imap must be module-level names — "
        "no lambdas, closures, or computed callables — so they survive "
        "the spawn-context pickle boundary"
    )

    def check(self, module: Module) -> Iterable[Finding]:
        bindings = _module_level_bindings(module.tree)
        nested = _nested_defs(module.tree)
        for call in _imap_calls(module.tree):
            task = call.args[0]
            if isinstance(task, ast.Lambda):
                yield self.finding(
                    module,
                    task,
                    "lambda passed to pool.imap; lambdas cannot cross the "
                    "process-pool pickle boundary — define a module-level "
                    "task function",
                )
            elif isinstance(task, ast.Name):
                if task.id in nested and task.id not in bindings:
                    yield self.finding(
                        module,
                        task,
                        f"nested function {task.id!r} passed to pool.imap; "
                        "closures cannot cross the process-pool pickle "
                        "boundary — hoist it to module level",
                    )
                # A Name that is neither a nested def nor module-bound is
                # a parameter or local alias; assume the caller passed a
                # picklable module-level function.
            elif isinstance(task, (ast.Call, ast.Attribute)):
                yield self.finding(
                    module,
                    task,
                    "computed callable passed to pool.imap; pass a "
                    "module-level function so the reference pickles by "
                    "qualified name",
                )


def _worker_bodies(module: Module) -> Iterable[ast.FunctionDef]:
    """Module-level functions that run (or may run) inside pool workers.

    Two signals, both local to the file: the function is passed as the
    first argument to some ``pool.imap`` call, or it follows the
    ``*_task`` naming convention of ``repro.parallel.tasks`` (the
    parent-side ``server_*`` helpers keep the suffix but contain no
    mutators, so they pass the rule on their own merits).
    """
    imap_names = {
        call.args[0].id
        for call in _imap_calls(module.tree)
        if isinstance(call.args[0], ast.Name)
    }
    for node in module.tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name in imap_names or node.name.endswith("_task"):
            yield node


class ParentAccountingRule(Rule):
    id = "parent-accounting"
    description = (
        "worker task bodies must not mutate MPCSimulation accounting "
        "(send_array/output_array); the parent replays accounting in "
        "serial order to keep runs bit-identical across pools"
    )

    def check(self, module: Module) -> Iterable[Finding]:
        for body in _worker_bodies(module):
            for node in ast.walk(body):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _SIM_MUTATORS
                ):
                    yield self.finding(
                        module,
                        node,
                        f"simulation mutator .{node.func.attr}() inside "
                        f"worker task {body.name!r}; record intents and "
                        "replay accounting on the parent instead",
                    )
