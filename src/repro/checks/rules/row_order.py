"""Row-order discipline.

Sorting, deduplicating and grouping ``(n, arity)`` rows is done by one
kernel, ``repro.data.arrays``: rows are packed into one int64 key and
ordered with the plain 1-D sort, an order of magnitude faster than
``np.lexsort``, ``argsort(kind="stable")`` or ``np.unique(axis=0)`` --
which were the three most expensive calls of the local join and the
router before they moved there.  A private copy of any of them beside
the kernel is a second, slower row order that can also drift from the
canonical one the bit-identity suites pin down.  The kernel also owns
the canonical-order invariant (sorted and distinct rows,
``is_canonical``): a relation's array is canonical, routing keeps it per
server, and ``merge_batches`` / ``stable_order`` skip the sort on input
one linear pass proves ordered -- a private sort cannot know that.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.checks.engine import Finding, Module, Rule

#: The kernel itself keeps ``lexsort`` / stable ``argsort`` as its
#: data-dependent fallbacks.
_KERNEL_SUFFIX = "repro/data/arrays.py"


def _keyword(node: ast.Call, name: str) -> object:
    """The constant passed as keyword ``name`` (None if absent or dynamic)."""
    for keyword in node.keywords:
        if keyword.arg == name and isinstance(keyword.value, ast.Constant):
            return keyword.value.value
    return None


class RowOrderRule(Rule):
    id = "row-order"
    description = (
        "np.lexsort, argsort(kind=\"stable\") and np.unique(axis=0) live "
        "only in repro.data.arrays; order rows through its packed-key kernel"
    )

    def check(self, module: Module) -> Iterable[Finding]:
        if module.posix.endswith(_KERNEL_SUFFIX):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = module.dotted(node.func)
            if dotted == "numpy.lexsort":
                use, instead = "np.lexsort", "unique_rows / encode_rows"
            elif dotted == "numpy.unique" and _keyword(node, "axis") == 0:
                use, instead = "np.unique(axis=0)", "unique_rows_with_counts"
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "argsort"
                and _keyword(node, "kind") in ("stable", "mergesort")
            ):
                use, instead = "stable argsort", "stable_order / group_order"
            else:
                continue
            yield self.finding(
                module,
                node,
                f"{use} outside the row-order kernel; use "
                f"repro.data.arrays ({instead})",
            )
