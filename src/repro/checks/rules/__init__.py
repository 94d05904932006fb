"""Rule registry: every invariant the analyzer enforces, in one list."""

from __future__ import annotations

from repro.checks.engine import Rule
from repro.checks.rules.determinism import (
    SortedIterationRule,
    UnseededRandomRule,
    WallClockRule,
)
from repro.checks.rules.hooks import HookGuardRule
from repro.checks.rules.parallel import ParentAccountingRule, PoolTaskRule
from repro.checks.rules.row_order import RowOrderRule
from repro.checks.rules.run_path import RunPathRule
from repro.checks.rules.spill_format import SpillFormatRule

__all__ = ["all_rules", "rule_ids"]


def all_rules() -> list[Rule]:
    """A fresh instance of every registered rule, in report order."""
    return [
        UnseededRandomRule(),
        WallClockRule(),
        SortedIterationRule(),
        PoolTaskRule(),
        ParentAccountingRule(),
        HookGuardRule(),
        RowOrderRule(),
        RunPathRule(),
        SpillFormatRule(),
    ]


def rule_ids() -> list[str]:
    return [rule.id for rule in all_rules()]
