"""Command-line front end: ``python -m repro check``.

Exit status is the contract CI relies on: 0 for a clean tree, 1 when
any finding survives suppression, 2 for usage errors (unknown rule id,
missing path).
"""

from __future__ import annotations

import sys
from typing import Sequence, TextIO

from repro.checks.engine import (
    CheckResult,
    check_paths,
    render_json,
    render_text,
)
from repro.checks.rules import all_rules

DEFAULT_PATHS = ("src",)


def run_check(
    paths: Sequence[str],
    rule_filter: Sequence[str] | None = None,
) -> CheckResult:
    """Run the analyzer; raises ValueError for an unknown ``--rule``."""
    rules = all_rules()
    if rule_filter:
        known = {rule.id for rule in rules}
        unknown = sorted(set(rule_filter) - known)
        if unknown:
            raise ValueError(
                f"unknown rule(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        rules = [rule for rule in rules if rule.id in set(rule_filter)]
    return check_paths(list(paths) or list(DEFAULT_PATHS), rules)


def list_rules(stream: TextIO) -> None:
    for rule in all_rules():
        stream.write(f"{rule.id}\n    {rule.description}\n")


def main(
    argv: Sequence[str] | None = None,
    *,
    stdout: TextIO | None = None,
    stderr: TextIO | None = None,
) -> int:
    """Entry point shared by ``python -m repro check`` and tests."""
    import argparse

    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = argparse.ArgumentParser(
        prog="python -m repro check",
        description=(
            "Statically check repro source for determinism, "
            "parallel-safety, and hook-hygiene invariants."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="RULE",
        help="run only this rule id (repeatable)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable repro.checks/1 report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id with its description and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        list_rules(out)
        return 0

    try:
        result = run_check(args.paths, args.rules)
    except ValueError as exc:
        err.write(f"repro check: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        err.write(f"repro check: {exc}\n")
        return 2

    if args.json:
        out.write(render_json(result) + "\n")
    else:
        out.write(render_text(result) + "\n")
    return 0 if result.clean else 1
