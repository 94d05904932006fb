"""Determinism rules.

The repo's load guarantees only mean anything if runs are bit-identical
across pool × worker count × storage × machine spec (see
PAPER.md / ROADMAP.md).  Three source-level habits break that:

- drawing from a *global* or entropy-seeded random state
  (``random.shuffle``, ``np.random.rand``, ``default_rng()`` or a bit
  generator such as ``MT19937()`` with no seed) instead of a seeded
  generator derived from the run's seed;
- reading the wall clock in engine code, where the value flows into
  results or ordering (timing/metrics modules are the sanctioned
  homes for clocks);
- iterating a set (or union/intersection of sets) without ``sorted``,
  so routing and accounting order depend on hash randomization — the
  exact shape of the PR 3 fragment-routing bug and the PR 5
  canonical-order sweep.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.checks.engine import Finding, Module, Rule

#: ``random.<fn>`` calls that read or mutate the module-global state.
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "uniform", "randint", "randrange", "choice", "choices",
    "sample", "shuffle", "seed", "getrandbits", "gauss", "normalvariate",
    "betavariate", "expovariate", "triangular", "vonmisesvariate",
    "paretovariate", "weibullvariate", "lognormvariate", "randbytes",
})

#: ``numpy.random.<fn>`` legacy calls backed by the global RandomState.
_GLOBAL_NP_RANDOM_FNS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "seed", "shuffle", "permutation", "choice", "uniform",
    "normal", "standard_normal", "binomial", "poisson", "exponential",
    "beta", "gamma", "zipf", "bytes", "get_state", "set_state",
})

#: ``numpy.random`` constructors that draw OS entropy when called bare.
_NP_ENTROPY_SEEDED = frozenset({
    "default_rng", "SeedSequence",
    "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64",
})

#: Wall-clock reads.  ``time.sleep`` is deliberately absent — it delays
#: but does not produce a value that can flow into results.
_CLOCK_FNS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Modules whose whole business is timekeeping; clocks are fine there.
_CLOCK_EXEMPT_FRAGMENTS = ("repro/mpc/timing", "repro/metrics/")


class UnseededRandomRule(Rule):
    id = "unseeded-random"
    description = (
        "random draws must come from an explicitly seeded generator, "
        "never the module-global random/np.random state"
    )

    def check(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = module.dotted(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if (
                len(parts) == 2
                and parts[0] == "random"
                and parts[1] in _GLOBAL_RANDOM_FNS
            ):
                yield self.finding(
                    module,
                    node,
                    f"call to global-state random.{parts[1]}(); draw from "
                    "a seeded random.Random(seed) instead",
                )
            elif (
                len(parts) == 3
                and parts[0] == "numpy"
                and parts[1] == "random"
                and parts[2] in _GLOBAL_NP_RANDOM_FNS
            ):
                yield self.finding(
                    module,
                    node,
                    f"call to global-state numpy.random.{parts[2]}(); use "
                    "a numpy.random.Generator seeded from the run's seed",
                )
            elif (
                len(parts) == 3
                and parts[:2] == ["numpy", "random"]
                and parts[2] in _NP_ENTROPY_SEEDED
                and not (node.args or node.keywords)
            ):
                yield self.finding(
                    module,
                    node,
                    f"{parts[2]}() without a seed draws OS entropy; pass "
                    "a seed derived from the run's seed",
                )
            elif dotted == "random.Random" and not (node.args or node.keywords):
                yield self.finding(
                    module,
                    node,
                    "random.Random() without a seed draws OS entropy; pass "
                    "a seed derived from the run's seed",
                )


class WallClockRule(Rule):
    id = "wall-clock"
    description = (
        "wall-clock reads belong in timing/metrics modules; elsewhere "
        "they leak host state into results"
    )

    def check(self, module: Module) -> Iterable[Finding]:
        if any(frag in module.posix for frag in _CLOCK_EXEMPT_FRAGMENTS):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = module.dotted(node.func)
            if dotted in _CLOCK_FNS:
                yield self.finding(
                    module,
                    node,
                    f"wall-clock read {dotted}() outside timing/metrics "
                    "modules; route timing through repro.mpc.timing or "
                    "suppress with a justification",
                )


def _is_setish(node: ast.expr) -> bool:
    """Is this expression syntactically guaranteed to be a set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_setish(node.left) or _is_setish(node.right)
    if isinstance(node, ast.IfExp):
        return _is_setish(node.body) or _is_setish(node.orelse)
    return False


def _iter_targets(module: Module) -> Iterator[tuple[ast.AST, ast.expr]]:
    """(anchor node, iterated expression) pairs the rule inspects."""
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node, node.iter
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for gen in node.generators:
                yield node, gen.iter
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("list", "tuple", "enumerate") and node.args:
                yield node, node.args[0]


class SortedIterationRule(Rule):
    id = "sorted-iteration"
    description = (
        "iteration order over sets is hash-randomized; wrap in sorted() "
        "before it can flow into routing or accounting"
    )

    def check(self, module: Module) -> Iterable[Finding]:
        # A set expression consumed by sorted(...) never reaches this
        # loop: the iterated expression is then the sorted() call, which
        # is not set-ish.  list()/tuple()/enumerate() preserve set order
        # and are flagged like a bare for-loop.
        for anchor, iterated in _iter_targets(module):
            if not _is_setish(iterated):
                continue
            yield self.finding(
                module,
                anchor,
                "iteration over a set expression without sorted(); order "
                "is hash-randomized and must not reach routing/accounting",
            )
