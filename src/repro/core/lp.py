"""A small typed, memoized wrapper around ``scipy.optimize.linprog``.

All linear programs in the paper (edge packings, vertex covers, the
share-exponent programs (10) and (18)) are tiny -- tens of variables --
so we always use the exact-ish HiGHS solver and post-process solutions
into plain Python floats.

Planning solves the same few programs over and over: LP (10) and LP (18)
for every share candidate, a share and an AGM cover LP per operator of
every multi-round candidate plan, and again for every run on equal
statistics.  A solve costs milliseconds, almost all of it in scipy's
Python wrapper, so :func:`solve_lp` solves each distinct program once:

* **Key.**  The exact input content -- ``cost``, ``a_ub``, ``b_ub``,
  ``a_eq``, ``b_eq`` as float arrays (shape plus a tuple of their
  values), ``bounds`` and ``maximize``.  The key is a copy, so a caller
  mutating its list or array afterwards cannot change a cached entry;
  an empty matrix keeps its shape.
* **Bound.**  The :data:`LP_CACHE_SIZE` most recently used programs
  (least recently used evicted first).
* **Errors.**  An infeasible or unbounded program raises
  :class:`InfeasibleError` on every call; failures are never cached.
* **Scope.**  One cache per process, shared by its threads (the jobs
  of a ``Session.run_many`` batch included).

A hit returns the same frozen :class:`LPSolution` HiGHS returned for
those exact inputs, so cached and uncached solves are indistinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

#: Tolerance used when checking feasibility / tightness of LP constraints.
TOLERANCE = 1e-9

#: How many distinct programs :func:`solve_lp` keeps solved.
LP_CACHE_SIZE = 1024

#: A cache-key copy of an array: its shape and its values, flattened.
_Frozen = tuple[tuple[int, ...], tuple[float, ...]]


class InfeasibleError(RuntimeError):
    """Raised when an LP that should always be feasible is not."""


@dataclass(frozen=True)
class LPSolution:
    """An optimal LP solution: variable values and objective value."""

    x: tuple[float, ...]
    value: float

    def __iter__(self):
        return iter(self.x)


def solve_lp(
    cost: Sequence[float],
    a_ub: Sequence[Sequence[float]] | None = None,
    b_ub: Sequence[float] | None = None,
    a_eq: Sequence[Sequence[float]] | None = None,
    b_eq: Sequence[float] | None = None,
    bounds: Sequence[tuple[float | None, float | None]] | None = None,
    maximize: bool = False,
) -> LPSolution:
    """Solve ``min/max cost . x`` subject to ``A_ub x <= b_ub, A_eq x = b_eq``.

    ``bounds`` defaults to ``x >= 0``.  Raises
    :class:`InfeasibleError` if the program is infeasible or unbounded.
    Each distinct program is solved once per process (see the module
    docstring).
    """
    return _solve(
        _freeze(cost),
        _freeze(a_ub),
        _freeze(b_ub),
        _freeze(a_eq),
        _freeze(b_eq),
        None if bounds is None else tuple(map(tuple, bounds)),
        bool(maximize),
    )


def _freeze(values) -> _Frozen | None:
    """An exact, immutable copy of an array-like: ``(shape, values)``."""
    if values is None:
        return None
    array = np.asarray(values, dtype=float)
    return array.shape, tuple(array.ravel().tolist())


def _thaw(frozen: _Frozen | None) -> np.ndarray | None:
    """The float array :func:`_freeze` copied, shape included."""
    if frozen is None:
        return None
    shape, values = frozen
    return np.array(values, dtype=float).reshape(shape)


@lru_cache(maxsize=LP_CACHE_SIZE)
def _solve(cost, a_ub, b_ub, a_eq, b_eq, bounds, maximize) -> LPSolution:
    c = _thaw(cost)
    if maximize:
        c = -c
    result = linprog(
        c,
        A_ub=_thaw(a_ub),
        b_ub=_thaw(b_ub),
        A_eq=_thaw(a_eq),
        b_eq=_thaw(b_eq),
        bounds=list(bounds) if bounds is not None else [(0, None)] * len(c),
        method="highs",
    )
    if not result.success:
        raise InfeasibleError(f"LP failed: {result.message}")
    value = float(result.fun)
    if maximize:
        value = -value
    return LPSolution(tuple(float(v) for v in result.x), value)


def snap(value: float, max_denominator: int = 64) -> float:
    """Snap a float to a nearby small rational if one is very close.

    LP vertices of the paper's packing polytopes have small rational
    coordinates (``0, 1/3, 1/2, 2/3, 1`` and the like); snapping removes
    solver noise so worked examples print exactly as in the paper.
    """
    frac = Fraction(value).limit_denominator(max_denominator)
    if abs(float(frac) - value) <= 1e-7:
        return float(frac)
    return value


def snap_vector(values: Sequence[float], max_denominator: int = 64) -> tuple[float, ...]:
    """Snap every entry of a vector (see :func:`snap`)."""
    return tuple(snap(v, max_denominator) for v in values)


def balanced_makespan(load: float, speeds: Sequence[float]) -> float:
    """Minimal makespan of splitting a divisible ``load`` across machines.

    The LP ``min max_s x_s / v_s  s.t.  sum x_s = load, x >= 0`` has the
    closed-form optimum ``load / sum(v_s)``, achieved by the
    speed-proportional split ``x_s = load * v_s / sum(v)`` (every
    machine finishes simultaneously).  This is the heterogeneous-cluster
    replacement for the homogeneous ``load / p``: with unit speeds the
    two coincide, and with mixed speeds it is strictly smaller than the
    uniform split's makespan ``load / (p * min v)``.
    """
    total = sum(speeds)
    if total <= 0:
        raise ValueError("need positive total speed")
    return load / total
