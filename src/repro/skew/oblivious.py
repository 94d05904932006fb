"""Skew-oblivious HyperCube (Section 4.1).

When nothing is known about the data beyond cardinalities, the best the
HyperCube algorithm can do against adversarial skew is choose shares by
LP (18), which optimizes the Corollary 4.3 worst case
``max_j M_j / min_{i in S_j} p_i``.  This module is a thin driver
wiring those shares into the standard HyperCube execution.
"""

from __future__ import annotations

from repro.config import ExecutionSettings
from repro.core.query import ConjunctiveQuery
from repro.core.shares import skew_oblivious_share_exponents
from repro.data.database import Database
from repro.hypercube.algorithm import _hypercube_impl
from repro.run import RunResult, implements
from repro.storage.manager import StorageManager


@implements("skew-oblivious")
def _skew_oblivious_impl(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    *,
    seed: int,
    settings: ExecutionSettings,
    storage: StorageManager | None,
) -> RunResult:
    """HyperCube with the LP (18) skew-resistant shares.

    For the simple join this balances all three variables at share
    ``p^{1/3}`` (worst-case load ``M/p^{1/3}`` instead of the vanilla
    hash join's ``Theta(M)`` under a single heavy hitter).
    """
    stats = database.statistics(query)
    solution = skew_oblivious_share_exponents(query, stats, p)
    return _hypercube_impl(
        query, database, p, seed=seed, settings=settings, storage=storage,
        exponents=solution.exponents, strategy="skew-oblivious",
    )
