"""Skew-oblivious HyperCube (Section 4.1).

When nothing is known about the data beyond cardinalities, the best the
HyperCube algorithm can do against adversarial skew is choose shares by
LP (18), which optimizes the Corollary 4.3 worst case
``max_j M_j / min_{i in S_j} p_i``.  This module is a thin driver
wiring those shares into the standard HyperCube execution.
"""

from __future__ import annotations

from typing import Literal

from repro.config import ExecutionSettings, MachineSpec, PoolKind
from repro.core.query import ConjunctiveQuery
from repro.core.shares import skew_oblivious_share_exponents
from repro.data.database import Database
from repro.hypercube.algorithm import _hypercube_impl
from repro.run import RunResult, dispatch_run, implements
from repro.storage.manager import StorageManager


def run_skew_oblivious_hypercube(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    seed: int = 0,
    capacity_bits: float | None = None,
    on_overflow: Literal["fail", "drop"] = "fail",
    backend: Literal["tuples", "numpy"] | None = None,
    hash_method: str = "splitmix64",
    storage: StorageManager | None = None,
    chunk_rows: int | None = None,
    pool: PoolKind | None = None,
    max_workers: int | None = None,
    machines: MachineSpec | None = None,
) -> RunResult:
    """HyperCube with the LP (18) skew-resistant shares.

    For the simple join this balances all three variables at share
    ``p^{1/3}`` (worst-case load ``M/p^{1/3}`` instead of the vanilla
    hash join's ``Theta(M)`` under a single heavy hitter).  The
    execution knobs (``backend``, ``capacity_bits``, ``storage``, ...)
    mean what they mean for
    :func:`~repro.hypercube.algorithm.run_hypercube`.
    """
    return dispatch_run(
        "skew-oblivious",
        query,
        database,
        p,
        seed=seed,
        storage=storage,
        settings=ExecutionSettings(
            backend=backend,
            capacity_bits=capacity_bits,
            on_overflow=on_overflow,
            hash_method=hash_method,
            chunk_rows=chunk_rows,
            pool=pool,
            max_workers=max_workers,
            machines=machines,
        ),
    )


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
    stats = database.statistics(query)
    solution = skew_oblivious_share_exponents(query, stats, p)
    return _hypercube_impl(
        query, database, p, seed=seed, settings=settings, storage=storage,
        exponents=solution.exponents, strategy="skew-oblivious",
    )
