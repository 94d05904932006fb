"""Baseline one-round algorithms the paper compares against.

Each is the executor core of one built-in strategy (``Strategy.core``);
run them with ``Session.run(q, db, "<name>")``.  Both are HyperCube
block lists (:mod:`repro.hypercube.blocks`), so they honour the
cluster's machine spec, capacity cap, worker pool and storage manager
exactly like every other engine.  The third classical baseline, the
parallel hash join of Example 4.1, is not a core of its own: it is one
of the share vectors the ``"hypercube"`` strategy chooses between
(:func:`repro.planner.cost.share_candidates`); pin it with
``Session.run(q, db, "hypercube", exponents={"z": 1.0})``.

* ``"single-server"`` (:func:`single_server_core`) -- the degenerate
  ``L = M`` algorithm (Section 2.1: "if we allowed a load L = M, any
  problem can be solved trivially in one round"): one block with every
  share 1, so the entire input lands on server 0 and is joined there.
* ``"broadcast"`` (:func:`broadcast_core`) -- partition one relation,
  broadcast the rest; matches the HC optimum when the broadcast
  relations are small (Lemma 3.18's regime ``M_j < M/p``).  One share-1
  block per server.
"""

from __future__ import annotations

import numpy as np

from repro.config import ExecutionSettings
from repro.core.query import ConjunctiveQuery
from repro.data.database import Database
from repro.hypercube.blocks import Block, BlockInput, one_round
from repro.mpc.timing import PhaseTimer
from repro.run import RunResult
from repro.storage.manager import StorageManager


def _one_server_blocks(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    strategy: str,
    *,
    seed: int,
    settings: ExecutionSettings,
    storage: StorageManager | None,
    partition: str | None = None,
) -> RunResult:
    """Run ``query`` as one-server blocks, every share 1.

    Without ``partition``, one block on server 0 receives every relation
    in full.  With it, server ``s`` is a block (``base = s``) that
    receives the canonical rows ``i`` of ``partition`` with ``(i *
    1_000_003 + seed) % p == s`` and every other relation in full.
    """
    timer = PhaseTimer()
    with timer.phase("generate"):
        database.validate_for(query)
        stats = database.statistics(query)
        slices: dict[int, np.ndarray | None] = {0: None}
        if partition is not None:
            rows = database[partition].to_array()
            # Reduced mod p first: seeds are 64-bit, int64 would overflow.
            owner = (
                np.arange(len(rows), dtype=np.int64) * (1_000_003 % p)
                + seed % p
            ) % p
            slices = {server: rows[owner == server] for server in range(p)}
        blocks = [
            Block(
                query=query,
                inputs=tuple(
                    BlockInput(
                        atom.relation,
                        atom.variables,
                        (
                            database[atom.relation]
                            if atom.relation != partition
                            else part,
                        ),
                    )
                    for atom in query.atoms
                ),
                shares=(1,) * query.num_variables,
                family_seed=seed,
                base=server,
            )
            for server, part in slices.items()
        ]
    return one_round(
        query, strategy, blocks, p, stats.value_bits, settings, storage,
        timer, {"shares": {v: 1 for v in query.variables}},
    )


def single_server_core(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    *,
    seed: int,
    settings: ExecutionSettings,
    storage: StorageManager | None,
) -> RunResult:
    return _one_server_blocks(
        query, database, p, "single-server",
        seed=seed, settings=settings, storage=storage,
    )


def broadcast_core(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    *,
    seed: int,
    settings: ExecutionSettings,
    storage: StorageManager | None,
    partition_relation: str | None = None,
) -> RunResult:
    """Partition one relation evenly; broadcast all the others.

    ``partition_relation`` defaults to the largest relation.  Correct
    for any query because each server sees the full content of every
    non-partitioned relation.
    """
    database.validate_for(query)
    if partition_relation is None:
        stats = database.statistics(query)
        partition_relation = max(
            query.relation_names, key=lambda r: stats.bits(r)
        )
    if partition_relation not in set(query.relation_names):
        raise KeyError(f"unknown relation {partition_relation!r}")
    return _one_server_blocks(
        query, database, p, "broadcast",
        seed=seed, settings=settings, storage=storage,
        partition=partition_relation,
    )
