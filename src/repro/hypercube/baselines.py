"""Baseline one-round algorithms the paper compares against.

Each is an executor core behind :func:`repro.run.dispatch_run`; run
them with ``Session.run(q, db, "<name>")``.

* ``"single-server"`` -- the degenerate ``L = M`` algorithm (Section
  2.1: "if we allowed a load L = M, any problem can be solved trivially
  in one round"): ship the entire input to server 0 and join there.
* ``"hash-join"`` -- the standard parallel hash join of Example 4.1:
  all ``p`` shares on the join variable(s).  Optimal without skew, load
  ``Theta(M)`` when a single heavy hitter carries the relation.
* ``"broadcast"`` -- partition one relation, broadcast the rest;
  matches the HC optimum when the broadcast relations are small (Lemma
  3.18's regime ``M_j < M/p``).
"""

from __future__ import annotations

from typing import Sequence

from repro.config import ExecutionSettings
from repro.core.query import ConjunctiveQuery
from repro.data.database import Database
from repro.hypercube.algorithm import _hypercube_impl
from repro.join.multiway import evaluate_on_fragments
from repro.mpc.simulator import MPCSimulation
from repro.run import RunResult, implements
from repro.storage.manager import StorageManager


@implements("single-server")
def _single_server_impl(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    *,
    seed: int,
    settings: ExecutionSettings,
    storage: StorageManager | None,
) -> RunResult:
    database.validate_for(query)
    stats = database.statistics(query)
    sim = MPCSimulation(
        p,
        value_bits=stats.value_bits,
        capacity_bits=settings.capacity_bits,
        on_overflow=settings.on_overflow,
    )
    sim.begin_round()
    for atom in query.atoms:
        # Sorted, so a binding capacity cap truncates a deterministic
        # prefix rather than whatever the set iteration order yields.
        sim.send(0, atom.relation, database[atom.relation].sorted_tuples())
    sim.end_round()
    sim.output(0, evaluate_on_fragments(query, sim.state(0)))
    return RunResult(
        query, "single-server", sim.report, sim, p,
        details={"shares": {v: 1 for v in query.variables}},
    )


def common_variables(query: ConjunctiveQuery) -> tuple[str, ...]:
    """The variables occurring in every atom: the natural join key."""
    return tuple(
        v
        for v in query.variables
        if all(v in a.variable_set for a in query.atoms)
    )


@implements("hash-join")
def _hash_join_impl(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    *,
    seed: int,
    settings: ExecutionSettings,
    storage: StorageManager | None,
    join_variables: Sequence[str] | None = None,
) -> RunResult:
    """HyperCube with all of ``p`` spread over the join variable(s).

    ``join_variables`` defaults to the variables occurring in *all*
    atoms (the natural join key); for the simple join ``S1(x,z),
    S2(y,z)`` that is ``z`` and the algorithm is the textbook parallel
    hash join with ``p_z = p``.
    """
    if join_variables is None:
        join_variables = common_variables(query)
    join_variables = list(join_variables)
    if not join_variables:
        raise ValueError(
            "query has no variable common to all atoms; "
            "pass join_variables explicitly"
        )
    # Spread p as evenly as possible over the join variables.
    exponents = {v: 1.0 / len(join_variables) for v in join_variables}
    return _hypercube_impl(
        query, database, p, seed=seed, settings=settings, storage=storage,
        exponents=exponents, strategy="hash-join",
    )


@implements("broadcast")
def _broadcast_impl(
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
    stats = database.statistics(query)
    if partition_relation is None:
        partition_relation = max(
            query.relation_names, key=lambda r: stats.bits(r)
        )
    if partition_relation not in set(query.relation_names):
        raise KeyError(f"unknown relation {partition_relation!r}")
    sim = MPCSimulation(
        p,
        value_bits=stats.value_bits,
        capacity_bits=settings.capacity_bits,
        on_overflow=settings.on_overflow,
    )
    sim.begin_round()
    for atom in query.atoms:
        relation = database[atom.relation]
        if atom.relation == partition_relation:
            ordered = relation.sorted_tuples()
            for index, t in enumerate(ordered):
                sim.send((index * 1_000_003 + seed) % p, atom.relation, [t])
        else:
            sim.broadcast(atom.relation, relation.sorted_tuples())
    sim.end_round()
    for server in range(p):
        local = evaluate_on_fragments(query, sim.state(server))
        if local:
            sim.output(server, local)
    return RunResult(
        query, "broadcast", sim.report, sim, p,
        details={"shares": {v: 1 for v in query.variables}},
    )
