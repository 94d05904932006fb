"""One-round HyperCube execution on the MPC simulator.

The driver: compute optimal share exponents via LP (10) (unless shares
are given), integerize them, route every base tuple to its destination
subcube (Eq. 9), run the local multiway join on each server, and return
the union of local answers together with the full load report.

The correctness argument is the paper's: for every potential answer
tuple ``(a_1, ..., a_k)`` the server ``(h_1(a_1), ..., h_k(a_k))``
receives every base tuple consistent with it, so the union of local
join results is exactly ``q(I)``.

The run is a single block on ``[0, p)`` handed to the round kernel of
:mod:`repro.hypercube.blocks`: relations are routed as ``(n, arity)``
arrays (all destination coordinates per column in one vectorized hash,
replication axes expanded by broadcasting, grouping by server with one
stable sort) and each server runs the vectorized local join.  The
property suites compare it against a scalar router and backtracking
join (``tests/reference/tuple_kernel.py``).

With ``chunk_rows`` (or a :class:`~repro.storage.manager.StorageManager`
via ``storage=``) relations are routed chunk-by-chunk through the same
router, per-server fragments accumulate in disk-spilling spools, and
each server's fragment is materialized only for its own local join --
so ``n`` is bounded by disk, not RAM, while answers, per-server loads
and even capacity truncation stay bit-identical
(``tests/storage/test_streaming_execution.py`` enforces that).
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.config import ExecutionSettings
from repro.core.query import ConjunctiveQuery
from repro.core.shares import integerize_shares, share_exponents
from repro.core.stats import Statistics
from repro.data.arrays import group_order, repeated_binding_filter
from repro.data.database import Database
from repro.hashing.family import GridPartitioner, grid_dimension_weights
from repro.hypercube.blocks import Block, BlockInput, round_kernel
from repro.join.vectorized import evaluate_arrays
from repro.mpc.timing import PhaseTimer
from repro.run import RunResult, implements
from repro.storage.manager import StorageManager


def resolve_shares(
    query: ConjunctiveQuery,
    stats: Statistics,
    p: int,
    shares: Mapping[str, int] | None = None,
    exponents: Mapping[str, float] | None = None,
) -> dict[str, int]:
    """Determine integer shares: explicit > exponents > LP (10)."""
    if shares is not None:
        out = {v: int(shares.get(v, 1)) for v in query.variables}
        if any(s < 1 for s in out.values()):
            raise ValueError("shares must be >= 1")
        product = 1
        for s in out.values():
            product *= s
        if product > p:
            raise ValueError(
                f"share product {product} exceeds the number of servers {p}"
            )
        return out
    if exponents is None:
        exponents = share_exponents(query, stats, p).exponents
    full = {v: float(exponents.get(v, 0.0)) for v in query.variables}
    return integerize_shares(full, p)


def route_relation_arrays(
    partitioner: GridPartitioner,
    dimension_variables: Sequence[str],
    atom_variables: Sequence[str],
    rows: np.ndarray,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(server, row_batch)`` pairs for one relation, vectorized.

    ``dimension_variables`` fixes the grid axes (the query variables in
    head order); a row binds the axes named by ``atom_variables`` and
    is replicated along all others (Eq. 9's destination subcube).
    Destination coordinates are computed per *column* with one
    vectorized hash per bound axis, replication along unbound axes is
    expanded by broadcasting the subcube's linear-offset vector, and
    rows are grouped by destination server with one stable sort
    (:func:`repro.data.arrays.group_order`).  Row batches preserve the
    (deterministic) input row order within each server.  Rows that
    bind a repeated variable inconsistently (e.g. ``S(x, x)`` with row
    ``(1, 2)``) can match no answer and are dropped before routing, so
    they contribute zero bits to every server's load.
    """
    axis_of = {v: i for i, v in enumerate(dimension_variables)}
    strides = partitioner.strides
    shares = partitioner.shares

    first_position, mask = repeated_binding_filter(atom_variables, rows)
    if mask is not None:
        rows = rows[mask]
    if len(rows) == 0:
        return
    first_of_axis = {axis_of[v]: pos for v, pos in first_position.items()}

    base = np.zeros(len(rows), dtype=np.int64)
    offsets = np.zeros(1, dtype=np.int64)
    for axis in range(len(dimension_variables)):
        if axis in first_of_axis:
            coords = partitioner.functions[axis].hash_array(
                rows[:, first_of_axis[axis]]
            )
            base += coords * strides[axis]
        else:
            axis_offsets = np.arange(shares[axis], dtype=np.int64) * strides[axis]
            offsets = (offsets[:, None] + axis_offsets[None, :]).reshape(-1)

    servers = (base[:, None] + offsets[None, :]).reshape(-1)
    # Entry i of ``servers`` is copy ``i % len(offsets)`` of row
    # ``i // len(offsets)``; the order is stable, so every server's
    # batch keeps the input row order.
    order, starts = group_order(servers)
    row_ids = order // len(offsets)
    bounds = [*starts.tolist(), len(order)]
    for start, end in zip(bounds, bounds[1:]):
        yield int(servers[order[start]]), rows[row_ids[start:end]]


@implements("hypercube")
def _hypercube_impl(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    *,
    seed: int,
    settings: ExecutionSettings,
    storage: StorageManager | None,
    shares: Mapping[str, int] | None = None,
    exponents: Mapping[str, float] | None = None,
    strategy: str = "hypercube",
) -> RunResult:
    """The HyperCube core: one block on ``[0, p)``.

    ``shares``/``exponents`` override the LP (10) allocation
    (:func:`resolve_shares`); ``details["shares"]`` holds the integer
    shares used.  ``settings`` arrives already resolved.  ``strategy``
    labels the result for the cores that are HyperCube under another
    share choice (``hash-join``, ``skew-oblivious``).
    """
    timer = PhaseTimer()
    with timer.phase("generate"):
        database.validate_for(query)
        stats = database.statistics(query)
        resolved = resolve_shares(query, stats, p, shares, exponents)
        share_list = tuple(resolved[v] for v in query.variables)
        block = Block(
            query=query,
            inputs=tuple(
                BlockInput(
                    atom.relation, atom.variables, (database[atom.relation],)
                )
                for atom in query.atoms
            ),
            shares=share_list,
            family_seed=seed,
            # Heterogeneous clusters weight each dimension's hash ranges
            # by the marginal speed mass of its slices, so fast servers
            # own proportionally larger ranges; None (the uniform
            # cluster) keeps the exact unweighted modulo routing.
            weights=grid_dimension_weights(share_list, settings.machines),
        )

    kernel = round_kernel(p, stats.value_bits, settings, storage, timer)
    kernel.communicate([block])
    kernel.compute([block])
    timer.attach(kernel.sim.report)
    return RunResult(
        query, strategy, kernel.sim.report, kernel.sim, p,
        details={"shares": resolved},
    )


def local_join_fragments(
    query: ConjunctiveQuery, fragments: Mapping[str, np.ndarray]
) -> np.ndarray:
    """One server's local join: the distinct answers as ``(n, k)`` rows.

    The array kernel's per-server join body (every block of every
    engine), in the query's head order.
    """
    return evaluate_arrays(query, fragments)
