"""The tuple-at-a-time round kernel: the oracle for the array kernel.

Routing is scalar -- one :meth:`GridPartitioner.destinations` call per
tuple -- and each server's local join is the backtracking
:func:`~tests.reference.multiway_join.evaluate_on_fragments`.  Only
delivery goes through the simulator (:meth:`MPCSimulation.send_array`),
so bit accounting, capacity truncation, spooling and output recording
are the simulator's own.  Every server receives the same row sequence as under
the array kernel (block, input, source order; relations in canonical
order, arrays and spools as stored), so answers, per-server bits,
tuples and dropped bits must agree exactly.

:func:`tuple_kernel` swaps :class:`TupleKernel` in for
``repro.hypercube.blocks._ArrayKernel``; every engine then runs on it::

    with tuple_kernel():
        reference = Session(p=8).run(q, db, "hypercube")
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Iterator, Sequence

import numpy as np

from repro.data.relation import Relation
from repro.hashing.family import GridPartitioner, HashFamily
from repro.hypercube import blocks
from repro.storage.chunked import ChunkedRelation
from tests.reference.multiway_join import evaluate_on_fragments


def route_relation(
    partitioner: GridPartitioner,
    dimension_variables: Sequence[str],
    atom_variables: Sequence[str],
    tuples,
):
    """Yield ``(server, tuple)`` pairs for one relation's tuples.

    ``dimension_variables`` fixes the grid axes (the query variables in
    head order); a tuple binds the axes named by ``atom_variables`` and
    is replicated along all others (Eq. 9's destination subcube).
    Tuples that bind a repeated variable inconsistently (e.g. ``S(x, x)``
    with tuple ``(1, 2)``) can match no answer and are dropped before
    routing, so they contribute zero bits to every server's load.
    """
    axis_of = {v: i for i, v in enumerate(dimension_variables)}
    for t in tuples:
        coordinates: list[int | None] = [None] * len(dimension_variables)
        consistent = True
        for variable, value in zip(atom_variables, t):
            axis = axis_of[variable]
            if coordinates[axis] is None:
                coordinates[axis] = value
            elif coordinates[axis] != value:
                consistent = False
                break
        if not consistent:
            continue
        for cell in partitioner.destinations(coordinates):
            yield partitioner.linear_index(cell), t


def _tuples(source, exclude) -> list[tuple[int, ...]]:
    """A source's tuples in routing order, ``exclude`` applied.

    Relations route in canonical (sorted) order; chunked relations and
    arrays in stored order -- exactly what the array kernel does.
    """
    if isinstance(source, ChunkedRelation):
        tuples = list(map(tuple, source.to_array().tolist()))
    elif isinstance(source, Relation):
        tuples = sorted(source.tuples)
    else:
        tuples = list(map(tuple, np.asarray(source).tolist()))
    for position, values in exclude:
        dropped = set(values)
        tuples = [t for t in tuples if t[position] not in dropped]
    return tuples


def _rows(tuples, width: int) -> np.ndarray:
    """``tuples`` as an ``(n, width)`` array, in the order given."""
    return np.array(list(tuples), dtype=np.int64).reshape(len(tuples), width)


class TupleKernel(blocks._ArrayKernel):
    """One Python tuple at a time: the obviously-correct reference."""

    def _route(self, block_list):
        for block in block_list:
            grid = GridPartitioner(
                block.shares,
                HashFamily(block.family_seed, method=self.settings.hash_method),
                weights=block.weights,
            )
            dims = block.query.variables
            for item in block.inputs:
                batches: dict[int, list[tuple[int, ...]]] = {}
                for source in item.sources:
                    for server, t in route_relation(
                        grid, dims, item.schema, _tuples(source, item.exclude)
                    ):
                        batches.setdefault(server, []).append(t)
                for server, batch in batches.items():
                    self.sim.send_array(
                        block.base + server,
                        block.prefix + item.tag,
                        _rows(batch, len(item.schema)),
                    )

    def _join(self, block_list):
        for block in block_list:
            variables = block.query.variables
            for server in block.servers:
                local = evaluate_on_fragments(
                    block.query,
                    {
                        tag: set(map(tuple, rows.tolist()))
                        for tag, rows in self.sim.array_state(
                            server, block.prefix
                        ).items()
                    },
                )
                width = len(variables)
                if block.head is not None:
                    picks = [
                        variables.index(e) if isinstance(e, str) else None
                        for e in block.head
                    ]
                    local = {
                        tuple(
                            e if i is None else t[i]
                            for e, i in zip(block.head, picks)
                        )
                        for t in local
                    }
                    width = len(block.head)
                yield block, server, _rows(sorted(local), width)


@contextmanager
def tuple_kernel() -> Iterator[None]:
    """Run every engine on :class:`TupleKernel` inside the block."""
    original = blocks._ArrayKernel
    blocks._ArrayKernel = TupleKernel
    try:
        yield
    finally:
        blocks._ArrayKernel = original


def kernel(name: str):
    """The context a kernel-parametrized test runs under.

    ``"numpy"`` is the shipped array kernel, ``"tuples"`` the oracle.
    """
    if name not in ("numpy", "tuples"):
        raise ValueError(f"unknown kernel {name!r}")
    return tuple_kernel() if name == "tuples" else nullcontext()
