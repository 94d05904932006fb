"""The round kernel: every engine is a list of HyperCube blocks.

The paper's algorithms are one step repeated.  Section 4.2.1 runs
HyperCube on a *residual query* over a private block of ``p_h`` servers
per heavy hitter, Section 4.2.2 does so per case-1 pair and per case-2
hitter, and every operator of a Section 5 plan is a one-round HyperCube
on ``[0, p)``.  This module owns the single decision "how one
communication round is executed"; the engines only build block lists.

Vocabulary:

* A :class:`Block` is plain data: the (residual) ``query`` its servers
  join, the ordered ``inputs`` routed to it, one integer share per
  query variable, the hash-family seed, optional per-dimension speed
  ``weights``, and the ``base`` offset of its servers
  ``[base, base + prod(shares))``.  An input that does not mention a
  grid variable is replicated along it -- that *is* a broadcast.
* A :class:`BlockInput` names one relation of the block's query: its
  ``tag``, the ``schema`` its columns bind, the row ``sources`` routed
  in order, and an ``exclude`` filter (drop rows whose value at a
  position is in a set -- the light parts' "no heavy hitter" cut).
* ``prefix`` namespaces a block's tags when blocks *share* servers in
  a round (multi-round operators); the caller then frees delivered
  fragments itself.  Blocks without one own their servers.
* ``head`` rewrites each local answer before it is recorded: a name
  picks that variable's binding, an int is a constant (the hitter a
  residual query was specialised to).

:func:`round_kernel` opens the run's simulator and the array kernel:
relations travel as ``(n, arity)`` int64 arrays, routing fans out as
``RouteTask`` s and per-server joins as ``JoinTask`` s over the worker
pool, and under a storage manager every fragment is spooled.  Each
server receives its rows in block, input, source, chunk order, which
is all that per-server bits, tuples and capacity truncation depend on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.config import ExecutionSettings
from repro.core.query import ConjunctiveQuery
from repro.mpc.simulator import MPCSimulation
from repro.mpc.timing import PhaseTimer
from repro.parallel.pool import get_pool
from repro.parallel.tasks import (
    RouteTask,
    iter_array_sources,
    join_over_pool,
    route_over_pool,
)
from repro.storage.manager import StorageManager


@dataclass(frozen=True)
class BlockInput:
    """One relation routed to a block (see the module docstring)."""

    tag: str
    schema: tuple[str, ...]
    sources: tuple  # Relation / (n, arity) array, routed in order
    exclude: tuple[tuple[int, tuple[int, ...]], ...] = ()


@dataclass(frozen=True)
class Block:
    """One HyperCube grid on its own server range (see the module docstring)."""

    query: ConjunctiveQuery
    inputs: tuple[BlockInput, ...]
    shares: tuple[int, ...]
    family_seed: int
    weights: tuple[tuple[float, ...] | None, ...] | None = None
    base: int = 0
    prefix: str = ""
    head: tuple[str | int, ...] | None = None

    @property
    def servers(self) -> range:
        return range(self.base, self.base + math.prod(self.shares))


class _ArrayKernel:
    """The simulator, the worker pool and the round frame of one run."""

    def __init__(
        self, sim: MPCSimulation, settings: ExecutionSettings, timer: PhaseTimer
    ):
        self.sim = sim
        self.settings = settings
        self.timer = timer
        self.pool = get_pool(settings.pool, settings.max_workers)

    @staticmethod
    def empty(width: int) -> np.ndarray:
        return np.empty((0, width), dtype=np.int64)

    def record(self, server: int, rows: np.ndarray) -> None:
        self.sim.output_array(server, rows)

    def communicate(self, blocks: Sequence[Block]) -> None:
        """Route every input of every block: one communication round."""
        self.sim.begin_round()
        with self.timer.phase("route"):
            self._route(blocks)
        self.sim.end_round()

    def compute(
        self,
        blocks: Sequence[Block],
        on_result: Callable[[int, np.ndarray], None] | None = None,
    ) -> None:
        """Join every server of every block, in block then server order.

        Each server's local answers (``head`` applied, possibly empty)
        go to ``on_result(server, rows)``, by default to :meth:`record`.
        """
        sink = on_result or self.record
        with self.timer.phase("join"):
            for block, server, local in self._join(blocks):
                with self.timer.phase("merge"):
                    sink(server, local)
                    if self.sim.storage is not None and not block.prefix:
                        self.sim.server(server).clear()

    def _route(self, blocks):
        # One task per (block, input, source, chunk), in that nested
        # order; results merge in task order, so every server receives
        # the same row sequence at any pool kind and worker count.
        def tasks() -> Iterator[RouteTask]:
            for block in blocks:
                dims = block.query.variables
                for item in block.inputs:
                    for fragment in item.sources:
                        for source in iter_array_sources(
                            fragment, self.settings.chunk_rows
                        ):
                            yield RouteTask(
                                tag=block.prefix + item.tag,
                                source=source,
                                dimension_variables=dims,
                                atom_variables=item.schema,
                                shares=block.shares,
                                family_seed=block.family_seed,
                                hash_method=self.settings.hash_method,
                                base=block.base,
                                exclude=item.exclude,
                                weights=block.weights,
                            )

        route_over_pool(self.pool, self.sim, tasks(), self.timer)

    def _join(self, blocks):
        jobs = [(block, server) for block in blocks for server in block.servers]
        results = join_over_pool(
            self.pool,
            self.sim,
            ((b.query, server, b.prefix or None) for b, server in jobs),
        )
        for (block, server), local in zip(jobs, results):
            variables = block.query.variables
            if local is None:
                local = self.empty(len(variables))
            if block.head is not None:
                local = np.stack(
                    [
                        local[:, variables.index(e)] if isinstance(e, str)
                        else np.full(len(local), e, dtype=np.int64)
                        for e in block.head
                    ],
                    axis=1,
                )
            yield block, server, local


def round_kernel(
    num_servers: int,
    value_bits: int,
    settings: ExecutionSettings,
    storage: StorageManager | None,
    timer: PhaseTimer,
) -> _ArrayKernel:
    """Open the run's simulator and its array kernel.

    ``settings`` arrives resolved (:meth:`ExecutionSettings.resolve`).
    """
    sim = MPCSimulation(
        num_servers,
        value_bits=value_bits,
        capacity_bits=settings.capacity_bits,
        on_overflow=settings.on_overflow,
        storage=storage,
        machines=settings.machines,
    )
    return _ArrayKernel(sim, settings, timer)
