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

:func:`round_kernel` picks the implementation once per run from
``settings.backend``: the array kernel (``RouteTask`` / ``JoinTask``
fanned over the worker pool, spooled under a storage manager) or the
tuple reference (:func:`~repro.hypercube.algorithm.route_relation` +
``sim.send`` + :func:`~repro.join.multiway.evaluate_on_fragments`),
which the identity suites compare against.  Both deliver every server
the same row sequence, so answers, per-server bits and tuples, and
capacity truncation are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.config import ExecutionSettings, resolve_backend
from repro.core.query import ConjunctiveQuery
from repro.data.relation import Relation
from repro.hashing.family import GridPartitioner, HashFamily
from repro.join.multiway import evaluate_on_fragments
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
    sources: tuple  # Relation / (n, arity) array / tuple set, routed in order
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


class _Kernel:
    """What both implementations share: the simulator and the round frame."""

    def __init__(
        self, sim: MPCSimulation, settings: ExecutionSettings, timer: PhaseTimer
    ):
        self.sim = sim
        self.settings = settings
        self.timer = timer

    def communicate(self, blocks: Sequence[Block]) -> None:
        """Route every input of every block: one communication round."""
        self.sim.begin_round()
        with self.timer.phase("route"):
            self._route(blocks)
        self.sim.end_round()

    def compute(
        self,
        blocks: Sequence[Block],
        on_result: Callable[[int, object], None] | None = None,
    ) -> None:
        """Join every server of every block, in block then server order.

        Each server's local answers (``head`` applied, possibly empty)
        go to ``on_result(server, answers)`` in the kernel's native
        form, by default to :meth:`record`.
        """
        sink = on_result or self.record
        with self.timer.phase("join"):
            for block, server, local in self._join(blocks):
                with self.timer.phase("merge"):
                    sink(server, local)
                    if self.sim.storage is not None and not block.prefix:
                        self.sim.server(server).clear()


class _ArrayKernel(_Kernel):
    """Relations as ``(n, arity)`` arrays, fanned over the worker pool."""

    streams = True

    def __init__(self, sim, settings, timer):
        super().__init__(sim, settings, timer)
        self.pool = get_pool(settings.pool, settings.max_workers)

    @staticmethod
    def empty(width: int) -> np.ndarray:
        return np.empty((0, width), dtype=np.int64)

    def record(self, server: int, rows: np.ndarray) -> None:
        self.sim.output_array(server, rows)

    def _route(self, blocks):
        # One task per (block, input, source, chunk), in that nested
        # order; results merge in task order, so every server receives
        # the row sequence of the serial tuple loop.
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


class _TupleKernel(_Kernel):
    """One Python tuple at a time: the obviously-correct reference."""

    streams = False

    @staticmethod
    def empty(width: int) -> set[tuple[int, ...]]:
        return set()

    def record(self, server: int, tuples: set[tuple[int, ...]]) -> None:
        self.sim.output(server, tuples)

    def _route(self, blocks):
        # Imported here: hypercube.algorithm builds its block through
        # this module.
        from repro.hypercube.algorithm import route_relation

        for block in blocks:
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
                    self.sim.send(
                        block.base + server, block.prefix + item.tag, batch
                    )

    def _join(self, blocks):
        for block in blocks:
            variables = block.query.variables
            for server in block.servers:
                local = evaluate_on_fragments(
                    block.query,
                    {
                        tag[len(block.prefix):]: tuples
                        for tag, tuples in self.sim.state(server).items()
                        if tag.startswith(block.prefix)
                    },
                )
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
                yield block, server, local


def _tuples(source, exclude) -> list[tuple[int, ...]]:
    """A source's tuples in canonical routing order, ``exclude`` applied.

    Relations and tuple sets sort; arrays are routed in the order given
    (the array kernel does the same), so a binding capacity cap
    truncates the identical per-server prefix on both kernels.
    """
    if isinstance(source, Relation):
        tuples = source.sorted_tuples()
    elif isinstance(source, np.ndarray):
        tuples = list(map(tuple, source.tolist()))
    else:
        tuples = sorted(source)
    for position, values in exclude:
        dropped = set(values)
        tuples = [t for t in tuples if t[position] not in dropped]
    return tuples


_KERNELS = {"numpy": _ArrayKernel, "tuples": _TupleKernel}


def streams(settings: ExecutionSettings | None) -> bool:
    """Whether the kernel ``settings`` selects can spool through storage."""
    backend = settings.backend if settings is not None else None
    return _KERNELS[resolve_backend(backend)].streams


def round_kernel(
    num_servers: int,
    value_bits: int,
    settings: ExecutionSettings,
    storage: StorageManager | None,
    timer: PhaseTimer,
) -> _Kernel:
    """Open the run's simulator and the kernel ``settings.backend`` names.

    ``settings`` arrives resolved (:meth:`ExecutionSettings.resolve`),
    so this lookup is the one place a run's backend is decided.
    """
    sim = MPCSimulation(
        num_servers,
        value_bits=value_bits,
        capacity_bits=settings.capacity_bits,
        on_overflow=settings.on_overflow,
        storage=storage,
        timer=timer,
        machines=settings.machines,
    )
    return _KERNELS[settings.backend](sim, settings, timer)
