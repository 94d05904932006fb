"""Picklable per-server task bodies and their deterministic drivers.

The array round kernel (:mod:`repro.hypercube.blocks`) fans every
block's routing and per-server joins out over a
:class:`~repro.parallel.pool.WorkerPool` through the task functions
here.  The split is strict:

* **Workers compute, the parent accounts.**  :func:`route_task` and
  :func:`join_task` are pure functions of their dataclass argument --
  no closures, no simulator, no locks -- and return plain arrays.  All
  :class:`~repro.mpc.simulator.MPCSimulation` effects (bit accounting,
  capacity truncation, fragment storage, output recording) happen on
  the parent as results are merged.
* **Merging replays the serial order.**  ``imap`` returns results in
  task order and the drivers iterate tasks in exactly the order the
  serial loops used, so every delivery -- one
  :meth:`~repro.mpc.simulator.MPCSimulation.send_partition` per routed
  chunk (its rows gathered once, each server's rows a slice of them),
  one ``output_array`` per joined server -- fires in the
  identical sequence at any pool kind and worker count, which is what
  keeps answers, per-server per-round loads, and capacity-drop
  truncation bit-identical.
* **Large data ships by path.**  An :class:`ArraySource` wraps either
  an in-memory array or a
  :class:`~repro.storage.chunked.SegmentSlice` -- ``(path, offset,
  rows)`` of a spool's spill segment -- that workers map read-only
  (:meth:`~repro.storage.chunked.ChunkedRelation.chunk_handles`), so
  out-of-core fragments cross the pickle boundary as a few bytes.

These are the only payloads that cross into a process worker: a run's
routing and joins fan out here, while whole runs (a
:meth:`Session.run_many` batch's jobs) stay on the session's threads.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.data.arrays import merge_batches
from repro.data.relation import Relation
from repro.hashing.family import GridPartitioner, HashFamily
from repro.mpc.timing import PhaseTimer
from repro.parallel.pool import WorkerPool
from repro.storage.chunked import ChunkedRelation, SegmentSlice

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.query import ConjunctiveQuery
    from repro.mpc.simulator import MPCSimulation, Partition, ServerState


# --------------------------------------------------------------- sources


@dataclass(frozen=True, eq=False)
class ArraySource:
    """One shippable ``(n, arity)`` row batch: inline rows or a segment.

    ``segment`` names a row range ``(path, offset, rows, arity)`` of a
    spill segment that :meth:`load` maps read-only -- the zero-copy
    hand-off for process workers.  Exactly one of ``rows``/``segment``
    is set.
    """

    rows: np.ndarray | None = None
    segment: SegmentSlice | None = None

    def load(self) -> np.ndarray:
        if self.rows is not None:
            return self.rows
        return self.segment.load()


def _source(handle: np.ndarray | SegmentSlice) -> ArraySource:
    if isinstance(handle, SegmentSlice):
        return ArraySource(segment=handle)
    return ArraySource(rows=handle)


def iter_array_sources(
    sources: "tuple | Relation | np.ndarray",
    chunk_rows: int | None = None,
) -> Iterator[ArraySource]:
    """One input's row sources as shippable chunks, in order.

    ``sources`` is the input's tuple of sources (or one source).  A
    chunked relation yields its own chunk handles: spilled chunks come
    out as segment slices (never opened here), tails as arrays.  Each
    run of consecutive in-memory sources (arrays, relations) is
    concatenated into one array and cut at ``chunk_rows`` (kept whole
    when it is None), so a view held as ``p`` per-server fragments
    routes as one chunk, not ``p``.  The rows and their order are those
    of the sources one after another: grouping by server is stable, so
    every server receives the same row sequence either way.
    """
    if not isinstance(sources, tuple):
        sources = (sources,)
    pending: list[np.ndarray] = []
    for source in sources:
        if isinstance(source, ChunkedRelation):
            yield from _cut(pending, chunk_rows)
            pending = []
            for handle in source.chunk_handles():
                yield _source(handle)
            continue
        array = (
            source.to_array() if isinstance(source, Relation)
            else np.asarray(source)
        )
        if len(array):
            pending.append(array)
    yield from _cut(pending, chunk_rows)


def _cut(arrays: list[np.ndarray], chunk_rows: int | None) -> Iterator[ArraySource]:
    """``arrays`` concatenated, in chunks of at most ``chunk_rows`` rows."""
    if not arrays:
        return
    array = arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=0)
    if chunk_rows is None or chunk_rows >= len(array):
        yield ArraySource(rows=array)
        return
    for start in range(0, len(array), chunk_rows):
        yield ArraySource(rows=array[start:start + chunk_rows])


# --------------------------------------------------------------- routing


@dataclass(frozen=True)
class RouteTask:
    """Route one chunk of one relation over one HyperCube grid.

    Plain data only: the worker rebuilds the grid from
    ``(shares, family_seed, hash_method, weights)`` -- hash functions
    are pure functions of the seed (and the weighted-bucket thresholds
    of the weights), so the rebuilt grid routes identically to the
    parent's.  ``exclude`` drops rows whose value at a position is
    in the given set before routing (the skew algorithms' light-part
    filter; filtering commutes with chunking and coalescing).  ``tag``
    rides along so the driver can replay the delivery without holding
    the task; ``base`` shifts the grid's servers to the block's range.
    ``weights`` is the heterogeneous cluster's per-dimension bucket
    weighting (None: the uniform modulo grid).
    """

    tag: str
    source: ArraySource
    dimension_variables: tuple[str, ...]
    atom_variables: tuple[str, ...]
    shares: tuple[int, ...]
    family_seed: int
    hash_method: str = "splitmix64"
    base: int = 0
    exclude: tuple[tuple[int, tuple[int, ...]], ...] = ()
    weights: tuple[tuple[float, ...] | None, ...] | None = None


def route_task(task: RouteTask) -> tuple[str, Partition, float]:
    """Worker body: load, filter, route; no simulator side effects.

    Returns the task's tag and its routed :class:`Partition`, on the
    block's servers (``base`` already added).

    The trailing float is the task body's own wall time, measured
    inside the worker -- the parent replays it as a trace ``task``
    event in deterministic merge order.
    """
    from repro.hypercube.algorithm import route_relation_partition

    # repro: allow(wall-clock) -- per-task phase timing; reported as
    # telemetry, never folded into answers or routing.
    started = time.perf_counter()
    rows = np.asarray(task.source.load())
    for position, values in task.exclude:
        if len(values) and len(rows):
            heavy = np.fromiter(values, dtype=np.int64, count=len(values))
            rows = rows[~np.isin(rows[:, position], heavy)]
    grid = GridPartitioner(
        list(task.shares),
        HashFamily(task.family_seed, method=task.hash_method),
        weights=task.weights,
    )
    partition = route_relation_partition(
        grid, task.dimension_variables, task.atom_variables, rows
    )
    if task.base:
        partition = partition._replace(servers=partition.servers + task.base)
    return task.tag, partition, time.perf_counter() - started  # repro: allow(wall-clock) -- phase timing telemetry


def route_over_pool(
    pool: WorkerPool,
    sim: "MPCSimulation",
    tasks: Iterable[RouteTask],
    timer: PhaseTimer | None = None,
) -> None:
    """Fan routing out, replaying deliveries in serial send order.

    Each task's partition is delivered with one
    :meth:`~repro.mpc.simulator.MPCSimulation.send_partition`, strictly
    in task order, so the global delivery sequence -- and with it every
    load count and capacity truncation -- matches the serial loop
    exactly.  Time spent waiting on results lands in the enclosing
    phase (``route``); simulator delivery is carved out as ``ship``.
    """
    timer = timer or PhaseTimer()
    trace = sim.trace
    for tag, partition, seconds in pool.imap(route_task, tasks):
        if trace is not None:
            trace.task("route", tag, seconds, pool.kind)
        with timer.phase("ship"):
            sim.send_partition(tag, partition)


# ----------------------------------------------------------------- joins


@dataclass(frozen=True)
class JoinTask:
    """Join one server's received fragments locally.

    ``fragments`` maps each tag to the source batches **in storage
    order**; the worker merges them exactly like
    :meth:`ServerState.array_fragment` (both call
    :func:`repro.data.arrays.merge_batches`) before joining, so the
    local answers match the serial computation phase bit for bit.
    """

    server: int
    query: "ConjunctiveQuery"
    fragments: tuple[tuple[str, tuple[ArraySource, ...]], ...]


def join_task(task: JoinTask) -> tuple[int, np.ndarray | None, float]:
    """Worker body: merge fragments, run the local join, return rows.

    The trailing float is the in-worker wall time, as in
    :func:`route_task`.
    """
    # Imported here to keep repro.parallel a leaf of the engine layer
    # (hypercube.algorithm imports this module's drivers).
    from repro.hypercube.algorithm import local_join_fragments

    # repro: allow(wall-clock) -- per-task phase timing; reported as
    # telemetry, never folded into answers or routing.
    started = time.perf_counter()
    merged: dict[str, np.ndarray] = {}
    for tag, sources in task.fragments:
        batches = [np.asarray(s.load()) for s in sources]
        if not batches:
            continue
        deduped = merge_batches(batches)
        if len(deduped):
            merged[tag] = deduped
    if not merged:
        return task.server, None, time.perf_counter() - started  # repro: allow(wall-clock) -- phase timing telemetry
    local = local_join_fragments(task.query, merged)
    return (
        task.server,
        (local if len(local) else None),
        time.perf_counter() - started,  # repro: allow(wall-clock) -- phase timing telemetry
    )


def server_join_task(
    query: "ConjunctiveQuery",
    state: "ServerState",
    server: int,
    prefix: str | None = None,
) -> JoinTask:
    """Snapshot one server's array fragments into a picklable task.

    Mirrors :meth:`MPCSimulation.array_state`: tags enumerate in
    delivery-store order, a spooled fragment becomes one segment slice
    over all its spilled rows plus its in-memory tail (the join merges
    the whole fragment anyway), and ``prefix`` selects and strips the
    multi-round executor's namespaced tags.
    """
    tags = list(state.array_fragments)
    tags += [t for t in state.array_spools if t not in state.array_fragments]
    fragments: list[tuple[str, tuple[ArraySource, ...]]] = []
    for tag in tags:
        if prefix is not None and not tag.startswith(prefix):
            continue
        key = tag if prefix is None else tag[len(prefix):]
        spool = state.array_spools.get(tag)
        if spool is not None:
            sources = tuple(_source(h) for h in spool.segment_handles())
        else:
            sources = tuple(
                ArraySource(rows=batch)
                for batch in state.array_fragments[tag]
            )
        if sources:
            fragments.append((key, sources))
    return JoinTask(server, query, tuple(fragments))


class JoinOrderError(RuntimeError):
    """A pool returned a join result out of job order."""


def join_over_pool(
    pool: WorkerPool,
    sim: "MPCSimulation",
    jobs: "Iterable[tuple[ConjunctiveQuery, int, str | None]]",
) -> Iterator[np.ndarray | None]:
    """Fan local joins out; yield each job's answers in job order.

    A job is ``(query, server, prefix)``: join ``server``'s delivered
    fragments (those tagged ``prefix``, stripped, when given) under
    ``query``.  Tasks snapshot a server only as the pool pulls them and
    results come back in job order, so the caller may record outputs
    and free a server's fragments as soon as its result arrives -- the
    out-of-core executors' one-server-resident property.  Each result's
    server id is checked against its job's, so a pool that breaks that
    order raises :class:`JoinOrderError` instead of handing the caller
    another server's answers.  ``None`` stands for "no answers".
    """
    due: deque[int] = deque()

    def tasks() -> Iterator[JoinTask]:
        for query, server, prefix in jobs:
            due.append(server)
            yield server_join_task(query, sim.server(server), server, prefix)

    trace = sim.trace
    for server, local, seconds in pool.imap(join_task, tasks()):
        expected = due.popleft()
        if server != expected:
            raise JoinOrderError(
                f"the pool returned server {server}'s join result where "
                f"server {expected}'s was due"
            )
        if trace is not None:
            trace.task("join", server, seconds, pool.kind)
        yield local
