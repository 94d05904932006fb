"""The round-based MPC simulator.

An :class:`MPCSimulation` is driven imperatively by algorithm code:

.. code-block:: python

    sim = MPCSimulation(p=8, value_bits=20)
    sim.begin_round()
    sim.send_partition("S1", routed)       # one routed chunk, every server
    sim.send_array(3, "S1", np.array([[1, 2], [5, 6]]))
    sim.end_round()                        # barrier: close the round's loads
    fragment = sim.array_state(3)["S1"]    # local computation phase
    sim.output_array(3, answers)

Bits are accounted on *receipt*, exactly as the model defines load
(Section 2.1: "the load is the amount of data received by a server
during a particular round").  Payloads are ``(n, arity)`` int64 row
batches, and each row is one tuple of the tuple-based model: a tuple
of arity ``a`` costs ``a * value_bits`` bits unless the sender
overrides ``bits_per_tuple``.  The unit of delivery is a
:class:`Partition` -- one routed chunk, each destination server's rows
a slice of one gathered array -- and
:meth:`MPCSimulation.send_partition` accounts every server's slice of
it at once; ``send_array`` is its one-server case, so there is one
accounting path.  Delivery is streaming: each partition
is accounted and stored the moment it is issued (in send order, which
is all capacity truncation depends on), so a round never buffers its
full traffic -- the property that lets out-of-core executions route
terabytes through a constant-memory simulator.  ``end_round`` is
purely the accounting barrier closing the round's :class:`RoundLoad`.

Setting ``capacity_bits`` models a hard per-round load cap ``L``:
``on_overflow="fail"`` aborts the execution (the paper's randomized
algorithms "abort the computation if the amount of data received during
a round would exceed the maximum load L"), while ``on_overflow="drop"``
silently discards the excess -- the device used to *run* load-capped
algorithms for the Theorem 3.5 answer-fraction experiments.

With a :class:`~repro.storage.manager.StorageManager` attached
(``storage=``), every server's received array batches and array outputs
accumulate in chunked spools that spill to disk past the chunk size, so
per-server fragments of an out-of-core run never sum up in RAM; the
bit accounting is identical either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal, NamedTuple

import numpy as np

from repro.data.arrays import merge_batches
from repro.mpc.report import LoadReport, RoundLoad
from repro.trace.recorder import active_recorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.config import MachineSpec
    from repro.storage.manager import StorageManager
    from repro.trace.recorder import TraceRecorder


class Partition(NamedTuple):
    """One routed chunk: per-server slices of one gathered row array.

    ``servers`` holds the distinct destinations in ascending order;
    server ``servers[i]`` receives ``rows[starts[i]:stops[i]]``, in that
    order.  Several servers may share one slice (HyperCube replicates a
    row to every server of its subcube, and they all receive the same
    rows in the same order), so each row is gathered once however many
    servers receive it.  Four arrays, so a process worker ships a
    routed chunk as four pickled buffers.
    """

    servers: np.ndarray
    starts: np.ndarray
    stops: np.ndarray
    rows: np.ndarray


class LoadExceededError(RuntimeError):
    """A server's per-round received bits exceeded its capacity.

    ``capacity`` is the *breaching server's own* effective cap -- on a
    heterogeneous cluster (per-machine ``capacity_bits`` in a
    :class:`~repro.config.MachineSpec`) servers cap at different
    levels, so the error carries the one that was actually exceeded,
    not a global number.
    """

    def __init__(self, server: int, round_index: int, bits: float, capacity: float):
        super().__init__(
            f"server {server} received {bits:.0f} bits in round "
            f"{round_index}, exceeding its capacity {capacity:.0f}"
        )
        self.server = server
        self.round_index = round_index
        self.bits = bits
        self.capacity = capacity


@dataclass
class ServerState:
    """What one server has stored so far: tag -> received row batches.

    :meth:`array_fragment` canonicalizes a tag's batches into one
    deduplicated ``(n, arity)`` array.  With a storage manager
    attached, batches go to per-tag chunked spools (``array_spools``)
    that spill to disk instead of accumulating in RAM.
    """

    server_id: int
    storage: "StorageManager | None" = None
    array_fragments: dict[str, list[np.ndarray]] = field(default_factory=dict)
    array_spools: dict[str, object] = field(default_factory=dict)

    def add_array(self, tag: str, rows: np.ndarray) -> None:
        if self.storage is not None:
            spool = self.array_spools.get(tag)
            if spool is None:
                spool = self.storage.spool(
                    f"srv{self.server_id}-{tag}", rows.shape[1]
                )
                self.array_spools[tag] = spool
            spool.append(rows)
            return
        self.array_fragments.setdefault(tag, []).append(rows)

    def array_fragment(self, tag: str) -> np.ndarray | None:
        """The deduplicated array stored under ``tag`` (None if absent).

        In-memory batches are merged once and cached back; spooled
        batches are merged per call and deliberately *not* cached (the
        caller is about to join and discard them -- pinning the merge
        would hold every server's fragment at once again).
        """
        spool = self.array_spools.get(tag)
        if spool is not None:
            if not len(spool):
                return None
            return merge_batches([spool.to_array()])
        batches = self.array_fragments.get(tag)
        if not batches:
            return None
        merged = merge_batches(batches)
        self.array_fragments[tag] = [merged]
        return merged

    def clear(self, tag: str | None = None) -> None:
        """Forget stored data (free local storage between plan stages)."""
        if tag is None:
            self.array_fragments.clear()
            for spool in self.array_spools.values():
                spool.drop()
            self.array_spools.clear()
        else:
            self.array_fragments.pop(tag, None)
            spool = self.array_spools.pop(tag, None)
            if spool is not None:
                spool.drop()


class MPCSimulation:
    """A ``p``-server MPC execution with bit-level load accounting."""

    def __init__(
        self,
        p: int,
        value_bits: int,
        capacity_bits: float | None = None,
        on_overflow: Literal["fail", "drop"] = "fail",
        storage: "StorageManager | None" = None,
        trace: "TraceRecorder | None" = None,
        machines: "MachineSpec | None" = None,
    ):
        if p < 1:
            raise ValueError("need at least one server")
        if value_bits < 1:
            raise ValueError("value_bits must be >= 1")
        if on_overflow not in ("fail", "drop"):
            raise ValueError("on_overflow must be 'fail' or 'drop'")
        self.p = p
        self.value_bits = value_bits
        self.capacity_bits = capacity_bits
        self.on_overflow = on_overflow
        self.storage = storage
        # Per-server effective caps: each server's own machine cap (the
        # spec extends modularly past machines.p -- block servers of the
        # skew executors live on the same physical machines) tightened
        # by the global cap.  Homogeneous clusters put the global cap in
        # every slot, so the per-delivery comparisons are unchanged.
        self.machines = machines
        caps: list[float | None] = [capacity_bits] * p
        if machines is not None and machines.capacities is not None:
            for s in range(p):
                own = machines.capacity(s)
                if own is not None:
                    caps[s] = own if capacity_bits is None else min(own, capacity_bits)
        self._caps = caps
        # Accounting side-channel: the recorder gets one event per
        # server a delivery reaches.  It does not affect results: it
        # observes the exact accepted/dropped quantities the accounting
        # below computes anyway.  When no trace is passed explicitly, the
        # context-installed recorder (repro.trace.tracing) applies.
        self.trace = trace if trace is not None else active_recorder()
        if self.trace is not None:
            event = {
                "t": "sim",
                "p": p,
                "value_bits": value_bits,
                "capacity_bits": capacity_bits,
                "on_overflow": on_overflow,
                "storage": storage is not None,
            }
            if machines is not None:
                event["machines"] = machines.describe()
            self.trace.emit(event)
        self._servers = [ServerState(s, storage) for s in range(p)]
        self._report = LoadReport(p, machines=machines)
        self._in_round = False
        self._round_load: RoundLoad | None = None
        self._received_bits: list[float] = []
        self._array_outputs: list[list[np.ndarray]] = [[] for _ in range(p)]
        self._output_spools: list[object | None] = [None] * p

    # ------------------------------------------------------------- lifecycle

    def begin_round(self) -> None:
        if self._in_round:
            raise RuntimeError("already inside a round; call end_round first")
        self._in_round = True
        self._round_load = RoundLoad()
        self._received_bits = [0.0] * self.p

    def end_round(self) -> RoundLoad:
        """The synchronization barrier: close the round's accounting."""
        if not self._in_round:
            raise RuntimeError("no round in progress; call begin_round first")
        round_load = self._round_load
        self._report.rounds.append(round_load)
        self._in_round = False
        self._round_load = None
        self._received_bits = []
        if self.trace is not None:
            self.trace.emit({
                "t": "round",
                "r": self._report.num_rounds,
                "total_bits": round_load.total_bits,
                "max_bits": round_load.max_bits,
                "tuples": sum(round_load.tuples.values()),
                "dropped_bits": sum(round_load.dropped_bits.values()),
            })
        return round_load

    # ----------------------------------------------------------- primitives

    def send_array(
        self,
        dest: int,
        tag: str,
        rows: np.ndarray,
        bits_per_tuple: float | None = None,
    ) -> None:
        """Account and store a ``(n, arity)`` row batch at ``dest``.

        Each row costs ``arity * value_bits`` bits on receipt unless
        ``bits_per_tuple`` overrides it.  The one-server case of
        :meth:`send_partition`.
        """
        rows = np.asarray(rows)
        # A 0-d "batch" has no len(); _deliver rejects it by shape.
        size = len(rows) if rows.ndim else 0
        self._deliver(tag, [dest], [0], [size], rows, bits_per_tuple)

    def send_partition(
        self,
        tag: str,
        partition: Partition,
        bits_per_tuple: float | None = None,
    ) -> None:
        """Account and store one routed chunk on every destination.

        Equivalent to one :meth:`send_array` per server, in ascending
        server order: each server's slice is accounted against its own
        cap, in ``drop`` mode each keeps its longest prefix that fits,
        and in ``fail`` mode the first breaching server raises after
        the servers before it were delivered.

        A malformed partition -- ``servers``, ``starts`` and ``stops``
        of different lengths, servers not strictly ascending, or a
        slice not within ``0 <= start <= stop <= len(rows)`` -- raises
        ``ValueError`` before any server receives a row.
        """
        servers, starts, stops, rows = partition
        destinations = servers.tolist()
        starts, stops = starts.tolist(), stops.tolist()
        rows = np.asarray(rows)
        size = len(rows) if rows.ndim else 0
        if not len(destinations) == len(starts) == len(stops):
            raise ValueError(
                f"partition needs one slice per server: {len(destinations)} "
                f"servers, {len(starts)} starts, {len(stops)} stops"
            )
        last_server = -math.inf
        for server, start, stop in zip(destinations, starts, stops):
            if server <= last_server:
                raise ValueError("partition servers must be strictly ascending")
            if not 0 <= start <= stop <= size:
                raise ValueError(
                    f"partition slice [{start}, {stop}) of server {server} "
                    f"is not within the {size} rows"
                )
            last_server = server
        self._deliver(tag, destinations, starts, stops, rows, bits_per_tuple)

    def _deliver(
        self,
        tag: str,
        destinations: list[int],
        starts: list[int],
        stops: list[int],
        rows: np.ndarray,
        bits_per_tuple: float | None,
    ) -> None:
        """The one accounting path: server ``destinations[i]`` receives
        ``rows[starts[i]:stops[i]]``, servers in ascending order."""
        if not self._in_round:
            raise RuntimeError("send outside a round; call begin_round first")
        if destinations:
            low, high = destinations[0], destinations[-1]
            if low < 0 or high >= self.p:
                bad = low if low < 0 else high
                raise ValueError(f"destination {bad} outside [0, {self.p})")
        if rows.ndim != 2:
            raise ValueError(f"need a 2-D (n, arity) batch, got shape {rows.shape}")
        if not destinations or len(rows) == 0:
            return
        bits_per_tuple = float(
            rows.shape[1] * self.value_bits
            if bits_per_tuple is None
            else bits_per_tuple
        )
        round_load = self._round_load
        received_bits = self._received_bits
        caps = self._caps
        trace = self.trace
        round_index = self._report.num_rounds + 1
        for server, start, stop in zip(destinations, starts, stops):
            accept = stop - start
            dropped = 0.0
            # Under a capacity cap the accepted rows are the longest
            # prefix that fits -- the prefix a tuple-at-a-time loop
            # accepts, since all rows of a slice share one cost.
            capacity = caps[server]
            if capacity is not None and bits_per_tuple > 0:
                headroom = capacity - received_bits[server]
                fit = int(headroom // bits_per_tuple) if headroom > 0 else 0
                if fit < accept:
                    if self.on_overflow == "fail":
                        raise LoadExceededError(
                            server,
                            round_index,
                            received_bits[server] + (fit + 1) * bits_per_tuple,
                            capacity,
                        )
                    dropped = (accept - fit) * bits_per_tuple
                    round_load.drop(server, dropped)
                    accept = fit
            accepted_bits = accept * bits_per_tuple
            if accept:
                received_bits[server] += accepted_bits
                self._servers[server].add_array(tag, rows[start:start + accept])
                round_load.add(server, accepted_bits, accept)
            if trace is not None and (accept or dropped):
                trace.send(round_index, server, tag, accepted_bits, accept, dropped)

    # --------------------------------------------------------------- access

    def array_state(
        self, server: int, prefix: str | None = None
    ) -> dict[str, np.ndarray]:
        """The server's fragments for its local computation phase.

        Each tag that received rows maps to one deduplicated
        ``(n, arity)`` array.  With ``prefix``, only tags
        starting with it are merged (co-resident operators' fragments
        stay untouched) and the keys are returned with the prefix
        stripped -- the namespaced-tag convention of the multi-round
        executor.
        """
        state = self._servers[server]
        tags = list(state.array_fragments)
        tags += [t for t in state.array_spools if t not in state.array_fragments]
        out: dict[str, np.ndarray] = {}
        for tag in tags:
            if prefix is not None and not tag.startswith(prefix):
                continue
            merged = state.array_fragment(tag)
            if merged is not None and len(merged):
                out[tag if prefix is None else tag[len(prefix):]] = merged
        return out

    def server(self, server: int) -> ServerState:
        return self._servers[server]

    def clear_all(self, tag: str | None = None) -> None:
        """Drop stored fragments on every server (between plan stages)."""
        for s in self._servers:
            s.clear(tag)

    def output_array(self, server: int, rows: np.ndarray) -> None:
        """Record locally-produced answers given as a ``(n, k)`` array.

        With a storage manager attached the rows go to a per-server
        output spool, so huge answer sets spill instead of pinning RAM.
        """
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise ValueError(f"need a 2-D (n, k) answer array, got {rows.shape}")
        if not len(rows):
            return
        if self.storage is not None:
            spool = self._output_spools[server]
            if spool is None:
                spool = self.storage.spool(f"out{server}", rows.shape[1])
                self._output_spools[server] = spool
            spool.append(rows)
            return
        self._array_outputs[server].append(rows)

    def adopt_output_spool(self, server: int, spool) -> None:
        """Hand an existing chunked spool over as ``server``'s outputs.

        Out-of-core executors whose final per-server results already
        live in manager-owned spools (the multi-round root view) avoid
        re-reading and re-spilling every chunk through
        :meth:`output_array`.
        """
        if self.storage is None:
            raise RuntimeError("adopt_output_spool needs storage mode")
        if self._output_spools[server] is not None or self._array_outputs[server]:
            raise RuntimeError(f"server {server} already holds outputs")
        self._output_spools[server] = spool

    def _array_output_batches(self, server: int) -> list[np.ndarray]:
        batches = list(self._array_outputs[server])
        spool = self._output_spools[server]
        if spool is not None:
            # Copy memmap chunks so each file descriptor closes as the
            # next chunk is read (see ServerState.array_fragment).
            batches.extend(np.array(c) for c in spool.chunks())
        return batches

    def outputs_array(self, width: int) -> np.ndarray:
        """The union of all servers' outputs -- the algorithm's answer.

        One new, canonical, C-ordered ``(n, width)`` array: every
        server's batches concatenated and the union deduplicated
        row-wise.  Callers may write to it without touching the
        simulation's state.
        """
        batches = [
            rows
            for server in range(self.p)
            for rows in self._array_output_batches(server)
        ]
        if not batches:
            return np.empty((0, width), dtype=np.int64)
        merged = merge_batches(batches)
        # A lone canonical batch comes back as the stored object itself.
        return np.array(merged, order="C") if merged is batches[0] else merged

    def output_rows_total(self) -> int:
        """Rows recorded across all servers, duplicates included.

        A streaming-friendly size signal: unlike :meth:`outputs_array` it
        never materializes the union, so a caller can report answer
        volumes without holding them.
        """
        total = 0
        for server in range(self.p):
            total += sum(
                len(rows) for rows in self._array_outputs[server]
            )
            spool = self._output_spools[server]
            if spool is not None:
                total += len(spool)
        return total

    def outputs_of(self, server: int) -> set[tuple[int, ...]]:
        out: set[tuple[int, ...]] = set()
        for rows in self._array_output_batches(server):
            out.update(map(tuple, rows.tolist()))
        return out

    def output_counts(self) -> list[int]:
        """Distinct answers recorded per server."""
        return [len(self.outputs_of(s)) for s in range(self.p)]

    @property
    def report(self) -> LoadReport:
        return self._report

    @property
    def rounds_executed(self) -> int:
        return self._report.num_rounds
