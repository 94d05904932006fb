"""The event recorder behind :mod:`repro.trace`.

A :class:`TraceRecorder` is an append-only list of event dicts with a
few typed helpers; it does **no** I/O while recording (one dict append
per simulator delivery is the entire cost).  Activation is scoped, not
threaded through call signatures: :func:`tracing` installs a recorder
in a :mod:`contextvars` context, and every instrumented component --
:class:`~repro.mpc.simulator.MPCSimulation` at construction,
:class:`~repro.storage.manager.StorageManager` on spill I/O, the
worker-pool drivers on task completion -- picks it up via
:func:`active_recorder`.  With no recorder installed each hook is a
single ``None`` check, which is what keeps tracing off by default with
near-zero overhead.  The trace is the only instrumentation seam: run
metrics are a fold over it (:meth:`repro.metrics.MetricsRegistry.observe`).

Context-variable scoping composes with the concurrency model: a
``Session.run_many`` batch installs one recorder per job inside the
job's own thread context, so concurrent runs never interleave events.

:meth:`TraceRecorder.finish` seals the recording into an immutable
:class:`Trace`, prepending a ``meta`` header and -- given the run's
:class:`~repro.mpc.report.LoadReport` -- appending the per-phase
events and the ``run`` footer (totals, per-server bits, prediction),
so a serialized trace is self-contained.  See :mod:`repro.trace` for
the event schema.
"""

from __future__ import annotations

import json
import pathlib
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.mpc.report import LoadReport
    from repro.trace.query import TraceQuery

_ACTIVE: ContextVar["TraceRecorder | None"] = ContextVar(
    "repro_trace_recorder", default=None
)


def active_recorder() -> "TraceRecorder | None":
    """The recorder installed in the current context (None: tracing off)."""
    return _ACTIVE.get()


@contextmanager
def tracing(
    recorder: "TraceRecorder | None" = None,
) -> Iterator["TraceRecorder"]:
    """Install a recorder for the duration of the ``with`` block.

    .. code-block:: python

        from repro.trace import tracing

        with tracing() as rec:
            result = Session(p=64).run(q, db, "hypercube")
        trace = rec.finish(report=result.load_report)
        trace.write_jsonl("run.jsonl")

    Every simulation, storage manager and pool driver that runs inside
    the block records into ``rec``; nesting installs the inner recorder
    and restores the outer one on exit.  A recording ``Session``
    (``ClusterConfig(trace=...)`` or ``metrics=True``) installs its own
    per-run recorder the same way, so its runs record there, not into
    an enclosing ``tracing()`` block.
    """
    rec = TraceRecorder() if recorder is None else recorder
    token = _ACTIVE.set(rec)
    try:
        yield rec
    finally:
        _ACTIVE.reset(token)


class TraceRecorder:
    """An append-only event sink (see :mod:`repro.trace` for the schema)."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[dict] = []

    def __len__(self) -> int:
        return len(self.events)

    def emit(self, event: dict) -> None:
        """Append one raw event dict (must carry a ``"t"`` type field)."""
        self.events.append(event)

    # ------------------------------------------------------- typed helpers

    def send(
        self,
        round_index: int,
        dest: int,
        tag: str,
        bits: float,
        tuples: int,
        dropped: float = 0.0,
    ) -> None:
        """One simulator delivery: ``bits`` accepted at ``dest``."""
        event = {
            "t": "send",
            "r": round_index,
            "dst": dest,
            "tag": tag,
            "bits": bits,
            "n": tuples,
        }
        if dropped:
            event["drop"] = dropped
        self.events.append(event)

    def spill(self, op: str, path: str | None, nbytes: int) -> None:
        """One spill-file operation (``op``: ``"write"`` or ``"read"``)."""
        self.events.append(
            {"t": "spill", "op": op, "path": path, "bytes": int(nbytes)}
        )

    def task(
        self, kind: str, label: object, seconds: float, pool: str
    ) -> None:
        """One worker-pool task body's own wall time (parent merge order).

        ``pool`` is the kind of the pool that ran it (``pool.kind``).
        """
        self.events.append({
            "t": "task",
            "kind": kind,
            "label": label,
            "seconds": seconds,
            "pool": pool,
        })

    # ------------------------------------------------------------- sealing

    def finish(
        self,
        report: "LoadReport | None" = None,
        meta: dict | None = None,
        wall_seconds: float | None = None,
    ) -> "Trace":
        """Seal the recording into a self-contained :class:`Trace`.

        ``meta`` (query name, label, seed, version, ...) becomes the
        leading ``meta`` event.  With a ``report``, one ``phase`` event
        per instrumented phase and a ``run`` footer (totals, per-server
        bits, prediction, spill counters) are appended, so offline
        consumers need nothing but the file.  The recorder itself is
        left untouched and may keep recording.
        """
        events = list(self.events)
        if meta is not None:
            events.insert(0, {"t": "meta", **meta})
        if report is not None:
            for name, seconds in report.phase_seconds.items():
                events.append({"t": "phase", "name": name, "seconds": seconds})
            server_bits: dict[int, float] = {}
            for round_load in report.rounds:
                for server, bits in round_load.bits.items():
                    server_bits[server] = server_bits.get(server, 0.0) + bits
            footer = {
                "t": "run",
                "p": report.p,
                "strategy": report.strategy,
                "rounds": report.num_rounds,
                "total_bits": report.total_bits,
                "max_load_bits": report.max_load_bits,
                "dropped_bits": report.dropped_bits,
                "predicted_bits": report.predicted_load_bits,
                "predicted_rounds": report.predicted_rounds,
                "server_bits": {
                    str(s): server_bits[s] for s in sorted(server_bits)
                },
            }
            if report.spill_stats:
                footer["spill"] = dict(report.spill_stats)
            if report.machines is not None and not report.machines.is_uniform:
                footer["makespan_bits"] = report.makespan_bits
            if wall_seconds is not None:
                footer["wall_seconds"] = wall_seconds
            events.append(footer)
        return Trace(events)


class Trace:
    """A sealed event sequence, serializable to compact JSONL.

    One JSON object per line, ``separators=(",", ":")`` -- a 10^5-send
    trace is a few MB.  :meth:`query` opens the analysis layer
    (:class:`~repro.trace.query.TraceQuery`).
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[dict]):
        self.events = list(events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.events)

    @property
    def meta(self) -> dict | None:
        """The leading ``meta`` event (None when sealed without one)."""
        for event in self.events:
            if event.get("t") == "meta":
                return event
        return None

    @property
    def run(self) -> dict | None:
        """The ``run`` footer (None when sealed without a report)."""
        for event in reversed(self.events):
            if event.get("t") == "run":
                return event
        return None

    def write_jsonl(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write one compact JSON object per line; returns the path."""
        path = pathlib.Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(json.dumps(event, separators=(",", ":")))
                handle.write("\n")
        return path

    @classmethod
    def read_jsonl(cls, path: str | pathlib.Path) -> "Trace":
        """Load a trace written by :meth:`write_jsonl` (blank lines skipped)."""
        events = []
        with pathlib.Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
        return cls(events)

    def query(self) -> "TraceQuery":
        """A :class:`~repro.trace.query.TraceQuery` over these events."""
        from repro.trace.query import TraceQuery

        return TraceQuery(self)

    def __repr__(self) -> str:
        run = self.run
        suffix = (
            f", strategy={run.get('strategy')!r}" if run is not None else ""
        )
        return f"Trace({len(self.events)} events{suffix})"
