"""Filter/group/aggregate analysis over a recorded trace.

:class:`TraceQuery` answers the questions a `LoadReport` aggregate
cannot: *which* servers were heaviest, *which* relation tags carried
the bits, how each round's measured load compares to the planner's
prediction, and where spill I/O went.  It works equally over an
in-memory :class:`~repro.trace.recorder.Trace`, a recorder, a JSONL
path, or any iterable of event dicts, so the same code serves live
analysis and offline tooling (`python -m repro trace`).

Every aggregate is derived from the per-event stream, not the ``run``
footer -- which is what makes :meth:`reconcile` a real check: it
compares the event-derived per-server bit totals against an
independently accounted :class:`~repro.mpc.report.LoadReport` and
returns the (expected empty) dict of discrepancies.
"""

from __future__ import annotations

import pathlib
from typing import TYPE_CHECKING, Iterable

from repro.trace.recorder import Trace

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.config import MachineSpec
    from repro.mpc.report import LoadReport


class TraceQuery:
    """Queryable view over trace events (see :mod:`repro.trace`)."""

    def __init__(
        self, source: "Trace | str | pathlib.Path | Iterable[dict]"
    ) -> None:
        if isinstance(source, (str, pathlib.Path)):
            self.events = Trace.read_jsonl(source).events
        elif hasattr(source, "events"):
            self.events = list(source.events)
        else:
            self.events = list(source)

    def _of_type(self, kind: str) -> list[dict]:
        return [e for e in self.events if e.get("t") == kind]

    # ------------------------------------------------------------- filters

    def sends(
        self,
        round_index: int | None = None,
        server: int | None = None,
        tag: str | None = None,
    ) -> list[dict]:
        """``send`` events, optionally filtered by round/destination/tag."""
        out = []
        for e in self._of_type("send"):
            if round_index is not None and e.get("r") != round_index:
                continue
            if server is not None and e.get("dst") != server:
                continue
            if tag is not None and e.get("tag") != tag:
                continue
            out.append(e)
        return out

    # ---------------------------------------------------------- aggregates

    def server_bits(self, round_index: int | None = None) -> dict[int, float]:
        """Accepted bits per destination server, summed over sends."""
        totals: dict[int, float] = {}
        for e in self.sends(round_index=round_index):
            dst = e["dst"]
            totals[dst] = totals.get(dst, 0.0) + e.get("bits", 0.0)
        return totals

    def top_servers(
        self, k: int = 5, round_index: int | None = None
    ) -> list[tuple[int, float]]:
        """The ``k`` heaviest servers as ``(server, bits)``, heaviest first."""
        totals = self.server_bits(round_index=round_index)
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[: max(0, k)]

    def tag_bits(self) -> dict[str, float]:
        """Accepted bits per relation/fragment tag."""
        totals: dict[str, float] = {}
        for e in self._of_type("send"):
            tag = e.get("tag", "?")
            totals[tag] = totals.get(tag, 0.0) + e.get("bits", 0.0)
        return totals

    def hottest_tags(self, k: int = 5) -> list[tuple[str, float]]:
        """The ``k`` heaviest tags as ``(tag, bits)``, heaviest first."""
        ranked = sorted(
            self.tag_bits().items(), key=lambda kv: (-kv[1], str(kv[0]))
        )
        return ranked[: max(0, k)]

    def total_bits(self) -> float:
        """Accepted bits summed over every send event."""
        return sum(e.get("bits", 0.0) for e in self._of_type("send"))

    def dropped_bits(self) -> float:
        """Capacity-dropped bits summed over every send event."""
        return sum(e.get("drop", 0.0) for e in self._of_type("send"))

    def round_totals(self) -> list[dict]:
        """Per-round summaries, from ``round`` events when present.

        Falls back to recomputing from the send stream for truncated
        traces (e.g. a recording cut short by a capacity failure).
        Each row: ``{"r", "total_bits", "max_bits", "tuples",
        "dropped_bits", "sends"}``.
        """
        recorded = {e["r"]: e for e in self._of_type("round")}
        rows: dict[int, dict] = {}
        for e in self._of_type("send"):
            row = rows.setdefault(
                e["r"],
                {
                    "r": e["r"],
                    "total_bits": 0.0,
                    "tuples": 0,
                    "dropped_bits": 0.0,
                    "sends": 0,
                    "_server": {},
                },
            )
            row["total_bits"] += e.get("bits", 0.0)
            row["tuples"] += e.get("n", 0)
            row["dropped_bits"] += e.get("drop", 0.0)
            row["sends"] += 1
            server = row["_server"]
            server[e["dst"]] = server.get(e["dst"], 0.0) + e.get("bits", 0.0)
        out = []
        for r in sorted(set(rows) | set(recorded)):
            computed = rows.get(r)
            base = dict(recorded.get(r, {}))
            base.pop("t", None)
            row = {
                "r": r,
                "total_bits": base.get(
                    "total_bits",
                    computed["total_bits"] if computed else 0.0,
                ),
                "max_bits": base.get(
                    "max_bits",
                    max(computed["_server"].values(), default=0.0)
                    if computed
                    else 0.0,
                ),
                "tuples": base.get(
                    "tuples", computed["tuples"] if computed else 0
                ),
                "dropped_bits": base.get(
                    "dropped_bits",
                    computed["dropped_bits"] if computed else 0.0,
                ),
                "sends": computed["sends"] if computed else 0,
            }
            out.append(row)
        return out

    def phases(self) -> dict[str, float]:
        """Per-phase exclusive wall time: ``name -> seconds``."""
        return {e["name"]: e.get("seconds") or 0.0 for e in self._of_type("phase")}

    def spill_totals(self) -> dict[str, float]:
        """Spill I/O summed over spill events.

        ``{"bytes_written", "writes", "bytes_read", "reads"}`` --
        zeroes for in-memory runs.
        """
        totals = {
            "bytes_written": 0,
            "writes": 0,
            "bytes_read": 0,
            "reads": 0,
        }
        for e in self._of_type("spill"):
            nbytes = int(e.get("bytes", 0))
            if e.get("op") == "write":
                totals["bytes_written"] += nbytes
                totals["writes"] += 1
            elif e.get("op") == "read":
                totals["bytes_read"] += nbytes
                totals["reads"] += 1
        return totals

    def task_totals(self) -> dict[str, dict[str, float]]:
        """Worker-task counts and summed in-task seconds, per task kind."""
        out: dict[str, dict[str, float]] = {}
        for e in self._of_type("task"):
            row = out.setdefault(e.get("kind", "?"), {
                "count": 0, "seconds": 0.0,
            })
            row["count"] += 1
            row["seconds"] += e.get("seconds", 0.0)
        return out

    def run(self) -> dict | None:
        """The ``run`` footer event, if the trace was sealed with one."""
        for e in reversed(self.events):
            if e.get("t") == "run":
                return e
        return None

    # -------------------------------------------------------- heterogeneity

    def machines(self) -> "MachineSpec | None":
        """The machine spec the traced run executed under, if recorded.

        Parsed back from the ``machines`` describe string that the
        ``meta`` header (session runs) or the ``sim`` event (bare
        simulator runs) carries; ``None`` for traces of homogeneous
        runs, which record no spec.
        """
        from repro.config import MachineSpec

        for e in self.events:
            if e.get("t") in ("meta", "sim") and e.get("machines"):
                return MachineSpec.parse(e["machines"])
        return None

    def speed_class_bits(
        self, round_index: int | None = None
    ) -> list[dict] | None:
        """Accepted bits grouped by machine speed class.

        Each row: ``{"speed", "servers", "bits", "bits_per_speed"}``
        (``bits_per_speed`` = the class's summed bits divided by its
        summed speed -- the class's contribution to makespan pressure).
        Servers beyond the spec's size map modularly onto it, matching
        the executors' block-server placement.  ``None`` when the trace
        records no machine spec.
        """
        machines = self.machines()
        if machines is None:
            return None
        per_class: dict[float, dict] = {
            speed: {"speed": speed, "servers": len(servers), "bits": 0.0}
            for speed, servers in machines.speed_classes().items()
        }
        for server, bits in self.server_bits(round_index=round_index).items():
            per_class[machines.speed(server)]["bits"] += bits
        rows = []
        for speed in sorted(per_class):
            row = per_class[speed]
            row["bits_per_speed"] = row["bits"] / (speed * row["servers"])
            rows.append(row)
        return rows

    def makespan_bits(self) -> float | None:
        """Measured makespan: max over rounds and servers of bits/speed.

        The speed-normalized analogue of the ``L`` the ``run`` footer
        carries (both take the worst round), recomputed from the send
        stream; ``None`` when the trace records no machine spec.
        """
        machines = self.machines()
        if machines is None:
            return None
        rounds: dict[int, dict[int, float]] = {}
        for e in self._of_type("send"):
            per_server = rounds.setdefault(e["r"], {})
            dst = e["dst"]
            per_server[dst] = per_server.get(dst, 0.0) + e.get("bits", 0.0)
        return max(
            (
                bits / machines.speed(s)
                for per_server in rounds.values()
                for s, bits in per_server.items()
            ),
            default=0.0,
        )

    def predicted_deltas(self) -> list[dict]:
        """Per-round measured max load vs the planner's predicted L.

        The cost model predicts one per-round maximum load; each row
        compares a round's measured ``max_bits`` against it.  ``ratio``
        is None when there is no prediction or it is zero (empty-input
        runs), never a division by zero.
        """
        run = self.run()
        predicted = run.get("predicted_bits") if run else None
        rows = []
        for round_row in self.round_totals():
            measured = round_row["max_bits"]
            delta = None if predicted is None else measured - predicted
            ratio = (
                measured / predicted
                if predicted is not None and predicted > 0
                else None
            )
            rows.append({
                "r": round_row["r"],
                "measured_max_bits": measured,
                "predicted_bits": predicted,
                "delta_bits": delta,
                "ratio": ratio,
            })
        return rows

    # ------------------------------------------------------- verification

    def reconcile(self, report: "LoadReport") -> dict[int, tuple[float, float]]:
        """Differences between event-derived and report per-server bits.

        Returns ``{server: (trace_bits, report_bits)}`` for every
        server where the two disagree -- empty means the trace
        reconciles exactly with the independently accounted
        :class:`~repro.mpc.report.LoadReport`.
        """
        trace_totals = self.server_bits()
        report_totals: dict[int, float] = {}
        for round_load in report.rounds:
            for server, bits in round_load.bits.items():
                report_totals[server] = report_totals.get(server, 0.0) + bits
        mismatches: dict[int, tuple[float, float]] = {}
        for server in sorted(set(trace_totals) | set(report_totals)):
            a = trace_totals.get(server, 0.0)
            b = report_totals.get(server, 0.0)
            if a != b:
                mismatches[server] = (a, b)
        return mismatches
