"""The instrument registry behind :mod:`repro.metrics`.

A :class:`MetricsRegistry` holds named, optionally labeled instruments
-- :class:`Counter`, :class:`Gauge`, :class:`Histogram` -- behind one
lock-per-instrument design: looking an instrument up takes the
registry lock once, updating it takes only its own lock.

The engine layers never touch a registry.  :meth:`MetricsRegistry.observe`
folds one run's sealed :class:`~repro.trace.recorder.Trace` into the
series after the run, so the trace event stream is the only
instrumentation seam.  Histogram bucket edges are fixed per metric
family (:data:`SECONDS_EDGES`, :data:`BITS_EDGES`, ...) --
deterministic, so two runs of the same workload fill the same buckets;
the time observations are the ones the trace already carries (task
bodies, the session's run wall time).

Aggregation is snapshot-and-merge: :meth:`MetricsRegistry.snapshot`
produces a plain-JSON dict and :meth:`MetricsRegistry.merge` folds one
in (counters add, gauges keep the newer value and the running max,
histograms add bucket counts, calibration merges via parallel
Welford).  That is how per-run registries roll up into a session's
view and into the process-wide :func:`global_metrics` registry.
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterable, Mapping, Sequence

from repro.metrics.calibration import CalibrationTracker

#: Deterministic bucket edges (upper bounds) by metric-name suffix.
#: Seconds: a decade ladder from 100 microseconds to a minute.
SECONDS_EDGES: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)
#: Bits/bytes: powers of four from 1 KiB to 1 GiB -- load doublings
#: land two buckets apart.
BITS_EDGES: tuple[float, ...] = tuple(float(4**k) for k in range(5, 16))
#: Round counts: the multi-round executors top out well under 16.
ROUNDS_EDGES: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)
#: Fallback: powers of ten.
DEFAULT_EDGES: tuple[float, ...] = tuple(float(10**k) for k in range(0, 9))


def default_edges(name: str) -> tuple[float, ...]:
    """The fixed bucket edges a metric name implies."""
    if name.endswith("_seconds"):
        return SECONDS_EDGES
    if name.endswith(("_bits", "_bytes")):
        return BITS_EDGES
    if name.endswith("_rounds"):
        return ROUNDS_EDGES
    return DEFAULT_EDGES


class Counter:
    """A monotonically increasing float (bits shipped, tasks run, ...)."""

    __slots__ = ("_lock", "value")

    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount

    def _sample(self) -> dict:
        with self._lock:
            return {"value": self.value}

    def _merge(self, sample: Mapping) -> None:
        with self._lock:
            self.value += float(sample.get("value", 0.0))


class Gauge:
    """A last-write-wins level (last round's max load, run makespan).

    Tracks the running maximum alongside the current value -- the high
    watermark is usually the interesting number for loads.
    """

    __slots__ = ("_lock", "value", "max")

    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0
        self.max = 0.0

    def set(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.value = value
            if value > self.max:
                self.max = value

    def _sample(self) -> dict:
        with self._lock:
            return {"value": self.value, "max": self.max}

    def _merge(self, sample: Mapping) -> None:
        with self._lock:
            self.value = float(sample.get("value", 0.0))
            self.max = max(self.max, float(sample.get("max", 0.0)))


class Histogram:
    """Fixed-bucket distribution: cumulative-style exposition, exact sum.

    ``edges`` are finite upper bounds; one implicit overflow bucket
    catches everything beyond the last edge, so ``sum(counts) ==
    count`` always holds.
    """

    __slots__ = ("_lock", "edges", "counts", "sum", "count")

    kind = "histogram"

    def __init__(self, edges: Sequence[float]) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges or list(edges) != sorted(set(edges)):
            raise ValueError("histogram edges must be sorted and distinct")
        self._lock = threading.Lock()
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.edges, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def percentile(self, q: float) -> float:
        """The upper edge of the bucket holding the ``q``-th percentile.

        A bucketed estimate (exact values are not retained); the
        overflow bucket reports the last finite edge.
        """
        with self._lock:
            total = self.count
            counts = list(self.counts)
        if total == 0:
            return 0.0
        rank = max(1, int(round(q / 100.0 * total)))
        seen = 0
        for index, bucket in enumerate(counts):
            seen += bucket
            if seen >= rank:
                return self.edges[min(index, len(self.edges) - 1)]
        return self.edges[-1]

    def _sample(self) -> dict:
        with self._lock:
            return {
                "edges": list(self.edges),
                "counts": list(self.counts),
                "sum": self.sum,
                "count": self.count,
            }

    def _merge(self, sample: Mapping) -> None:
        if tuple(sample.get("edges", ())) != self.edges:
            raise ValueError(
                "cannot merge histograms with different bucket edges"
            )
        with self._lock:
            for index, bucket in enumerate(sample.get("counts", ())):
                self.counts[index] += int(bucket)
            self.sum += float(sample.get("sum", 0.0))
            self.count += int(sample.get("count", 0))


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Named counters/gauges/histograms plus a calibration tracker.

    See :mod:`repro.metrics` for the metric-name schema.  Instruments
    are created on first use and identified by ``(name, labels)``; a
    name is permanently bound to one instrument kind (and, for
    histograms, one edge tuple), so snapshots from different processes
    always merge cleanly.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}
        self.calibration = CalibrationTracker()

    # ----------------------------------------------------------- instruments

    def _instrument(self, kind: str, name: str, labels: dict, edges=None):
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        with self._lock:
            instrument = self._series.get(key)
            if instrument is None:
                if kind == "histogram":
                    instrument = Histogram(
                        edges if edges is not None else default_edges(name)
                    )
                else:
                    instrument = _KINDS[kind]()
                self._series[key] = instrument
            elif instrument.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {instrument.kind}, not a {kind}"
                )
            return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._instrument("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._instrument("gauge", name, labels)

    def histogram(
        self, name: str, edges: Sequence[float] | None = None, **labels
    ) -> Histogram:
        return self._instrument("histogram", name, labels, edges=edges)

    def value(self, name: str, **labels) -> float:
        """A counter/gauge's current value (0.0 when never touched)."""
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        with self._lock:
            instrument = self._series.get(key)
        if instrument is None:
            return 0.0
        return instrument._sample()["value"]

    def total(self, name: str) -> float:
        """A counter's value summed across all label sets of ``name``."""
        with self._lock:
            series = [
                instrument for (n, _), instrument in self._series.items()
                if n == name
            ]
        return sum(s._sample().get("value", 0.0) for s in series)

    # ------------------------------------------------------------------ fold

    def observe(self, trace: Iterable[Mapping]) -> "MetricsRegistry":
        """Fold one run's sealed trace events into the series; returns self.

        Replays, in event order: ``sim``/``send`` into the four
        ``repro_sim_*_total`` delivery counters (all four exist once a
        simulation does), ``round`` into the rounds counter and the
        max-bits gauge, ``spill`` into the spill I/O counters, ``task``
        into the per-``pool`` task counter and seconds histogram, and
        the ``run`` footer into the ``repro_run_*`` series under its
        strategy.  See :mod:`repro.metrics` for the schema.
        """
        delivery: tuple[Counter, ...] = ()
        for event in trace:
            kind = event["t"]
            if kind == "send":
                sends, bits, tuples, dropped = delivery
                sends.inc()
                bits.inc(event["bits"])
                tuples.inc(event["n"])
                if "drop" in event:
                    dropped.inc(event["drop"])
            elif kind == "sim":
                self.counter("repro_sim_simulations_total").inc()
                delivery = tuple(
                    self.counter(f"repro_sim_{name}_total")
                    for name in ("sends", "bits", "tuples", "dropped_bits")
                )
            elif kind == "round":
                self.counter("repro_sim_rounds_total").inc()
                self.gauge("repro_sim_round_max_bits").set(event["max_bits"])
            elif kind == "spill":
                op = event["op"]
                moved = "written" if op == "write" else "read"
                self.counter(f"repro_spill_bytes_{moved}_total").inc(
                    event["bytes"]
                )
                self.counter(f"repro_spill_{op}s_total").inc()
            elif kind == "task":
                pool = event["pool"]
                self.counter("repro_pool_tasks_total", kind=pool).inc()
                self.histogram("repro_pool_task_seconds", kind=pool).observe(
                    event["seconds"]
                )
            elif kind == "run":
                strategy = event["strategy"]
                self.counter("repro_runs_total", strategy=strategy).inc()
                if "wall_seconds" in event:
                    self.histogram(
                        "repro_run_seconds", strategy=strategy
                    ).observe(event["wall_seconds"])
                self.histogram("repro_run_rounds", strategy=strategy).observe(
                    event["rounds"]
                )
                self.histogram(
                    "repro_run_load_bits", strategy=strategy
                ).observe(event["max_load_bits"])
                if "makespan_bits" in event:
                    self.gauge(
                        "repro_run_makespan_bits", strategy=strategy
                    ).set(event["makespan_bits"])
        return self

    # ------------------------------------------------------ snapshot / merge

    def snapshot(self) -> dict:
        """The registry as one plain-JSON dict (see :mod:`repro.metrics`)."""
        with self._lock:
            items = sorted(self._series.items())
        metrics = []
        for (name, labels), instrument in items:
            row = {
                "name": name,
                "type": instrument.kind,
                "labels": dict(labels),
            }
            row.update(instrument._sample())
            metrics.append(row)
        return {
            "schema": "repro.metrics/1",
            "metrics": metrics,
            "calibration": self.calibration.snapshot(),
        }

    def merge(self, snapshot: Mapping) -> None:
        """Fold a :meth:`snapshot` in (per-run or per-session registries)."""
        for row in snapshot.get("metrics", ()):
            instrument = self._instrument(
                row["type"],
                row["name"],
                dict(row.get("labels", {})),
                edges=row.get("edges"),
            )
            instrument._merge(row)
        self.calibration.merge(snapshot.get("calibration", {}))

    def reset(self) -> None:
        """Drop every instrument and the calibration history."""
        with self._lock:
            self._series.clear()
        self.calibration = CalibrationTracker()

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self)} series)"


# ------------------------------------------------------------- global view

_GLOBAL = MetricsRegistry()


def global_metrics() -> MetricsRegistry:
    """The process-wide registry every session view aggregates into."""
    return _GLOBAL
