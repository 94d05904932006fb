"""Load accounting for MPC executions.

The MPC model's cost metrics (Section 2.1): the number of rounds ``r``
and the maximum load ``L = max over servers and rounds of bits received
in one round``.  Section 3.4 additionally defines the *replication
rate* ``r = sum_s L_s / |I|`` -- how many times each input bit is
communicated on average.  :class:`LoadReport` collects all of these
from a finished simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.config import MachineSpec


@dataclass
class RoundLoad:
    """Bits and tuples received by every server during one round."""

    bits: dict[int, float] = field(default_factory=dict)
    tuples: dict[int, int] = field(default_factory=dict)
    dropped_bits: dict[int, float] = field(default_factory=dict)

    def add(self, server: int, bits: float, tuples: int) -> None:
        self.bits[server] = self.bits.get(server, 0.0) + bits
        self.tuples[server] = self.tuples.get(server, 0) + tuples

    def drop(self, server: int, bits: float) -> None:
        self.dropped_bits[server] = self.dropped_bits.get(server, 0.0) + bits

    def bits_array(self, p: int) -> np.ndarray:
        """Per-server received bits as a dense length-``p`` array.

        Servers that received nothing this round appear as 0 -- they
        are real servers and belong in every percentile.
        """
        out = np.zeros(p, dtype=np.float64)
        if self.bits:
            index = np.fromiter(self.bits.keys(), dtype=np.int64,
                                count=len(self.bits))
            values = np.fromiter(self.bits.values(), dtype=np.float64,
                                 count=len(self.bits))
            out[index] = values
        return out

    @property
    def max_bits(self) -> float:
        return max(self.bits.values(), default=0.0)

    @property
    def max_tuples(self) -> int:
        return max(self.tuples.values(), default=0)

    @property
    def total_bits(self) -> float:
        return sum(self.bits.values())


@dataclass
class LoadReport:
    """Per-round load history of a complete MPC execution.

    When the execution was chosen by the cost-based planner, the
    planner attaches its prediction (:meth:`attach_prediction`) so
    every report can answer "how close was the model?" via
    :meth:`prediction_ratio`.
    """

    p: int
    rounds: list[RoundLoad] = field(default_factory=list)
    strategy: str | None = None
    predicted_load_bits: float | None = None
    predicted_rounds: int | None = None
    #: Exclusive wall-clock seconds per execution phase
    #: (``generate``/``route``/``ship``/``join``/``merge``), attached by
    #: the instrumented executors via
    #: :meth:`repro.mpc.timing.PhaseTimer.attach`.  Empty when the
    #: executor does not instrument (the tuple-backend baselines).
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Exclusive *bits delivered* per execution phase -- the
    #: communication-volume twin of :attr:`phase_seconds`, accounted by
    #: the simulator against the innermost active phase on every
    #: accepted delivery.  For instrumented executors the values sum to
    #: :attr:`total_bits`; empty for the uninstrumented baselines.
    #: (Named ``phase_bytes`` for symmetry with the trace tooling; the
    #: unit is the model's load unit, bits.)
    phase_bytes: dict[str, float] = field(default_factory=dict)
    #: Spill I/O deltas for this run when it executed against a
    #: :class:`~repro.storage.manager.StorageManager`
    #: (:meth:`attach_spill`): ``bytes_written``, ``bytes_read``,
    #: ``files_created``, ``peak_live_bytes``.  None for in-memory runs.
    spill_stats: dict[str, int] | None = None
    #: The cluster's machine spec when the run was heterogeneous
    #: (per-server speeds/capacities); None for the homogeneous model.
    #: Enables the speed-normalized metrics (:meth:`makespan_bits`,
    #: :meth:`normalized_percentiles`) -- with unit speeds they all
    #: coincide with the raw-load ones.
    machines: "MachineSpec | None" = None

    def attach_prediction(
        self,
        strategy: str,
        load_bits: float,
        rounds: int | None = None,
    ) -> None:
        """Record the cost model's prediction for this execution."""
        self.strategy = strategy
        self.predicted_load_bits = float(load_bits)
        self.predicted_rounds = rounds

    def attach_spill(self, stats: dict[str, int]) -> None:
        """Record the run's spill I/O counters (out-of-core runs)."""
        self.spill_stats = dict(stats)

    def prediction_ratio(self) -> float | None:
        """``measured L / predicted L`` (None without a prediction).

        Values near 1 mean the closed-form cost model was accurate;
        values well below 1 mean it was conservative.
        """
        if not self.predicted_load_bits:
            return None
        return self.max_load_bits / self.predicted_load_bits

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def max_load_bits(self) -> float:
        """``L``: the paper's maximum load, in bits."""
        return max((r.max_bits for r in self.rounds), default=0.0)

    @property
    def max_load_tuples(self) -> int:
        """Maximum tuples received by any server in any round."""
        return max((r.max_tuples for r in self.rounds), default=0)

    @property
    def total_bits(self) -> float:
        """All bits communicated over the whole execution."""
        return sum(r.total_bits for r in self.rounds)

    def server_total_bits(self, server: int) -> float:
        """``L_s`` summed over rounds for one server."""
        return sum(r.bits.get(server, 0.0) for r in self.rounds)

    def round_max_bits(self, round_index: int) -> float:
        return self.rounds[round_index].max_bits

    def replication_rate(self, input_bits: float) -> float:
        """Section 3.4: ``r = sum_s L_s / |I|``."""
        if input_bits <= 0:
            raise ValueError("input size must be positive")
        return self.total_bits / input_bits

    def server_bits_array(self, round_index: int | None = None) -> np.ndarray:
        """Per-server bits, dense over all ``p`` servers.

        For one round when ``round_index`` is given; otherwise each
        server's *worst* round (element-wise max), so the array's
        maximum is exactly :attr:`max_load_bits`.
        """
        if round_index is not None:
            return self.rounds[round_index].bits_array(self.p)
        out = np.zeros(self.p, dtype=np.float64)
        for r in self.rounds:
            np.maximum(out, r.bits_array(self.p), out=out)
        return out

    def load_percentiles(
        self, quantiles: tuple[int, ...] = (50, 90, 99)
    ) -> dict[str, float]:
        """Distribution of per-server worst-round loads, vectorized.

        Returns ``{"p50": ..., "p90": ..., "p99": ..., "max": ...}``
        (keys follow ``quantiles``); ``max`` always equals
        :attr:`max_load_bits`.  The spread between p50 and max is the
        skew signal the paper's Section 4 algorithms exist to flatten:
        a balanced HyperCube run has p99 close to the median, a heavy
        hitter shows up as max detaching from p99.
        """
        bits = self.server_bits_array()
        out = {
            f"p{q}": float(np.percentile(bits, q)) if len(bits) else 0.0
            for q in quantiles
        }
        out["max"] = float(bits.max()) if len(bits) else 0.0
        return out

    def percentile_line(self) -> str:
        """The one-line p50/p90/p99/max rendering used by summaries."""
        pct = self.load_percentiles()
        return (
            f"per-server bits: p50 {pct['p50']:.0f}, p90 {pct['p90']:.0f}, "
            f"p99 {pct['p99']:.0f}, max {pct['max']:.0f}"
        )

    @property
    def dropped_bits(self) -> float:
        """Bits discarded by capacity truncation (0 in normal runs)."""
        return sum(sum(r.dropped_bits.values()) for r in self.rounds)

    def server_dropped_bits(self, server: int) -> float:
        """Bits capacity-truncation discarded at one server, all rounds.

        The per-server view of :attr:`dropped_bits`: on a cluster with
        per-machine capacities, drops concentrate at the small-cap
        servers, and this is how a report answers "who dropped?".
        """
        return sum(r.dropped_bits.get(server, 0.0) for r in self.rounds)

    # ------------------------------------------------- heterogeneous metrics

    def speeds_array(self) -> np.ndarray:
        """Per-server relative speeds (all 1.0 without a machine spec).

        Servers beyond ``machines.p`` (skew executors' block servers)
        take the spec's modular extension, matching the simulator.
        """
        if self.machines is None:
            return np.ones(self.p, dtype=np.float64)
        return np.array(
            [self.machines.speed(s) for s in range(self.p)], dtype=np.float64
        )

    @property
    def makespan_bits(self) -> float:
        """Predicted-completion load: ``max over rounds, servers of L_s / v_s``.

        The heterogeneous-cluster replacement for :attr:`max_load_bits`
        (arXiv 2501.08896's objective): a server processes its received
        bits at its own speed, so the round finishes when the *slowest
        relative to its load* server does.  With unit speeds this is
        exactly ``max_load_bits``.
        """
        speeds = self.speeds_array()
        out = 0.0
        for r in self.rounds:
            if r.bits:
                out = max(out, float((r.bits_array(self.p) / speeds).max()))
        return out

    def normalized_server_bits_array(self) -> np.ndarray:
        """Each server's worst-round load divided by its speed."""
        return self.server_bits_array() / self.speeds_array()

    def normalized_percentiles(
        self, quantiles: tuple[int, ...] = (50, 90, 99)
    ) -> dict[str, float]:
        """Percentiles of speed-normalized per-server loads.

        The heterogeneity twin of :meth:`load_percentiles`: a fast
        server carrying proportionally more bits is *balanced* here even
        though its raw load sticks out.  ``max`` is the worst-round
        per-server makespan contribution (equals :attr:`makespan_bits`
        when all of a server's load arrives in its worst round).
        """
        bits = self.normalized_server_bits_array()
        out = {
            f"p{q}": float(np.percentile(bits, q)) if len(bits) else 0.0
            for q in quantiles
        }
        out["max"] = float(bits.max()) if len(bits) else 0.0
        return out

    def summary(self) -> str:
        lines = [f"MPC execution: p={self.p}, rounds={self.num_rounds}"]
        for i, r in enumerate(self.rounds, 1):
            lines.append(
                f"  round {i}: max load {r.max_bits:.0f} bits"
                f" ({r.max_tuples} tuples), total {r.total_bits:.0f} bits"
            )
        lines.append(f"  L = {self.max_load_bits:.0f} bits")
        lines.append(f"  {self.percentile_line()}")
        if self.machines is not None and not self.machines.is_uniform:
            pct = self.normalized_percentiles()
            lines.append(
                f"  machines: {self.machines.describe()}, makespan "
                f"{self.makespan_bits:.0f} bits/speed (normalized p50 "
                f"{pct['p50']:.0f}, p99 {pct['p99']:.0f})"
            )
        if self.phase_seconds or self.phase_bytes:
            from repro.mpc.timing import format_phases

            lines.append(
                f"  phases: {format_phases(self.phase_seconds, self.phase_bytes)}"
            )
        if self.spill_stats:
            stats = self.spill_stats
            lines.append(
                "  spill I/O: wrote "
                f"{stats.get('bytes_written', 0) / 2**20:.2f} MiB in "
                f"{stats.get('files_created', 0)} spill file(s), read "
                f"{stats.get('bytes_read', 0) / 2**20:.2f} MiB, peak live "
                f"{stats.get('peak_live_bytes', 0) / 2**20:.2f} MiB"
            )
        if self.predicted_load_bits is not None:
            ratio = self.prediction_ratio()
            # `ratio is not None` (not truthiness): a zero-measured-load
            # run against a positive prediction has ratio 0.0 and must
            # still render.
            lines.append(
                f"  planner: strategy={self.strategy or '?'}, predicted "
                f"L = {self.predicted_load_bits:.0f} bits"
                + (
                    f" (measured/predicted = {ratio:.2f})"
                    if ratio is not None
                    else ""
                )
            )
        return "\n".join(lines)
