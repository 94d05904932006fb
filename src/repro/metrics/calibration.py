"""Prediction-calibration tracking: measured vs predicted load, per strategy.

The planner attaches its cost-model prediction to every executed run
(:meth:`~repro.mpc.report.LoadReport.prediction_ratio` = measured L /
predicted L); a :class:`CalibrationTracker` folds that stream of
ratios into per-strategy running error statistics -- count, mean,
variance (Welford), min/max, last -- without retaining the runs.  A
ratio near 1.0 means the cost model prices the strategy well; a drift
away from it is the signal the ROADMAP's adaptive-planning loop
recalibrates from.

Merging uses the parallel Welford update (Chan et al.), so per-run
and per-session trackers combine into exactly the statistics one
sequential tracker would have produced, up to float associativity.
"""

from __future__ import annotations

import math
import threading
from typing import Mapping


class CalibrationTracker:
    """Running measured/predicted ratio statistics, keyed by strategy."""

    __slots__ = ("_lock", "_stats")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # strategy -> [count, mean, m2, min, max, last]
        self._stats: dict[str, list[float]] = {}

    def observe(self, strategy: str, ratio: float) -> None:
        """Fold one run's measured/predicted ratio in."""
        ratio = float(ratio)
        with self._lock:
            row = self._stats.get(strategy)
            if row is None:
                self._stats[strategy] = [1, ratio, 0.0, ratio, ratio, ratio]
                return
            row[0] += 1
            delta = ratio - row[1]
            row[1] += delta / row[0]
            row[2] += delta * (ratio - row[1])
            row[3] = min(row[3], ratio)
            row[4] = max(row[4], ratio)
            row[5] = ratio

    def stats(self) -> dict[str, dict[str, float]]:
        """Human-facing view: ``{strategy: {count, mean, stddev, ...}}``."""
        out = {}
        for strategy, row in sorted(self.snapshot().items()):
            count = row["count"]
            out[strategy] = {
                "count": count,
                "mean": row["mean"],
                "stddev": (
                    math.sqrt(row["m2"] / (count - 1)) if count > 1 else 0.0
                ),
                "min": row["min"],
                "max": row["max"],
                "last": row["last"],
            }
        return out

    # ------------------------------------------------------ snapshot / merge

    def snapshot(self) -> dict[str, dict[str, float]]:
        """The mergeable raw form (keeps ``m2``, not the derived stddev)."""
        with self._lock:
            return {
                strategy: {
                    "count": row[0],
                    "mean": row[1],
                    "m2": row[2],
                    "min": row[3],
                    "max": row[4],
                    "last": row[5],
                }
                for strategy, row in self._stats.items()
            }

    def merge(self, snapshot: Mapping[str, Mapping[str, float]]) -> None:
        """Fold another tracker's :meth:`snapshot` in (parallel Welford)."""
        for strategy, other in snapshot.items():
            nb = int(other.get("count", 0))
            if nb == 0:
                continue
            with self._lock:
                row = self._stats.get(strategy)
                if row is None:
                    self._stats[strategy] = [
                        nb, float(other["mean"]), float(other.get("m2", 0.0)),
                        float(other["min"]), float(other["max"]),
                        float(other["last"]),
                    ]
                    continue
                na, mean_a, m2_a = row[0], row[1], row[2]
                n = na + nb
                delta = float(other["mean"]) - mean_a
                row[0] = n
                row[1] = mean_a + delta * nb / n
                row[2] = (
                    m2_a + float(other.get("m2", 0.0))
                    + delta * delta * na * nb / n
                )
                row[3] = min(row[3], float(other["min"]))
                row[4] = max(row[4], float(other["max"]))
                row[5] = float(other["last"])

    def __len__(self) -> int:
        with self._lock:
            return len(self._stats)

    def __repr__(self) -> str:
        return f"CalibrationTracker({len(self)} strategies)"
