"""Rendering and diffing of metrics snapshots.

Two formats over one :meth:`MetricsRegistry.snapshot` dict:

* :func:`render_text` -- Prometheus-style exposition (``# HELP`` /
  ``# TYPE`` headers, ``name{label="v"} value`` samples, cumulative
  ``_bucket{le=...}`` / ``_sum`` / ``_count`` histogram series) plus
  the calibration tracker as per-strategy gauge samples.  Line format
  only; nothing here serves HTTP.
* :func:`write_snapshot` / :func:`load_snapshot` -- the JSON artifact
  the CLI renders and diffs offline.

:func:`diff_snapshots` subtracts one snapshot from another series by
series (counters and histogram counts/sums subtract, gauges pair up as
``before -> after``), which is how ``python -m repro metrics A --diff
B`` turns two workload snapshots into "what happened in between".
"""

from __future__ import annotations

import json
import pathlib
from typing import Mapping

#: One-line help per metric family (rendered as ``# HELP``).
HELP: dict[str, str] = {
    "repro_sim_simulations_total": "MPC simulations constructed.",
    "repro_sim_sends_total": "Simulator deliveries accounted.",
    "repro_sim_bits_total":
        "Accepted bits across deliveries (the model's load unit).",
    "repro_sim_tuples_total": "Accepted tuples across deliveries.",
    "repro_sim_dropped_bits_total": "Capacity-dropped bits.",
    "repro_sim_rounds_total": "Communication rounds closed.",
    "repro_sim_round_max_bits":
        "Last closed round's max per-server bits (gauge; max = worst round).",
    "repro_spill_bytes_written_total": "Bytes written to spill segments.",
    "repro_spill_writes_total": "Appends to spill segment files.",
    "repro_spill_bytes_read_total": "Bytes read back from spill segments.",
    "repro_spill_reads_total": "Spill chunk reads and worker handles.",
    "repro_pool_tasks_total": "Worker-pool tasks completed, by pool kind.",
    "repro_pool_task_seconds":
        "Task-body wall time measured inside the worker, by pool kind.",
    "repro_runs_total": "Session runs, by strategy.",
    "repro_run_seconds":
        "Session wall time per run, by strategy (throughput = count / sum).",
    "repro_run_rounds": "Rounds per run, by strategy.",
    "repro_run_load_bits": "Per-run max per-server load L, by strategy.",
    "repro_run_makespan_bits":
        "Speed-normalized makespan of the last heterogeneous run (gauge).",
    "repro_calibration_ratio":
        "Measured/predicted load ratio statistics, by strategy.",
    "repro_calibration_runs_total": "Runs folded into calibration.",
}


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_text(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_text(snapshot: Mapping) -> str:
    """Prometheus-style text exposition of one snapshot."""
    by_name: dict[str, list[dict]] = {}
    for row in snapshot.get("metrics", ()):
        by_name.setdefault(row["name"], []).append(row)
    lines: list[str] = []
    for name in sorted(by_name):
        rows = by_name[name]
        kind = rows[0]["type"]
        if name in HELP:
            lines.append(f"# HELP {name} {HELP[name]}")
        lines.append(f"# TYPE {name} {kind}")
        for row in rows:
            labels = row.get("labels", {})
            if kind == "histogram":
                cumulative = 0
                edges = list(row["edges"]) + ["+Inf"]
                for edge, bucket in zip(edges, row["counts"]):
                    cumulative += bucket
                    le = edge if edge == "+Inf" else _format_value(edge)
                    le_label = 'le="%s"' % le
                    lines.append(
                        f"{name}_bucket{_labels_text(labels, le_label)} "
                        f"{cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_labels_text(labels)} "
                    f"{_format_value(row['sum'])}"
                )
                lines.append(
                    f"{name}_count{_labels_text(labels)} {row['count']}"
                )
            else:
                lines.append(
                    f"{name}{_labels_text(labels)} "
                    f"{_format_value(row['value'])}"
                )
                if kind == "gauge" and row.get("max", 0.0) != row["value"]:
                    lines.append(
                        f"{name}_max{_labels_text(labels)} "
                        f"{_format_value(row['max'])}"
                    )
    calibration = snapshot.get("calibration", {})
    if calibration:
        name = "repro_calibration_ratio"
        lines.append(f"# HELP {name} {HELP[name]}")
        lines.append(f"# TYPE {name} gauge")
        for strategy in sorted(calibration):
            row = calibration[strategy]
            count = int(row.get("count", 0))
            for stat in ("mean", "min", "max", "last"):
                labels = {"strategy": strategy, "stat": stat}
                lines.append(
                    f"{name}{_labels_text(labels)} "
                    f"{_format_value(float(row[stat]))}"
                )
            lines.append(
                "repro_calibration_runs_total"
                f"{_labels_text({'strategy': strategy})} {count}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


# ------------------------------------------------------------- persistence


def write_snapshot(
    snapshot: Mapping, path: str | pathlib.Path
) -> pathlib.Path:
    """Write one snapshot as an indented JSON artifact; returns the path."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return path


def load_snapshot(path: str | pathlib.Path) -> dict:
    """Load a snapshot written by :func:`write_snapshot`."""
    snapshot = json.loads(pathlib.Path(path).read_text())
    if snapshot.get("schema") != "repro.metrics/1":
        raise ValueError(
            f"{path}: not a repro.metrics snapshot "
            f"(schema={snapshot.get('schema')!r})"
        )
    return snapshot


# ------------------------------------------------------------------- diffs


def _series_key(row: Mapping) -> tuple:
    return (row["name"], tuple(sorted(row.get("labels", {}).items())))


def diff_snapshots(before: Mapping, after: Mapping) -> list[dict]:
    """Per-series deltas from ``before`` to ``after``.

    Counters and histograms report the increment (series absent on one
    side count as zero); gauges report both readings.  Series that did
    not change are omitted, so a diff over a quiet interval is empty.
    """
    old = {_series_key(r): r for r in before.get("metrics", ())}
    rows = []
    seen = set()
    for row in after.get("metrics", ()):
        key = _series_key(row)
        seen.add(key)
        prior = old.get(key)
        kind = row["type"]
        entry = {
            "name": row["name"],
            "labels": dict(row.get("labels", {})),
            "type": kind,
        }
        if kind == "counter":
            delta = row["value"] - (prior["value"] if prior else 0.0)
            if delta == 0.0:
                continue
            entry["delta"] = delta
        elif kind == "gauge":
            entry["before"] = prior["value"] if prior else None
            entry["after"] = row["value"]
            if entry["before"] == entry["after"]:
                continue
        else:
            entry["delta_count"] = row["count"] - (
                prior["count"] if prior else 0
            )
            entry["delta_sum"] = row["sum"] - (prior["sum"] if prior else 0.0)
            if entry["delta_count"] == 0 and entry["delta_sum"] == 0.0:
                continue
        rows.append(entry)
    for key, prior in old.items():
        if key not in seen:
            rows.append({
                "name": prior["name"],
                "labels": dict(prior.get("labels", {})),
                "type": prior["type"],
                "removed": True,
            })
    rows.sort(key=lambda r: (r["name"], sorted(r["labels"].items())))
    return rows


def render_diff(before: Mapping, after: Mapping) -> str:
    """One line per changed series, ``A -> B`` style."""
    rows = diff_snapshots(before, after)
    if not rows:
        return "no change between snapshots\n"
    lines = []
    for row in rows:
        label = row["name"] + _labels_text(row["labels"])
        if row.get("removed"):
            lines.append(f"{label}: removed")
        elif row["type"] == "counter":
            lines.append(f"{label}: +{_format_value(row['delta'])}")
        elif row["type"] == "gauge":
            before_text = (
                _format_value(row["before"])
                if row["before"] is not None
                else "-"
            )
            lines.append(
                f"{label}: {before_text} -> {_format_value(row['after'])}"
            )
        else:
            lines.append(
                f"{label}: +{row['delta_count']} observation(s), "
                f"sum +{_format_value(row['delta_sum'])}"
            )
    return "\n".join(lines) + "\n"
