"""Rendering for the ``python -m repro trace`` subcommand.

Turns a recorded JSONL trace (or a directory of them) into the summary
tables the acceptance questions ask for: top-k heaviest servers,
per-round bytes, per-phase seconds -- plus hottest tags, spill
I/O and worker-task totals when the trace has them.
"""

from __future__ import annotations

import pathlib

from repro.mpc.timing import format_bits
from repro.trace.query import TraceQuery


def iter_trace_files(path: str | pathlib.Path) -> list[pathlib.Path]:
    """The trace files under ``path``: itself, or its ``*.jsonl`` children."""
    path = pathlib.Path(path)
    if path.is_dir():
        return sorted(path.glob("*.jsonl"))
    if path.exists():
        return [path]
    raise FileNotFoundError(f"no trace file or directory at {path}")


def render_trace(path: str | pathlib.Path, top: int = 5) -> str:
    """The summary tables for one JSONL trace, as printable text."""
    query = TraceQuery(path)
    lines = [f"trace: {path}"]

    meta = next(
        (e for e in query.events if e.get("t") == "meta"), None
    )
    if meta is not None:
        fields = ", ".join(
            f"{key}={meta[key]}"
            for key in (
                "label", "query", "strategy", "seed", "version", "machines",
            )
            if meta.get(key) is not None
        )
        if fields:
            lines.append(f"  meta: {fields}")

    run = query.run()
    if run is not None:
        lines.append(
            "  run: strategy={strategy}, p={p}, rounds={rounds}, "
            "L = {L}, total = {total}, dropped = {dropped}"
            .format(
                strategy=run.get("strategy"),
                p=run.get("p"),
                rounds=run.get("rounds"),
                L=format_bits(run.get("max_load_bits") or 0),
                total=format_bits(run.get("total_bits") or 0),
                dropped=format_bits(run.get("dropped_bits") or 0),
            )
        )

    round_rows = query.round_totals()
    if round_rows:
        lines.append("  per-round bytes:")
        for row in round_rows:
            drop = (
                f", dropped {format_bits(row['dropped_bits'])}"
                if row["dropped_bits"]
                else ""
            )
            lines.append(
                f"    round {row['r']}: total {format_bits(row['total_bits'])}"
                f", max/server {format_bits(row['max_bits'])}"
                f", {row['tuples']} tuples, {row['sends']} sends{drop}"
            )

    ranked_servers = query.top_servers(k=top)
    if ranked_servers:
        rendered = ", ".join(
            f"#{server} {format_bits(bits)}"
            for server, bits in ranked_servers
        )
        lines.append(f"  top {len(ranked_servers)} servers: {rendered}")

    classes = query.speed_class_bits()
    if classes:
        lines.append("  per speed class:")
        for row in classes:
            lines.append(
                f"    {row['servers']} server(s) at {row['speed']:g}x: "
                f"{format_bits(row['bits'])} "
                f"({format_bits(row['bits_per_speed'])}/unit speed)"
            )
        makespan = query.makespan_bits()
        if makespan is not None:
            lines.append(
                f"  measured makespan: {format_bits(makespan)} "
                "(bits per unit speed)"
            )

    hot_tags = query.hottest_tags(k=top)
    if hot_tags:
        rendered = ", ".join(
            f"{tag} {format_bits(bits)}" for tag, bits in hot_tags
        )
        lines.append(f"  hottest tags: {rendered}")

    phases = query.phases()
    if phases:
        lines.append("  phases (exclusive):")
        for name, seconds in phases.items():
            lines.append(f"    {name}: {seconds * 1e3:.2f}ms")

    deltas = [
        row for row in query.predicted_deltas() if row["ratio"] is not None
    ]
    if deltas:
        rendered = ", ".join(
            f"round {row['r']} {row['ratio']:.2f}x" for row in deltas
        )
        lines.append(f"  measured/predicted per round: {rendered}")

    spill = query.spill_totals()
    if spill["writes"] or spill["reads"]:
        lines.append(
            f"  spill I/O: wrote {spill['bytes_written'] / 2**20:.2f} MiB "
            f"in {spill['writes']} chunk(s), "
            f"read {spill['bytes_read'] / 2**20:.2f} MiB "
            f"in {spill['reads']} access(es)"
        )

    tasks = query.task_totals()
    if tasks:
        rendered = ", ".join(
            f"{kind} x{int(row['count'])} ({row['seconds'] * 1e3:.2f}ms)"
            for kind, row in sorted(tasks.items())
        )
        lines.append(f"  worker tasks: {rendered}")

    return "\n".join(lines)


def render_path(path: str | pathlib.Path, top: int = 5) -> str:
    """Render every trace under ``path`` (a file or a directory)."""
    files = iter_trace_files(path)
    if not files:
        raise FileNotFoundError(f"no *.jsonl traces under {path}")
    return "\n\n".join(render_trace(f, top=top) for f in files)
