"""``python -m repro metrics``: render or diff snapshot artifacts.

Offline counterpart of a session's registry: ``run --metrics
--metrics-out FILE`` (or :func:`repro.metrics.write_snapshot`) leaves
a JSON snapshot on disk; this command renders it as Prometheus-style
text (default), as JSON (``--json``), or as a series-by-series delta
against a second snapshot (``--diff``).
"""

from __future__ import annotations

import json

from repro.metrics.exposition import load_snapshot, render_diff, render_text


def render_snapshot_path(
    path: str, *, as_json: bool = False, diff: str | None = None
) -> str:
    """The string the ``metrics`` subcommand prints."""
    snapshot = load_snapshot(path)
    if diff is not None:
        return render_diff(snapshot, load_snapshot(diff))
    if as_json:
        return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    return render_text(snapshot)
