"""Observability hooks used without the one-None-check discipline."""

from repro.trace.recorder import active_recorder


def record(rows):
    active_recorder().spill("write", None, len(rows))  # line 7: hook-guard
    for row in rows:
        recorder = active_recorder()  # line 9: hook-guard (refetch in loop)
        if recorder is not None:
            recorder.spill("read", None, len(row))
    return rows


def disciplined(rows):
    recorder = active_recorder()
    if recorder is not None:
        recorder.spill("write", None, len(rows))
    return rows
