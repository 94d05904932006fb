"""Per-phase wall-clock accounting for one execution.

A :class:`PhaseTimer` splits a run's wall time across named phases
(``generate``/``route``/``ship``/``join``/``merge``) with *exclusive*
nesting: entering an inner phase pauses the enclosing one, so the
recorded seconds are disjoint and sum to the instrumented wall time.
That is what makes the split meaningful for locating where a worker
pool's speedup lands -- ``route`` is time producing routed batches,
``ship`` is simulator delivery/accounting, ``join`` is local
computation, ``merge`` is output collection.

The executors attach the accumulated dict to their
:class:`~repro.mpc.report.LoadReport` (``phase_seconds``), from where
:class:`~repro.session.RunRecord` and ``workload_summary()`` surface
it.  Under the serial pool a phase's producer runs inline at
consumption time, so ``route``/``join`` include the task bodies; under
thread/process pools those bodies overlap, and the parent-side phases
measure what the merging thread actually waited for.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class PhaseTimer:
    """Accumulate exclusive per-phase seconds via nested contexts.

    .. code-block:: python

        timer = PhaseTimer()
        with timer.phase("route"):
            ...
            with timer.phase("ship"):   # pauses "route"
                sim.send_array(...)
        timer.seconds  # {"route": ..., "ship": ...}
    """

    __slots__ = ("seconds", "_stack")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._stack: list[list] = []  # [name, started] frames

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        now = time.perf_counter()
        if self._stack:
            outer = self._stack[-1]
            self.seconds[outer[0]] = (
                self.seconds.get(outer[0], 0.0) + now - outer[1]
            )
        self._stack.append([name, now])
        try:
            yield
        finally:
            now = time.perf_counter()
            frame = self._stack.pop()
            self.seconds[frame[0]] = (
                self.seconds.get(frame[0], 0.0) + now - frame[1]
            )
            if self._stack:
                self._stack[-1][1] = now

    def attach(self, report) -> None:
        """Copy the accumulated seconds onto the report."""
        report.phase_seconds.update(self.seconds)


def format_phase_seconds(phase_seconds: dict[str, float]) -> str:
    """``"route 0.12s, join 0.50s"`` in canonical phase order."""
    order = ("generate", "route", "ship", "join", "merge")
    named = [
        f"{name} {phase_seconds[name] * 1e3:.1f}ms"
        for name in order
        if name in phase_seconds
    ]
    named += [
        f"{name} {value * 1e3:.1f}ms"
        for name, value in phase_seconds.items()
        if name not in order
    ]
    return ", ".join(named)


def format_bits(bits: float) -> str:
    """Humanize a bit count: ``"736b"``, ``"7.2kb"``, ``"3.1Mb"``."""
    bits = float(bits)
    for threshold, unit in ((1e9, "Gb"), (1e6, "Mb"), (1e3, "kb")):
        if abs(bits) >= threshold:
            return f"{bits / threshold:.1f}{unit}"
    return f"{bits:.0f}b"
