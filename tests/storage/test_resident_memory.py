"""Spilling must actually save memory: the out-of-core resident property.

A run under a :class:`StorageManager` keeps at most one partial chunk
per spool in memory; delivered fragments live in segment files and
are mapped, not allocated, when a server joins.  So the peak of
Python/numpy allocations during a spilling run sits well below the same
run in memory.  A segment writer that buffered more than one chunk per
spool (or a reader that copied whole fragments) would close the gap.
"""

from __future__ import annotations

import tracemalloc

from repro import Session, triangle_query
from repro.data.generators import uniform_database
from repro.storage import StorageManager


def _warm_peak_bytes(session, query, database) -> int:
    session.run(query, database, "hypercube")  # imports, caches, pools
    tracemalloc.start()
    try:
        session.run(query, database, "hypercube")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spilling_run_peaks_below_in_memory_run(tmp_path):
    q = triangle_query()
    db = uniform_database(q, m=20_000, n=2_000, seed=1)
    in_memory = _warm_peak_bytes(Session(p=16), q, db)
    with StorageManager(root=tmp_path / "spill", chunk_rows=256) as storage:
        spilled = _warm_peak_bytes(Session(p=16, storage=storage), q, db)
        assert storage.files_created > 0
    # Measured on a 2-vCPU x86-64 host: 1.9 MB against 3.9 MB (0.48).
    assert spilled <= 0.6 * in_memory
