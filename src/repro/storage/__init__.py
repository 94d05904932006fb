"""Out-of-core chunked relation storage (``repro.storage``).

The subsystem behind ``n`` far beyond RAM: relations and per-server
fragments live as fixed-size ``(chunk_rows, arity)`` numpy chunks
backed by one append-only raw int64 segment file per spool (read back
through memory maps), and every hot path can consume them
chunk-by-chunk instead of as monoliths.

* :class:`StorageManager` -- owns a spill directory, the chunk budget,
  and lifecycle (context manager; removes spill files on close).
* :class:`ChunkedRelation` -- a :class:`~repro.data.relation.Relation`
  stored as chunks, with an append-mode spool form for streaming
  writers (generators, the simulator's per-server fragments, the
  multi-round executor's inter-round views).
* :class:`SegmentSlice` -- ``(path, offset, rows, arity)``, a row range
  of a segment: the handle spilled rows cross a process boundary as.
* :func:`iter_array_chunks` -- the one seam executors stream through;
  it preserves row order, which is what keeps chunked execution
  bit-identical (answers, per-server loads, capacity truncation) to
  the in-memory columnar backend.

Typical out-of-core run::

    from repro.storage import StorageManager

    with StorageManager.from_budget(2 * 1024**3) as storage:
        db = matching_database(q, m=10**8, n=4 * 10**8, seed=0,
                               storage=storage)
        result = Session(p=64, storage=storage).run(q, db, "hypercube")
"""

from repro.storage.chunked import (
    ChunkedRelation,
    SegmentSlice,
    iter_array_chunks,
)
from repro.storage.manager import DEFAULT_CHUNK_ROWS, StorageManager

__all__ = [
    "ChunkedRelation",
    "SegmentSlice",
    "StorageManager",
    "iter_array_chunks",
    "DEFAULT_CHUNK_ROWS",
]
