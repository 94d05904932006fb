"""Spill-directory ownership and chunk budgets for out-of-core runs.

A :class:`StorageManager` is the capability every out-of-core execution
path shares: it owns one spill directory holding one raw int64 segment
file per spool, hands out append-mode
:class:`~repro.storage.chunked.ChunkedRelation` spools with a common
``chunk_rows`` granularity, accounts the bytes and files written, and
removes the directory at :meth:`close` (also on garbage collection and
on context-manager exit), so a crashed or interrupted run cannot leak
gigabytes of spill files.

``from_budget`` derives a chunk granularity from a byte budget: the
executors stream one chunk at a time and materialize at most one
per-server fragment, so keeping individual chunks a small fraction of
the budget keeps the peak resident set under it.
"""

from __future__ import annotations

import pathlib
import re
import shutil
import tempfile
import threading

from repro.trace.recorder import active_recorder

#: Rows per chunk when neither the caller nor a budget says otherwise
#: (1M rows = 16 MB per binary int64 chunk).
DEFAULT_CHUNK_ROWS = 1 << 20

_SAFE_NAME = re.compile(r"[^A-Za-z0-9_.-]+")


class StorageManager:
    """Owns a spill directory, a chunk budget, and spool lifecycle.

    Parameters
    ----------
    root:
        Directory for the spools' segment files.  ``None`` (the default)
        creates a private temporary directory that :meth:`close`
        removes.  An explicit ``root`` is created if missing and removed
        on close unless ``keep=True``.
    chunk_rows:
        Rows per spilled chunk for every spool this manager creates.
    memory_budget_bytes:
        The advisory resident-set budget this manager was sized for
        (recorded for reporting; :meth:`from_budget` derives
        ``chunk_rows`` from it).
    keep:
        When true, :meth:`close` leaves the spill files on disk.
    """

    def __init__(
        self,
        root: str | pathlib.Path | None = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        memory_budget_bytes: int | None = None,
        keep: bool = False,
    ):
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        if memory_budget_bytes is not None and memory_budget_bytes < 1:
            raise ValueError("memory_budget_bytes must be >= 1")
        self.chunk_rows = int(chunk_rows)
        self.memory_budget_bytes = memory_budget_bytes
        self.keep = keep
        if root is None:
            self.root = pathlib.Path(
                tempfile.mkdtemp(prefix="repro-spill-")
            )
        else:
            self.root = pathlib.Path(root)
            self.root.mkdir(parents=True, exist_ok=True)
        self._counter = 0
        self._closed = False
        # Concurrent executions may share one manager (a Session's
        # run_many): path allocation and spill accounting are the only
        # cross-run mutations, so they take this lock.
        self._lock = threading.Lock()
        #: Bytes written to spill files over the manager's lifetime
        #: (monotonic; deleting a spool does not subtract).
        self.bytes_spilled = 0
        #: Spill files created over the manager's lifetime (one segment
        #: per spool that ever spilled, however many chunks it holds).
        self.chunks_spilled = 0
        #: Appends to spill files (one per spool flush, each writing one
        #: or more whole chunks).
        self.writes = 0
        #: Bytes read back from spill files (parent-side accounting:
        #: serial chunk reads count the memmap's full payload, and a
        #: segment handle handed to a pool worker counts once when the
        #: handle is created -- every handle is loaded exactly once
        #: downstream).
        self.bytes_read = 0
        #: Spill-file read accesses (same accounting point as
        #: :attr:`bytes_read`).
        self.reads = 0
        #: Bytes currently live on disk (written minus unlinked).
        self.live_bytes = 0
        #: High-water mark of :attr:`live_bytes` -- the run's real peak
        #: disk footprint.
        self.peak_live_bytes = 0
        # Per-file sizes (summed over appends) so unlink accounting
        # needs no stat call.
        self._file_sizes: dict[str, int] = {}

    @classmethod
    def from_budget(
        cls,
        memory_budget_bytes: int,
        root: str | pathlib.Path | None = None,
        keep: bool = False,
    ) -> "StorageManager":
        """Size a manager for a resident-set byte budget.

        The dominant resident cost of a streaming run is not the chunk
        being routed but the *tails*: every per-server per-tag spool
        keeps up to one partial chunk in memory (p servers times a few
        tags), so chunks are sized to ~1/512 of the budget (clamped to
        [1024, 2^22] rows for an arity-4 int64 row).  Hundreds of
        concurrent spool tails then sum to well under the budget, and
        the remaining headroom absorbs the largest single per-server
        fragment at join time.
        """
        if memory_budget_bytes < 1:
            raise ValueError("memory_budget_bytes must be >= 1")
        target_chunk_bytes = memory_budget_bytes // 512
        chunk_rows = target_chunk_bytes // (4 * 8)
        chunk_rows = max(1024, min(DEFAULT_CHUNK_ROWS * 4, chunk_rows))
        return cls(
            root=root,
            chunk_rows=chunk_rows,
            memory_budget_bytes=memory_budget_bytes,
            keep=keep,
        )

    # ------------------------------------------------------------- spools

    def spool(
        self, name: str, arity: int, chunk_rows: int | None = None
    ) -> "ChunkedRelation":
        """A new empty append-mode chunked relation backed by this manager."""
        from repro.storage.chunked import ChunkedRelation

        return ChunkedRelation(
            name, arity, storage=self, chunk_rows=chunk_rows
        )

    def new_chunk_path(self, hint: str) -> pathlib.Path:
        """A fresh spill-file path (unique per manager, safe name).

        Thread-safe: concurrent runs sharing the manager never collide
        on a path.
        """
        if self._closed:
            raise RuntimeError("storage manager is closed")
        with self._lock:
            self._counter += 1
            counter = self._counter
        safe = _SAFE_NAME.sub("_", hint)[:80] or "chunk"
        return self.root / f"{counter:08d}-{safe}.i64"

    def account_spill(self, nbytes: int, path: str | pathlib.Path) -> None:
        """Record one append of ``nbytes`` to the spill file ``path``.

        The first append to a path counts it as a created file; later
        appends grow its recorded size, so :meth:`account_unlink`
        subtracts the whole file.
        """
        nbytes = int(nbytes)
        key = str(path)
        with self._lock:
            self.bytes_spilled += nbytes
            self.writes += 1
            if key not in self._file_sizes:
                self.chunks_spilled += 1
            self._file_sizes[key] = self._file_sizes.get(key, 0) + nbytes
            self.live_bytes += nbytes
            if self.live_bytes > self.peak_live_bytes:
                self.peak_live_bytes = self.live_bytes
        recorder = active_recorder()
        if recorder is not None:
            recorder.spill("write", key, nbytes)

    def account_read(
        self, nbytes: int, path: str | pathlib.Path | None = None
    ) -> None:
        """Record one spill read access (or worker hand-off)."""
        nbytes = int(nbytes)
        with self._lock:
            self.bytes_read += nbytes
            self.reads += 1
        recorder = active_recorder()
        if recorder is not None:
            recorder.spill(
                "read", str(path) if path is not None else None, nbytes
            )

    def account_unlink(self, path: str | pathlib.Path) -> None:
        """Record a spill file's deletion (keeps :attr:`live_bytes` true)."""
        with self._lock:
            nbytes = self._file_sizes.pop(str(path), 0)
            self.live_bytes -= nbytes

    def io_counters(self) -> dict[str, int]:
        """A snapshot of the cumulative spill I/O counters.

        ``dispatch_run`` diffs two snapshots to attach per-run spill
        stats to the :class:`~repro.mpc.report.LoadReport`.
        """
        with self._lock:
            return {
                "bytes_written": self.bytes_spilled,
                "files_created": self.chunks_spilled,
                "writes": self.writes,
                "bytes_read": self.bytes_read,
                "reads": self.reads,
                "live_bytes": self.live_bytes,
                "peak_live_bytes": self.peak_live_bytes,
            }

    @property
    def bytes_written(self) -> int:
        """Alias of :attr:`bytes_spilled` under the I/O-counter naming."""
        return self.bytes_spilled

    @property
    def files_created(self) -> int:
        """Alias of :attr:`chunks_spilled` under the I/O-counter naming."""
        return self.chunks_spilled

    # ----------------------------------------------------------- lifecycle

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Remove the spill directory (idempotent; kept if ``keep``)."""
        if self._closed:
            return
        self._closed = True
        if not self.keep:
            shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "StorageManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        budget = (
            f", budget={self.memory_budget_bytes:,}B"
            if self.memory_budget_bytes
            else ""
        )
        return (
            f"StorageManager(root={str(self.root)!r}, "
            f"chunk_rows={self.chunk_rows}{budget}, "
            f"spilled={self.bytes_spilled:,}B/{self.chunks_spilled} files)"
        )
