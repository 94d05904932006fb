"""Chunked relations: fixed-size numpy chunks over one spill segment.

A :class:`ChunkedRelation` stores a relation (or an append-mode spool of
row batches) as a sequence of ``(chunk_rows, arity)`` int64 chunks.
Full chunks spill to the spool's **segment**: one append-only file of
raw native int64 rows, no header, owned by a
:class:`~repro.storage.manager.StorageManager`.  Only whole chunks ever
spill, so chunk ``k`` starts at row ``k * chunk_rows`` and the row
count is the whole index.  Each flush appends every full chunk with one
write and closes the file again; each read pass maps the segment once
(read-only) and slices chunks out of it, so a relation of ``n`` rows is
never resident in full.  The partial tail chunk stays in memory, which
doubles as the small-relation fast path (a spool below ``chunk_rows``
rows never touches disk).  Without a manager, full chunks stay as
in-memory arrays -- the chunk *iteration* contract is identical either
way, which is what lets the property suites exercise chunked execution
without a filesystem.

A :class:`SegmentSlice` ``(path, offset, rows, arity)`` names a row
range of a segment; it is the handle spilled rows cross a process
boundary as, and :meth:`SegmentSlice.load` is the one reader of the
format.

Unlike :class:`~repro.data.relation.Relation` (whose canonical array is
sorted and deduplicated), a chunked relation stores rows in **append
order** and trusts the writer on distinctness: executors append
already-deduplicated fragments, :meth:`from_array` canonicalizes
through :func:`~repro.data.arrays.unique_rows` first, and the streaming
generators produce injective columns.  A relation built by
:meth:`from_array` or :meth:`from_relation` is canonical chunk after
chunk, so routing it hands every server canonical batches and their
merge (:func:`~repro.data.arrays.merge_batches`) is one linear check.
Set-style APIs inherited from ``Relation`` materialize the tuples on
first use, exactly like an array-born relation.
"""

from __future__ import annotations

import pathlib
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.data.arrays import column_counts, int64_rows, unique_rows
from repro.data.relation import Relation, validate_array_domain
from repro.storage.manager import DEFAULT_CHUNK_ROWS, StorageManager


class SegmentSlice(NamedTuple):
    """Rows ``[offset, offset + rows)`` of a raw int64 segment file."""

    path: str
    offset: int
    rows: int
    arity: int

    @property
    def nbytes(self) -> int:
        return self.rows * self.arity * 8

    def load(self) -> np.memmap:
        """The row range as a read-only memory map (pages load lazily)."""
        return np.memmap(
            self.path,
            dtype=np.int64,
            mode="r",
            offset=self.offset * self.arity * 8,
            shape=(self.rows, self.arity),
        )


class ChunkedRelation(Relation):
    """A relation stored as fixed-size chunks, spilled past ``chunk_rows``.

    Created empty and filled through :meth:`append` (the spool form the
    executors use for per-server fragments and inter-round views), or
    from an existing array via :meth:`from_array` /
    :meth:`from_relation`.  Reading is by :meth:`chunks`; the inherited
    set-semantics API works but materializes.
    """

    __slots__ = ("chunk_rows", "_storage", "_parts", "_segment",
                 "_spilled_rows", "_tail", "_tail_rows", "_num_rows")

    def __init__(
        self,
        name: str,
        arity: int,
        storage: StorageManager | None = None,
        chunk_rows: int | None = None,
    ):
        if arity < 1:
            raise ValueError("relation arity must be >= 1")
        if chunk_rows is None:
            chunk_rows = storage.chunk_rows if storage else DEFAULT_CHUNK_ROWS
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self.name = name
        self.arity = arity
        self.chunk_rows = int(chunk_rows)
        self._storage = storage
        # In-memory full chunks (no manager) or the spilled segment.
        self._parts: list[np.ndarray] = []
        self._segment: pathlib.Path | None = None
        self._spilled_rows = 0
        self._tail: list[np.ndarray] = []
        self._tail_rows = 0
        self._num_rows = 0
        # Base-class caches (set semantics materializes lazily).
        self._tuples_cache = None
        self._hash = None
        self._array = None

    # ------------------------------------------------------------ building

    @classmethod
    def from_array(
        cls,
        name: str,
        array: np.ndarray,
        storage: StorageManager | None = None,
        chunk_rows: int | None = None,
    ) -> "ChunkedRelation":
        """Canonicalize ``array`` (sorted, distinct) and chunk it.

        The chunk stream then enumerates exactly the rows of
        ``Relation.from_array(name, array).to_array()`` in the same
        order, which is what makes chunked execution bit-identical to
        the in-memory path.  Input is admitted as there: ``TypeError``
        for a non-integer array, ``ValueError`` above the int64 maximum.
        """
        array = np.asarray(array)
        if array.ndim != 2:
            raise ValueError(
                f"need a 2-D (n, arity) array, got shape {array.shape}"
            )
        canonical = unique_rows(int64_rows(array, f"relation {name}"))
        out = cls(name, array.shape[1], storage=storage, chunk_rows=chunk_rows)
        out.append(canonical)
        return out

    @classmethod
    def from_relation(
        cls,
        relation: Relation,
        storage: StorageManager | None = None,
        chunk_rows: int | None = None,
    ) -> "ChunkedRelation":
        """The chunked twin of an in-memory relation (canonical order)."""
        return cls.from_array(
            relation.name,
            relation.to_array(),
            storage=storage,
            chunk_rows=chunk_rows,
        )

    def append(self, rows: np.ndarray) -> None:
        """Append a ``(k, arity)`` batch; full chunks spill immediately."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.arity:
            raise ValueError(
                f"need a (k, {self.arity}) batch, got shape {rows.shape}"
            )
        if len(rows) == 0:
            return
        rows = rows.astype(np.int64, copy=False)
        if self._tuples_cache is not None:
            # Keep the lazily-materialized set view coherent.
            self._tuples_cache = None
            self._hash = None
        self._tail.append(rows)
        self._tail_rows += len(rows)
        self._num_rows += len(rows)
        if self._tail_rows >= self.chunk_rows:
            self._flush_full_chunks()

    def _flush_full_chunks(self) -> None:
        """Close every full ``chunk_rows`` block of the buffer.

        The leftover rows are *copied* into the new tail: a view into
        the appended batch would keep the whole batch alive (a 1-row
        tail pinning a gigabyte view fragment), silently turning an
        out-of-core spool back into an in-memory one.
        """
        merged = (
            self._tail[0]
            if len(self._tail) == 1
            else np.concatenate(self._tail, axis=0)
        )
        full = (len(merged) // self.chunk_rows) * self.chunk_rows
        if self._storage is None:
            self._parts.extend(
                np.ascontiguousarray(merged[start:start + self.chunk_rows])
                for start in range(0, full, self.chunk_rows)
            )
        else:
            self._spill(merged[:full])
        rest = merged[full:]
        self._tail = [rest.copy()] if len(rest) else []
        self._tail_rows = len(rest)

    def _spill(self, rows: np.ndarray) -> None:
        """Append whole chunks to the segment file with one write.

        The file is opened per flush and never held: a run keeps one
        spool per server and tag alive, far more than descriptors allow.
        """
        if self._segment is None:
            self._segment = self._storage.new_chunk_path(self.name)
        with open(self._segment, "ab") as handle:
            handle.write(np.ascontiguousarray(rows).data)
        self._storage.account_spill(rows.nbytes, self._segment)
        self._spilled_rows += len(rows)

    def drop(self) -> None:
        """Discard all rows, deleting this spool's segment file."""
        if self._segment is not None:
            self._storage.account_unlink(self._segment)
            self._segment.unlink(missing_ok=True)
        self._parts = []
        self._segment = None
        self._spilled_rows = 0
        self._tail = []
        self._tail_rows = 0
        self._num_rows = 0
        self._tuples_cache = None
        self._hash = None

    # ------------------------------------------------------------- reading

    @property
    def num_chunks(self) -> int:
        """Closed chunks plus the in-memory tail (if any)."""
        tail = 1 if self._tail_rows else 0
        return len(self._parts) + self.spilled_chunks + tail

    @property
    def spilled_chunks(self) -> int:
        """Chunks currently stored in the segment file."""
        return self._spilled_rows // self.chunk_rows

    def chunks(self) -> Iterator[np.ndarray]:
        """Yield every chunk in append order.

        Spilled chunks are slices of one read-only memory map of the
        segment, opened per pass: only the pages a consumer touches
        become resident, and the map closes once no chunk refers to it.
        """
        yield from self._parts
        if self._spilled_rows:
            if self._storage.closed and not self._storage.keep:
                raise RuntimeError(
                    f"spill files of {self.name!r} are gone: its "
                    "StorageManager is closed -- materialize "
                    "results (answers, to_array()) before closing "
                    "the manager"
                )
            segment = self._slice(0, self._spilled_rows).load()
            for start in range(0, self._spilled_rows, self.chunk_rows):
                chunk = segment[start:start + self.chunk_rows]
                self._storage.account_read(chunk.nbytes, self._segment)
                yield chunk
        if self._tail_rows:
            yield self._merged_tail()

    def chunk_handles(self) -> list[np.ndarray | SegmentSlice]:
        """Every chunk as a shippable handle, in append order.

        Spilled chunks come back as :class:`SegmentSlice` handles (no
        file is opened here); in-memory chunks and the tail come back as
        arrays.  This is the zero-copy hand-off for process-pool
        workers: a handle pickles as a few bytes and the worker maps
        just its row range, instead of the parent pickling the chunk's
        contents.  Loading every handle reproduces exactly the rows of
        :meth:`chunks` in the same order.
        """
        return self._handles(self.chunk_rows)

    def segment_handles(self) -> list[np.ndarray | SegmentSlice]:
        """:meth:`chunk_handles` with all spilled rows as one handle.

        For consumers that merge the whole spool anyway (a server's
        local join): one map of the segment instead of one per chunk.
        """
        # max(..., 1): range() needs a positive step when nothing spilled.
        return self._handles(max(self._spilled_rows, 1))

    def _handles(self, span: int) -> list[np.ndarray | SegmentSlice]:
        handles: list[np.ndarray | SegmentSlice] = list(self._parts)
        for start in range(0, self._spilled_rows, span):
            handle = self._slice(start, span)
            # Workers load handles without the manager, so each
            # handle's eventual read is accounted here, at creation.
            self._storage.account_read(handle.nbytes, self._segment)
            handles.append(handle)
        if self._tail_rows:
            handles.append(self._merged_tail())
        return handles

    def _slice(self, offset: int, rows: int) -> SegmentSlice:
        return SegmentSlice(str(self._segment), offset, rows, self.arity)

    def _merged_tail(self) -> np.ndarray:
        if len(self._tail) > 1:
            self._tail = [np.concatenate(self._tail, axis=0)]
        return self._tail[0]

    def __len__(self) -> int:
        return self._num_rows

    @property
    def nbytes(self) -> int:
        """Total payload bytes across all chunks."""
        return self._num_rows * self.arity * 8

    def to_array(self) -> np.ndarray:
        """Materialize every chunk into one in-memory array.

        Deliberately **not** cached on the relation (unlike the base
        class): holding the full array would defeat the point of
        chunked storage, so each call pays the concatenation.
        """
        if self._num_rows == 0:
            return np.empty((0, self.arity), dtype=np.int64)
        return np.concatenate(list(self.chunks()), axis=0)

    @property
    def _tuples(self):
        if self._tuples_cache is None:
            self._tuples_cache = frozenset(
                map(tuple, self.to_array().tolist())
            )
        return self._tuples_cache

    # --------------------------------------------------- chunk-wise queries

    def validate_domain(self, domain_size: int) -> None:
        """Domain check, one chunk at a time (never materializes)."""
        for chunk in self.chunks():
            validate_array_domain(np.asarray(chunk), self.name, domain_size)

    def key_counts(
        self, positions: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The frequency scan, one chunk at a time (never materializes).

        Per-chunk ``(keys, counts)`` scans are merged by one weighted
        scan over their concatenation, so memory is bounded by the
        distinct keys per chunk rather than by the row count.
        """
        positions = tuple(positions)
        for p in positions:
            self._check_position(p)
        parts = [
            column_counts(np.asarray(chunk), positions)
            for chunk in self.chunks()
        ]
        if not parts:
            return column_counts(self.to_array(), positions)
        if len(parts) == 1:
            return parts[0]
        return column_counts(
            np.concatenate([keys for keys, _ in parts]),
            range(len(positions)),
            weights=np.concatenate([counts for _, counts in parts]),
        )

    def __repr__(self) -> str:
        return (
            f"ChunkedRelation({self.name!r}, arity={self.arity}, "
            f"rows={self._num_rows}, chunks={self.num_chunks}, "
            f"spilled={self.spilled_chunks})"
        )


def iter_array_chunks(
    source: "Relation | np.ndarray",
    chunk_rows: int | None = None,
) -> Iterator[np.ndarray]:
    """Yield ``(k, arity)`` chunks of any relation-shaped source.

    The single seam the streaming executors route through:

    * a :class:`ChunkedRelation` yields its own chunks (its stored
      granularity wins -- rows must not be re-buffered to re-chunk);
    * an in-memory :class:`Relation` yields canonical-array slices of
      ``chunk_rows`` rows (one whole-array chunk when ``None``);
    * a bare ``(n, arity)`` array is sliced the same way.

    Concatenating the yielded chunks always reproduces the source's
    rows in order, so routing chunk-by-chunk delivers every server the
    same row sequence as routing the monolith -- the invariant behind
    bit-identical loads, answers, and capacity truncation.
    """
    if isinstance(source, ChunkedRelation):
        yield from source.chunks()
        return
    array = source.to_array() if isinstance(source, Relation) else np.asarray(source)
    if chunk_rows is None or chunk_rows >= len(array):
        if len(array):
            yield array
        return
    for start in range(0, len(array), chunk_rows):
        yield array[start:start + chunk_rows]
