"""Unit tests for the storage subsystem itself.

:class:`StorageManager` lifecycle (spill directories appear, fill, and
vanish), :class:`ChunkedRelation` chunking/spilling/reading semantics,
the in-memory small-relation fast path, and the chunk-iteration seam
every streaming executor routes through.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.database import Database
from repro.data.relation import Relation
from repro.hashing.permutation import PseudorandomPermutation
from repro.storage import (
    DEFAULT_CHUNK_ROWS,
    ChunkedRelation,
    StorageManager,
    iter_array_chunks,
)


@pytest.fixture
def storage(tmp_path):
    manager = StorageManager(root=tmp_path / "spill", chunk_rows=8)
    yield manager
    manager.close()


class TestStorageManager:
    def test_creates_and_removes_spill_directory(self, tmp_path):
        manager = StorageManager(root=tmp_path / "sp")
        assert manager.root.is_dir()
        manager.close()
        assert not manager.root.exists()
        manager.close()  # idempotent

    def test_keep_leaves_files(self, tmp_path):
        manager = StorageManager(root=tmp_path / "sp", chunk_rows=2, keep=True)
        spool = manager.spool("x", 1)
        spool.append(np.arange(6)[:, None])
        manager.close()
        assert manager.root.exists()
        (segment,) = manager.root.glob("*.i64")
        assert segment.stat().st_size == 6 * 8  # raw int64, no header

    def test_context_manager(self):
        with StorageManager(chunk_rows=4) as manager:
            root = manager.root
            assert root.is_dir()
        assert not root.exists()

    def test_accounting(self, storage):
        spool = storage.spool("acc", 2)
        spool.append(np.arange(48).reshape(24, 2))
        assert spool.spilled_chunks == 3  # 24 rows / chunk_rows=8
        assert storage.files_created == 1  # ... in one segment file
        assert storage.bytes_spilled == 3 * 8 * 2 * 8
        spool.append(np.arange(16).reshape(8, 2))
        assert (storage.files_created, storage.writes) == (1, 2)
        assert storage.live_bytes == storage.bytes_spilled == 4 * 8 * 2 * 8
        spool.drop()
        assert storage.live_bytes == 0  # the whole file, not one append
        assert storage.peak_live_bytes == 4 * 8 * 2 * 8

    def test_from_budget_scales_chunk_rows(self):
        small = StorageManager.from_budget(10 * 2**20)
        large = StorageManager.from_budget(4 * 2**30)
        try:
            assert small.chunk_rows < large.chunk_rows
            assert small.memory_budget_bytes == 10 * 2**20
            assert 1024 <= small.chunk_rows <= 4 * DEFAULT_CHUNK_ROWS
        finally:
            small.close()
            large.close()

    def test_validation(self):
        with pytest.raises(ValueError, match="chunk_rows"):
            StorageManager(chunk_rows=0)
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            StorageManager.from_budget(0)
        manager = StorageManager()
        manager.close()
        with pytest.raises(RuntimeError, match="closed"):
            manager.new_chunk_path("x")


class TestChunkedRelation:
    def test_round_trip_preserves_append_order(self, storage):
        spool = storage.spool("r", 3)
        first = np.arange(30).reshape(10, 3)
        second = np.arange(30, 45).reshape(5, 3)
        spool.append(first)
        spool.append(second)
        assert len(spool) == 15
        merged = np.concatenate([first, second])
        assert np.array_equal(spool.to_array(), merged)
        assert sum(len(c) for c in spool.chunks()) == 15

    def test_small_spool_never_touches_disk(self, storage):
        spool = storage.spool("tiny", 2)
        spool.append(np.arange(10).reshape(5, 2))  # below chunk_rows=8
        assert spool.spilled_chunks == 0
        assert storage.chunks_spilled == 0
        assert np.array_equal(spool.to_array(), np.arange(10).reshape(5, 2))

    def test_spilled_chunks_are_memmaps(self, storage):
        spool = storage.spool("mm", 1)
        spool.append(np.arange(20)[:, None])
        chunks = list(spool.chunks())
        assert spool.spilled_chunks == 2
        assert isinstance(chunks[0], np.memmap)
        assert not isinstance(chunks[-1], np.memmap)  # in-memory tail

    def test_tail_does_not_pin_the_appended_batch(self, storage):
        # After flushing full chunks, the leftover tail must be a copy:
        # a view would keep the whole appended array (a server's entire
        # view fragment) resident for the spool's lifetime.
        spool = storage.spool("pin", 1)
        spool.append(np.arange(33)[:, None])  # 4 full chunks + 1-row tail
        assert spool.spilled_chunks == 4
        assert spool._tail[0].base is None, "tail is a view, pinning 33 rows"

    def test_without_manager_chunks_stay_in_memory(self):
        spool = ChunkedRelation("m", 2, chunk_rows=4)
        spool.append(np.arange(24).reshape(12, 2))
        assert spool.num_chunks == 3
        assert spool.spilled_chunks == 0

    def test_from_array_canonicalizes(self, storage):
        rows = np.array([[3, 4], [1, 2], [3, 4], [0, 9]])
        chunked = ChunkedRelation.from_array("c", rows, storage=storage)
        reference = Relation.from_array("c", rows)
        assert np.array_equal(chunked.to_array(), reference.to_array())
        assert len(chunked) == 3

    def test_from_array_rejects_uint64_above_int64_max(self, storage):
        """2**64 - 1 used to wrap to -1 instead of raising."""
        rows = np.array([[2**64 - 1, 1]], dtype=np.uint64)
        with pytest.raises(ValueError, match="int64 maximum"):
            ChunkedRelation.from_array("c", rows, storage=storage)

    def test_from_array_keeps_uint64_that_fit(self, storage):
        top = np.iinfo(np.int64).max
        rows = np.array([[top, 1], [5, 2]], dtype=np.uint64)
        chunked = ChunkedRelation.from_array("c", rows, storage=storage)
        assert chunked.to_array().tolist() == [[5, 2], [top, 1]]
        assert chunked.to_array().dtype == np.int64

    def test_from_relation_twin_matches_chunkwise(self, storage):
        reference = Relation("t", 2, [(5, 1), (2, 2), (9, 0), (2, 1)])
        chunked = ChunkedRelation.from_relation(
            reference, storage=storage, chunk_rows=2
        )
        assert np.array_equal(
            np.concatenate(list(chunked.chunks())), reference.to_array()
        )

    def test_set_semantics_api_materializes(self, storage):
        chunked = ChunkedRelation.from_array(
            "s", np.array([[1, 2], [3, 4]]), storage=storage
        )
        assert (1, 2) in chunked
        assert chunked.tuples == frozenset({(1, 2), (3, 4)})
        assert chunked == Relation("s", 2, [(1, 2), (3, 4)])

    def test_append_invalidates_tuple_cache(self, storage):
        spool = storage.spool("inv", 1)
        spool.append(np.array([[1]]))
        assert spool.tuples == frozenset({(1,)})
        spool.append(np.array([[2]]))
        assert spool.tuples == frozenset({(1,), (2,)})

    def test_reading_after_manager_close_is_a_clear_error(self, tmp_path):
        manager = StorageManager(root=tmp_path / "gone", chunk_rows=2)
        spool = manager.spool("late", 1)
        spool.append(np.arange(6)[:, None])
        manager.close()
        with pytest.raises(RuntimeError, match="materialize results"):
            spool.to_array()

    def test_kept_spill_files_stay_readable_after_close(self, tmp_path):
        manager = StorageManager(
            root=tmp_path / "kept", chunk_rows=2, keep=True
        )
        spool = manager.spool("kept", 1)
        spool.append(np.arange(6)[:, None])
        manager.close()
        assert np.array_equal(spool.to_array(), np.arange(6)[:, None])

    def test_drop_deletes_spill_files(self, storage):
        spool = storage.spool("d", 1)
        spool.append(np.arange(20)[:, None])
        (segment,) = storage.root.glob("*-d.i64")
        spool.drop()
        assert len(spool) == 0
        assert not segment.exists()

    def test_degrees_chunkwise(self, storage):
        rows = np.array([[1, 5], [1, 6], [2, 5], [1, 5]])
        chunked = ChunkedRelation("deg", 2, storage=storage, chunk_rows=2)
        chunked.append(rows)  # duplicates allowed in spool form
        assert chunked.degrees((0,)) == {(1,): 3, (2,): 1}
        assert chunked.degrees((0, 1))[(1, 5)] == 2
        assert chunked.max_degree((1,)) == 3
        assert chunked.heavy_hitters(0, 3) == {1: 3}

    def test_validate_domain(self, storage):
        good = ChunkedRelation.from_array(
            "g", np.array([[0], [4]]), storage=storage
        )
        Database([good], 5)
        bad = ChunkedRelation.from_array(
            "b", np.array([[0], [7]]), storage=storage, chunk_rows=1
        )
        with pytest.raises(ValueError, match="outside domain"):
            Database([bad], 5)

    def test_rejects_bad_shapes(self, storage):
        spool = storage.spool("bad", 2)
        with pytest.raises(ValueError, match="batch"):
            spool.append(np.arange(4))
        with pytest.raises(ValueError, match="batch"):
            spool.append(np.arange(9).reshape(3, 3))


class TestIterArrayChunks:
    def test_plain_relation_single_chunk(self):
        rel = Relation("r", 2, [(1, 2), (3, 4)])
        chunks = list(iter_array_chunks(rel, None))
        assert len(chunks) == 1
        assert np.array_equal(chunks[0], rel.to_array())

    def test_plain_relation_sliced(self):
        rel = Relation.from_array("r", np.arange(20).reshape(10, 2))
        chunks = list(iter_array_chunks(rel, 3))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert np.array_equal(np.concatenate(chunks), rel.to_array())

    def test_chunked_relation_uses_own_granularity(self, storage):
        chunked = ChunkedRelation.from_array(
            "c", np.arange(20).reshape(10, 2), storage=storage, chunk_rows=4
        )
        chunks = list(iter_array_chunks(chunked, 9999))
        assert [len(c) for c in chunks] == [4, 4, 2]

    def test_bare_array(self):
        arr = np.arange(12).reshape(6, 2)
        assert np.array_equal(
            np.concatenate(list(iter_array_chunks(arr, 4))), arr
        )

    def test_empty_sources_yield_nothing(self, storage):
        assert list(iter_array_chunks(np.empty((0, 2)), 4)) == []
        assert list(iter_array_chunks(storage.spool("e", 2), 4)) == []


class TestPseudorandomPermutation:
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1000, 1 << 17])
    def test_is_a_permutation(self, n):
        rng = np.random.default_rng(n)
        perm = PseudorandomPermutation.from_rng(n, rng)
        image = perm.apply_array(np.arange(n, dtype=np.int64))
        assert len(np.unique(image)) == n
        assert image.min() >= 0 and image.max() < n

    def test_scalar_matches_vectorized(self):
        perm = PseudorandomPermutation.from_rng(97, np.random.default_rng(3))
        column = perm.apply_array(np.arange(97))
        assert [perm(i) for i in range(0, 97, 13)] == [
            int(column[i]) for i in range(0, 97, 13)
        ]

    def test_different_keys_differ(self):
        rng = np.random.default_rng(0)
        a = PseudorandomPermutation.from_rng(512, rng)
        b = PseudorandomPermutation.from_rng(512, rng)
        index = np.arange(512)
        assert not np.array_equal(a.apply_array(index), b.apply_array(index))

    def test_rejects_out_of_domain(self):
        perm = PseudorandomPermutation.from_rng(10, np.random.default_rng(1))
        with pytest.raises(ValueError, match="domain"):
            perm.apply_array(np.array([10]))
        with pytest.raises(ValueError, match="round keys"):
            PseudorandomPermutation(10, [1, 2])
