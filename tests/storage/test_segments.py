"""The spill segment format: one raw int64 file per spool.

Full chunks append to the spool's segment file with one write per
flush, the file is never held open between flushes, reads map it once
per pass, and ``(path, offset, rows)`` handles carry spilled rows across
the process boundary.  The manager's accounting stays true per file:
deleting a spool subtracts the whole segment, not its last append.
"""

from __future__ import annotations

import os
import pathlib

import numpy as np
import pytest

from repro import Session, triangle_query
from repro.data.generators import matching_database, uniform_database
from repro.mpc.simulator import MPCSimulation
from repro.parallel.tasks import server_join_task
from repro.storage import SegmentSlice, StorageManager


@pytest.fixture
def storage(tmp_path):
    manager = StorageManager(root=tmp_path / "spill", chunk_rows=4)
    yield manager
    manager.close()


def test_interleaved_appends_and_reads(storage):
    spool = storage.spool("mix", 2)
    rows = np.arange(60, dtype=np.int64).reshape(30, 2)
    spool.append(rows[:10])  # 2 chunks spill, 2 rows stay in the tail
    np.testing.assert_array_equal(spool.to_array(), rows[:10])
    spool.append(rows[10:23])
    assert [len(c) for c in spool.chunks()] == [4, 4, 4, 4, 4, 3]
    np.testing.assert_array_equal(spool.to_array(), rows[:23])
    spool.append(rows[23:])
    np.testing.assert_array_equal(spool.to_array(), rows)
    (segment,) = storage.root.glob("*.i64")
    assert segment.stat().st_size == spool.spilled_chunks * 4 * 2 * 8
    assert storage.files_created == 1


def test_chunks_are_slices_of_one_map(storage):
    spool = storage.spool("one", 1)
    spool.append(np.arange(13)[:, None])
    chunks = list(spool.chunks())
    spilled = [c for c in chunks if isinstance(c, np.memmap)]
    assert len(spilled) == spool.spilled_chunks == 3
    assert len({id(c._mmap) for c in spilled}) == 1


def test_kept_segments_stay_readable_after_close(tmp_path):
    manager = StorageManager(root=tmp_path / "kept", chunk_rows=3, keep=True)
    spool = manager.spool("kept", 2)
    rows = np.arange(22).reshape(11, 2)
    spool.append(rows)
    handles = spool.chunk_handles()
    manager.close()
    np.testing.assert_array_equal(spool.to_array(), rows)
    loaded = [
        h.load() if isinstance(h, SegmentSlice) else h for h in handles
    ]
    np.testing.assert_array_equal(np.concatenate(loaded), rows)
    (segment,) = manager.root.glob("*.i64")
    raw = np.fromfile(segment, dtype=np.int64).reshape(-1, 2)
    np.testing.assert_array_equal(raw, rows[:9])


def test_chunk_and_segment_handles_cover_the_same_rows(storage):
    spool = storage.spool("h", 2)
    rows = np.arange(38).reshape(19, 2)
    spool.append(rows)
    per_chunk = spool.chunk_handles()
    assert [h.offset for h in per_chunk[:-1]] == [0, 4, 8, 12]
    whole = spool.segment_handles()
    assert whole[0] == SegmentSlice(per_chunk[0].path, 0, 16, 2)
    for handles in (per_chunk, whole):
        loaded = [
            h.load() if isinstance(h, SegmentSlice) else h for h in handles
        ]
        np.testing.assert_array_equal(np.concatenate(loaded), rows)
    # Both hand-offs account the same bytes as one read pass.
    assert storage.bytes_read == 2 * spool.spilled_chunks * 4 * 2 * 8


def test_join_task_gets_one_source_per_spool(storage):
    q = triangle_query()
    rows = np.arange(60, dtype=np.int64).reshape(30, 2)
    sim = MPCSimulation(p=1, value_bits=8, storage=storage)
    sim.begin_round()
    for relation in q.relation_names:
        for start in range(0, 30, 7):  # many small deliveries
            sim.send_array(0, relation, rows[start:start + 7])
    sim.end_round()
    task = server_join_task(q, sim.server(0), 0)
    assert len(task.fragments) == 3
    for _, sources in task.fragments:
        # All 28 spilled rows as one segment slice, then the 2-row tail.
        assert sources[0].segment == SegmentSlice(
            sources[0].segment.path, 0, 28, 2
        )
        assert len(sources[1].rows) == 2


@pytest.mark.skipif(
    not pathlib.Path("/proc/self/fd").is_dir(), reason="needs /proc"
)
def test_no_descriptor_held_between_appends(storage):
    def open_fds() -> int:
        return len(os.listdir("/proc/self/fd"))

    baseline = open_fds()
    spools = [storage.spool(f"fd{i}", 1) for i in range(500)]
    for round_ in range(3):
        for spool in spools:
            spool.append(np.arange(5)[:, None] + round_)
    assert sum(s.spilled_chunks for s in spools) == 500 * 3
    assert open_fds() <= baseline + 2


def test_process_pool_segment_handles_equal_serial(tmp_path):
    q = triangle_query()
    db = uniform_database(q, m=2_000, n=200, seed=3)
    serial = Session(p=8, seed=4).run(q, db, "hypercube")
    with StorageManager(root=tmp_path / "p", chunk_rows=32) as storage:
        pooled = Session(
            p=8, seed=4, storage=storage, pool="process", max_workers=2
        ).run(q, db, "hypercube")
        assert storage.files_created > 0
        np.testing.assert_array_equal(
            pooled.answers_array(), serial.answers_array()
        )
    for ours, theirs in zip(pooled.report.rounds, serial.report.rounds):
        assert ours.bits == theirs.bits
        assert ours.tuples == theirs.tuples


def test_spilling_run_leaves_no_live_bytes(tmp_path):
    # Every server spool flushes many times; deleting it after its join
    # must subtract the whole segment.  Charging only the last flush
    # leaks live_bytes, and on a shared manager the leak accumulates
    # into peak_live_bytes run after run.
    q = triangle_query()
    db = matching_database(q, m=2_000, n=8_000, seed=1)
    with StorageManager(root=tmp_path / "live", chunk_rows=64) as storage:
        result = Session(p=8, seed=0, storage=storage).run(
            q, db, "hypercube"
        )
        assert len(result.answers_array()) < 64  # outputs never spill
        assert storage.writes > storage.files_created > 0
        assert storage.live_bytes == 0
        assert storage.peak_live_bytes == storage.bytes_written
