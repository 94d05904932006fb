"""Chunked/out-of-core execution must be bit-identical to in-memory.

The acceptance property of the storage subsystem: for every query
family the repo executes -- vanilla HyperCube, the skew-aware star and
triangle algorithms, and multi-round plans -- running with chunked
routing and disk-spilling fragments produces exactly the same answers
and the same per-server per-round loads (bits and tuples) as the
in-memory run, across *random chunk sizes*, including the
capacity-truncation edge where per-server arrival order is the whole
story.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session
from repro.config import ExecutionSettings
from repro.core.families import star_query, triangle_query
from repro.core.query import Atom, ConjunctiveQuery
from repro.data.generators import (
    matching_database,
    planted_heavy_hitter_database,
    uniform_database,
    zipf_database,
)
from repro.multiround.plans import chain_plan, generic_plan, star_plan
from repro.hypercube.algorithm import hypercube_core
from repro.multiround.executor import multiround_core
from repro.skew.star import star_core
from repro.run import dispatch_run
from repro.storage import StorageManager

from tests.conftest import random_queries
from tests.reference.multiway_join import evaluate
from tests.reference.tuple_kernel import tuple_kernel

NUMPY = ExecutionSettings()


def assert_same_report(reference, chunked):
    assert chunked.num_rounds == reference.num_rounds
    for round_c, round_r in zip(chunked.rounds, reference.rounds):
        assert round_c.bits == round_r.bits
        assert round_c.tuples == round_r.tuples
        assert round_c.dropped_bits == round_r.dropped_bits
    assert chunked.total_bits == reference.total_bits
    assert chunked.max_load_bits == reference.max_load_bits


class TestHyperCubeChunked:
    @given(
        query=random_queries(),
        seed=st.integers(min_value=0, max_value=2**20),
        chunk_rows=st.integers(min_value=2, max_value=40),
    )
    @settings(max_examples=10, deadline=None)
    def test_random_queries_random_chunk_sizes(self, query, seed, chunk_rows):
        n = 8
        sizes = {a.relation: min(25, n**a.arity) for a in query.atoms}
        db = uniform_database(query, m=sizes, n=n, seed=seed)
        reference = dispatch_run(
            hypercube_core, query, db, 8, seed=seed, settings=NUMPY
        )
        with StorageManager(chunk_rows=chunk_rows) as storage:
            chunked = dispatch_run(
                hypercube_core, query, db, 8, seed=seed, settings=NUMPY,
                storage=storage,
            )
            assert_same_report(reference.report, chunked.report)
            assert np.array_equal(
                chunked.answers_array(), reference.answers_array()
            )
        assert reference.answers == evaluate(query, db)

    def test_spilling_triangle_matches_in_memory(self):
        # Large enough to spill full chunks on all 64 servers.
        query = triangle_query()
        db = matching_database(query, m=60_000, n=240_000, seed=42)
        reference = dispatch_run(
            hypercube_core, query, db, 64, seed=42, settings=NUMPY
        )
        with StorageManager(chunk_rows=1024) as storage:
            chunked = dispatch_run(
                hypercube_core, query, db, 64, seed=42, settings=NUMPY,
                storage=storage,
            )
            assert storage.bytes_spilled > 0
            assert chunked.report.num_rounds == 1
            assert_same_report(reference.report, chunked.report)
            assert chunked.answers == reference.answers

    def test_chunk_rows_without_storage(self):
        # Chunked routing alone (in-memory fragments) is the same code
        # path the spilling run uses; it must also be bit-identical.
        query = triangle_query()
        db = matching_database(query, m=300, n=1200, seed=4)
        reference = Session(p=8, seed=1).run(
            query, db, "hypercube"
        )
        chunked = Session(p=8, seed=1, chunk_rows=17).run(
            query, db, "hypercube"
        )
        assert_same_report(reference.report, chunked.report)
        assert chunked.answers == reference.answers

    def test_chunked_database_relations(self):
        # Databases whose relations are themselves chunked (the
        # generator storage path) execute identically to their
        # in-memory twin databases.
        query = triangle_query()
        db = matching_database(query, m=400, n=1600, seed=9)
        with StorageManager(chunk_rows=64) as storage:
            from repro.storage import ChunkedRelation

            twin = type(db)(
                (
                    ChunkedRelation.from_relation(db[name], storage=storage)
                    for name in query.relation_names
                ),
                db.domain_size,
            )
            reference = Session(p=8, seed=2).run(
                query, db, "hypercube"
            )
            chunked = Session(
                p=8, seed=2, storage=storage
            ).run(query, twin, "hypercube")
            assert_same_report(reference.report, chunked.report)
            assert np.array_equal(
                chunked.answers_array(), reference.answers_array()
            )

    def test_capacity_truncation_identical(self):
        # The sharpest equivalence: a binding capacity cap with
        # on_overflow="drop" truncates per-server *prefixes*, so the
        # chunked path must deliver every server the identical row
        # sequence -- across chunk sizes and against the tuple path.
        query = ConjunctiveQuery(
            (Atom("S1", ("x", "z")), Atom("S2", ("y", "z"))), name="J"
        )
        db = planted_heavy_hitter_database(query, 200, 2000, "z", 1.0, 5, seed=1)
        knobs = dict(p=16, seed=3, capacity_bits=333.3, on_overflow="drop")
        exponents = {"z": 1.0}
        with tuple_kernel():
            reference = Session(**knobs).run(
                query, db, "hypercube", exponents=exponents
            )
        assert reference.report.dropped_bits > 0
        for chunk_rows in (1, 64, 10_000):
            with StorageManager(chunk_rows=chunk_rows) as storage:
                chunked = Session(storage=storage, **knobs).run(
                    query, db, "hypercube", exponents=exponents
                )
                assert_same_report(reference.report, chunked.report)
                assert chunked.answers == reference.answers

    @pytest.mark.parametrize(
        "strategy", ["single-server", "broadcast", "hypercube", "skew-triangle"]
    )
    def test_every_strategy_streams(self, strategy):
        # No strategy declines a manager: the baselines are block lists
        # too, so their fragments spool and their report carries the
        # spill traffic, bit-identical to the in-memory run.
        query = triangle_query()
        db = matching_database(query, m=60, n=240, seed=0)
        knobs = dict(p=4, seed=2, capacity_bits=900.0, on_overflow="drop")
        reference = Session(**knobs).run(query, db, strategy)
        with StorageManager(chunk_rows=8) as storage:
            chunked = Session(storage=storage, **knobs).run(query, db, strategy)
            assert chunked.report.spill_stats is not None
            assert chunked.report.spill_stats["bytes_written"] > 0
            assert_same_report(reference.report, chunked.report)
            assert chunked.answers == reference.answers

    def test_spill_files_are_cleaned_up(self):
        query = triangle_query()
        db = matching_database(query, m=500, n=2000, seed=3)
        with StorageManager(chunk_rows=32) as storage:
            Session(p=8, seed=0, storage=storage).run(query, db, "hypercube")
            assert storage.bytes_spilled > 0
            root = storage.root
            # Per-server fragments are freed right after their joins.
            assert not list(root.glob("*srv*"))
        assert not root.exists()


class TestSkewChunked:
    @pytest.mark.parametrize("chunk_rows", [3, 50, 100_000])
    def test_star_zipf(self, chunk_rows):
        query = star_query(3)
        db = zipf_database(query, m=300, n=120, skew=1.2, seed=3)
        reference = Session(p=16, seed=3).run(
            query, db, "skew-star"
        )
        with StorageManager(chunk_rows=chunk_rows) as storage:
            chunked = Session(
                p=16, seed=3, storage=storage
            ).run(query, db, "skew-star")
            assert_same_report(reference.report, chunked.report)
            assert chunked.answers == reference.answers
            assert chunked.details["heavy_hitters"] == reference.details["heavy_hitters"]

    @given(
        seed=st.integers(min_value=0, max_value=2**10),
        chunk_rows=st.integers(min_value=2, max_value=64),
    )
    @settings(max_examples=6, deadline=None)
    def test_star_random_chunks(self, seed, chunk_rows):
        query = star_query(2)
        db = zipf_database(query, m=150, n=60, skew=1.0, seed=seed)
        reference = dispatch_run(
            star_core, query, db, 8, seed=seed, settings=NUMPY
        )
        with StorageManager(chunk_rows=chunk_rows) as storage:
            chunked = dispatch_run(
                star_core, query, db, 8, seed=seed, settings=NUMPY,
                storage=storage,
            )
            assert_same_report(reference.report, chunked.report)
            assert chunked.answers == reference.answers
        assert reference.answers == evaluate(query, db)

    @pytest.mark.parametrize("chunk_rows", [5, 64, 100_000])
    def test_triangle_zipf(self, chunk_rows):
        query = triangle_query()
        db = zipf_database(query, m=300, n=80, skew=1.0, seed=4)
        reference = Session(p=8, seed=2).run(
            query, db, "skew-triangle"
        )
        with StorageManager(chunk_rows=chunk_rows) as storage:
            chunked = Session(
                p=8, seed=2, storage=storage
            ).run(query, db, "skew-triangle")
            assert_same_report(reference.report, chunked.report)
            assert chunked.answers == reference.answers


class TestMultiRoundChunked:
    @given(
        query=random_queries(connected_only=True),
        seed=st.integers(min_value=0, max_value=2**20),
        chunk_rows=st.integers(min_value=2, max_value=32),
    )
    @settings(max_examples=8, deadline=None)
    def test_random_generic_plans(self, query, seed, chunk_rows):
        n = 8
        sizes = {a.relation: min(20, n**a.arity) for a in query.atoms}
        db = uniform_database(query, m=sizes, n=n, seed=seed)
        plan = generic_plan(query, fanout=2)
        reference = dispatch_run(
            multiround_core, query, db, 8, seed=seed, settings=NUMPY, plan=plan
        )
        with StorageManager(chunk_rows=chunk_rows) as storage:
            chunked = dispatch_run(
                multiround_core, query, db, 8, seed=seed, settings=NUMPY,
                storage=storage, plan=plan,
            )
            assert_same_report(reference.report, chunked.report)
            assert np.array_equal(
                chunked.answers_array(), reference.answers_array()
            )
        assert reference.answers == evaluate(query, db)

    @pytest.mark.parametrize("chunk_rows", [2, 16, 100_000])
    def test_chain_plan_views_spill(self, chunk_rows):
        plan = chain_plan(4, 0.0)
        db = matching_database(plan.query, m=200, n=200, seed=6)
        reference = dispatch_run(
            multiround_core, plan.query, db, 8, seed=3, settings=NUMPY, plan=plan
        )
        with StorageManager(chunk_rows=chunk_rows) as storage:
            chunked = dispatch_run(
                multiround_core, plan.query, db, 8, seed=3, settings=NUMPY,
                storage=storage, plan=plan, keep_view_fragments=True,
            )
            assert_same_report(reference.report, chunked.report)
            assert chunked.answers == reference.answers
            if chunk_rows <= 16:
                assert storage.bytes_spilled > 0
            # The root view's spools are adopted as output spools, not
            # copied: the final result is never re-spilled.
            root = plan.root.name
            sim = chunked.simulation
            for server, fragment in enumerate(chunked.details["view_fragments"][root]):
                if len(fragment):
                    assert sim._output_spools[server] is fragment

    def test_star_plan_chunked(self):
        plan = star_plan(3)
        db = matching_database(plan.query, m=120, n=600, seed=7)
        reference = Session(p=8, seed=2).run(
            plan.query, db, "multiround", plan=plan
        )
        with StorageManager(chunk_rows=13) as storage:
            chunked = Session(
                p=8, seed=2, storage=storage
            ).run(plan.query, db, "multiround", plan=plan)
            assert_same_report(reference.report, chunked.report)
            assert chunked.answers == reference.answers

    @pytest.mark.parametrize("chunk_rows", [3, 1000])
    def test_capacity_truncation_identical_chunked(self, chunk_rows):
        # Satellite edge: a binding per-round cap inside a multi-round
        # plan truncates identically on the tuple, in-memory columnar,
        # and chunked paths -- drops in round 1 then propagate
        # identically through round 2.  The tuple oracle also streams.
        plan = chain_plan(4, 0.0)
        db = zipf_database(plan.query, m=150, n=60, skew=1.0, seed=9)
        knobs = dict(p=8, seed=1, capacity_bits=2000.0, on_overflow="drop")
        with tuple_kernel():
            reference = Session(**knobs).run(
                plan.query, db, "multiround", plan=plan
            )
        assert reference.report.dropped_bits > 0
        in_memory = Session(**knobs).run(
            plan.query, db, "multiround", plan=plan
        )
        assert_same_report(reference.report, in_memory.report)
        assert in_memory.answers == reference.answers
        with StorageManager(chunk_rows=chunk_rows) as storage:
            chunked = Session(storage=storage, **knobs).run(
                plan.query, db, "multiround", plan=plan
            )
            assert_same_report(reference.report, chunked.report)
            assert chunked.answers == reference.answers
            with tuple_kernel():
                oracle = Session(storage=storage, **knobs).run(
                    plan.query, db, "multiround", plan=plan
                )
            assert oracle.report.spill_stats is not None
            assert_same_report(reference.report, oracle.report)
            assert oracle.answers == reference.answers
