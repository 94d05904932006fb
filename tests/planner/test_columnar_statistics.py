"""Exact planner statistics stay columnar.

The statistics scan is one vectorised pass per (atom, variable) over
the relations' arrays.  The regression guard for the memory side of
that: planning and running an array-born database must never build the
relations' Python tuple sets, and a chunked twin must yield exactly the
statistics of its in-memory relation.
"""

from __future__ import annotations

import pytest

from repro import Session
from repro.config import MachineSpec
from repro.core.families import chain_query, star_query, triangle_query
from repro.data.database import Database
from repro.data.generators import matching_database, zipf_database
from repro.planner.statistics import DataStatistics
from repro.storage.chunked import ChunkedRelation

P = 64

CASES = {
    "hypercube": lambda: (
        triangle_query(),
        zipf_database(triangle_query(), m=4000, n=300, skew=0.1, seed=1),
    ),
    "multiround": lambda: (
        chain_query(4),
        matching_database(chain_query(4), m=3000, n=6000, seed=1),
    ),
}


class TestNoTupleMaterialisation:
    @pytest.mark.parametrize("strategy", sorted(CASES))
    def test_session_run_leaves_inputs_columnar(self, strategy):
        query, database = CASES[strategy]()
        assert all(rel._tuples_cache is None for rel in database)
        # The homogeneous cluster, whatever REPRO_DEFAULT_MACHINES says:
        # the expected winner is the uniform-speed ranking's.
        session = Session(p=P, machines=MachineSpec.uniform(P))
        result = session.run(query, database)
        assert result.strategy == strategy  # the planner's own choice
        for relation in database:
            assert relation._tuples_cache is None, relation.name


class TestChunkedTwin:
    @pytest.mark.parametrize("chunk_rows", [1, 7, 1000, 10**6])
    def test_statistics_equal_in_memory(self, chunk_rows):
        query = star_query(2)
        database = zipf_database(query, m=3000, n=800, skew=1.1, seed=5)
        twin = Database(
            [
                ChunkedRelation.from_relation(rel, chunk_rows=chunk_rows)
                for rel in database
            ],
            database.domain_size,
        )
        expected = DataStatistics.from_database(query, database, 16)
        got = DataStatistics.from_database(query, twin, 16)
        assert got.stats == expected.stats
        assert sorted(got.hitters) == sorted(expected.hitters)
        assert any(
            freqs
            for stats_v in expected.hitters.values()
            for freqs in stats_v.frequencies.values()
        )
        for variable, stats_v in expected.hitters.items():
            assert got.hitters[variable].frequencies == stats_v.frequencies
