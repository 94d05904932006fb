"""Tests for the baseline one-round algorithms."""

from __future__ import annotations

import pytest

from repro import Session
from repro.config import ExecutionSettings, MachineSpec
from repro.core.families import (
    chain_query,
    simple_join_query,
    star_query,
    triangle_query,
)
from repro.data.generators import (
    matching_database,
    planted_heavy_hitter_database,
    uniform_database,
)
from repro.mpc.simulator import LoadExceededError
from repro.planner import DataStatistics
from repro.planner.cost import share_candidates
from repro.hypercube.baselines import broadcast_core
from repro.run import dispatch_run
from tests.reference.multiway_join import evaluate


class TestSingleServer:
    def test_correct_and_load_is_input_size(self):
        q = triangle_query()
        db = matching_database(q, m=40, n=160, seed=1)
        stats = db.statistics(q)
        result = Session(p=8).run(q, db, "single-server")
        assert result.answers == evaluate(q, db)
        assert result.max_load_bits == pytest.approx(stats.total_bits)

    def test_degenerate_parallelism(self):
        # The paper's point: L = M means no parallelism at all.
        q = simple_join_query()
        db = matching_database(q, m=30, n=120, seed=2)
        result = Session(p=64).run(q, db, "single-server")
        assert result.report.server_total_bits(1) == 0.0


class TestParallelHashJoin:
    """Example 4.1's hash join: HyperCube pinned to the join variable."""

    def test_simple_join_correct(self):
        q = simple_join_query()
        db = uniform_database(q, m=50, n=30, seed=3)
        result = Session(p=8).run(q, db, "hypercube", exponents={"z": 1.0})
        assert result.answers == evaluate(q, db)
        assert result.details["shares"]["z"] == 8

    def test_good_load_without_skew(self):
        q = simple_join_query()
        m, p = 800, 16
        db = matching_database(q, m=m, n=2**13, seed=4)
        stats = db.statistics(q)
        result = Session(p=p).run(q, db, "hypercube", exponents={"z": 1.0})
        # Without skew the hash join achieves ~ 2M/p bits per server.
        fair_share = 2 * stats.bits("S1") / p
        assert result.max_load_bits <= 3 * fair_share

    def test_terrible_load_with_skew(self):
        # Example 4.1: everything shares one z: load Theta(M).
        q = simple_join_query()
        db = planted_heavy_hitter_database(q, 300, 3000, "z", 1.0, 9, seed=5)
        stats = db.statistics(q)
        result = Session(p=16).run(q, db, "hypercube", exponents={"z": 1.0})
        assert result.answers == evaluate(q, db)
        assert result.max_load_bits >= stats.bits("S1") + stats.bits("S2")

    def test_star_query_join_key(self):
        q = star_query(3)
        db = matching_database(q, m=60, n=240, seed=6)
        dstats = DataStatistics(db.statistics(q))
        assert dict(share_candidates(q, dstats, 8))["hash on z"]["z"] == 8
        result = Session(p=8).run(q, db, "hypercube", exponents={"z": 1.0})
        assert result.answers == evaluate(q, db)

    def test_no_common_variable_needs_explicit_key(self):
        # No variable of L3 occurs in every atom: the hash join is no
        # HyperCube candidate, but an explicit key still pins it.
        q = chain_query(3)
        db = matching_database(q, m=10, n=40, seed=7)
        dstats = DataStatistics(db.statistics(q))
        labels = [label for label, _ in share_candidates(q, dstats, 4)]
        assert labels == ["LP(10)", "LP(18)"]
        result = Session(p=4).run(q, db, "hypercube", exponents={"x1": 1.0})
        assert result.details["shares"]["x1"] == 4
        assert result.answers == evaluate(q, db)


class TestBroadcastJoin:
    def test_correct(self):
        q = triangle_query()
        db = uniform_database(q, m=40, n=25, seed=8)
        result = Session(p=6).run(q, db, "broadcast")
        assert result.answers == evaluate(q, db)

    def test_partitions_largest_by_default(self):
        q = simple_join_query()
        db = matching_database(q, {"S1": 10, "S2": 500}, n=2000, seed=9)
        stats = db.statistics(q)
        result = Session(p=10).run(q, db, "broadcast")
        assert result.answers == evaluate(q, db)
        # Load ~ broadcast small + partitioned slice of large.
        upper = stats.bits("S1") + 3 * stats.bits("S2") / 10
        assert result.max_load_bits <= upper

    def test_unknown_partition_relation(self):
        q = simple_join_query()
        db = matching_database(q, m=5, n=20, seed=10)
        with pytest.raises(KeyError):
            dispatch_run(
                broadcast_core, q, db, 2, seed=0, settings=ExecutionSettings(),
                partition_relation="zzz",
            )

    def test_matches_hc_regime_for_tiny_relation(self):
        # Lemma 3.18: relations with M_j < M/p are broadcast by the HC
        # optimum; the explicit broadcast join then performs comparably.
        q = simple_join_query()
        db = matching_database(q, {"S1": 4, "S2": 400}, n=1600, seed=11)
        result = dispatch_run(
            broadcast_core, q, db, 8, seed=0, settings=ExecutionSettings(),
            partition_relation="S2",
        )
        assert result.answers == evaluate(q, db)


@pytest.mark.parametrize("strategy", ["single-server", "broadcast"])
class TestClusterSpec:
    """The baselines run on the session's cluster like every engine."""

    def test_per_machine_cap_breach_carries_the_servers_own_cap(self, strategy):
        q = triangle_query()
        db = matching_database(q, m=40, n=160, seed=1)
        machines = MachineSpec((1.0,) * 4, capacities=(96.0, None, None, None))
        with pytest.raises(LoadExceededError) as err:
            Session(p=4, machines=machines).run(q, db, strategy)
        assert err.value.server == 0
        assert err.value.capacity == 96.0

    def test_drop_mode_truncates_at_the_machine_cap(self, strategy):
        q = triangle_query()
        db = matching_database(q, m=40, n=160, seed=1)
        machines = MachineSpec((1.0,) * 4, capacities=(96.0, None, None, None))
        result = Session(p=4, machines=machines, on_overflow="drop").run(
            q, db, strategy
        )
        (load,) = result.report.rounds
        assert load.bits[0] <= 96.0 < load.bits[0] + load.dropped_bits[0]
        assert result.report.machines == machines

    def test_phase_seconds_and_makespan_recorded(self, strategy):
        q = triangle_query()
        db = matching_database(q, m=40, n=160, seed=1)
        with Session(p=4, machines="2x1,2x2") as session:
            result = session.run(q, db, strategy)
            record = session.history[-1]
        assert record.phase_seconds
        assert record.makespan_bits is not None
        assert result.answers == evaluate(q, db)
