"""Heterogeneity end-to-end: uniform bit-identity, caps, planner, trace.

The heterogeneous machine model's central invariant is that the uniform
spec is *bit-identical* to the pre-heterogeneity code paths: equal
speeds normalize away to the unweighted modulo hash and absent
per-machine caps leave the global capacity comparisons untouched.
These tests pin that down for all four engines on the array kernel and
the tuple oracle, across pools and storage, then exercise the genuinely
heterogeneous behavior --
per-server caps in :class:`LoadExceededError`, makespan pricing in the
planner, speed-weighted routing reducing measured makespan, and the
trace/record/summary plumbing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ClusterConfig,
    MachineSpec,
    Session,
    matching_database,
    plan_query,
    star_query,
    triangle_query,
    zipf_database,
)
from repro.config import ExecutionSettings
from repro.core.families import chain_query
from repro.hypercube.analysis import (
    predicted_load_bits_with_frequencies,
    predicted_makespan_bits,
    predicted_server_loads_bits,
)
from repro.mpc.simulator import LoadExceededError, MPCSimulation
from repro.multiround.plans import chain_plan
from repro.planner.cost import hypercube_cost, star_cost
from repro.planner.statistics import DataStatistics
from repro.run import dispatch_run
from repro.skew.star import star_core
from repro.storage.manager import StorageManager
from repro.trace import TraceQuery, TraceRecorder, tracing

from tests.reference.fingerprint import fingerprint
from tests.reference.multiway_join import evaluate
from tests.reference.tuple_kernel import kernel


HETERO = MachineSpec.parse("4x1,4x4")


# --------------------------------------------------------------------------
# Tentpole invariant: MachineSpec.uniform(p) is bit-identical to None.
# --------------------------------------------------------------------------


class TestUniformIdentity:
    @pytest.mark.parametrize("kernel_name", ("tuples", "numpy"))
    @pytest.mark.parametrize("speed", (1.0, 2.5))
    def test_hypercube(self, kernel_name, speed):
        q = triangle_query()
        db = matching_database(q, m=300, n=1200, seed=3)
        with kernel(kernel_name):
            plain = Session(p=8, seed=1).run(q, db, "hypercube")
            uniform = Session(
                p=8, seed=1, machines=MachineSpec.uniform(8, speed=speed),
            ).run(q, db, "hypercube")
        assert fingerprint(uniform) == fingerprint(plain)

    @pytest.mark.parametrize("kernel_name", ("tuples", "numpy"))
    def test_star_skew(self, kernel_name):
        q = star_query(2)
        db = zipf_database(q, m=500, n=500, skew=1.0, seed=2)
        with kernel(kernel_name):
            plain = Session(p=8, seed=1).run(q, db, "skew-star")
            uniform = Session(
                p=8, seed=1, machines=MachineSpec.uniform(8),
            ).run(q, db, "skew-star")
        assert fingerprint(uniform) == fingerprint(plain)

    @pytest.mark.parametrize("kernel_name", ("tuples", "numpy"))
    def test_triangle_skew(self, kernel_name):
        q = triangle_query()
        db = zipf_database(q, m=400, n=400, skew=1.0, seed=4)
        with kernel(kernel_name):
            plain = Session(p=4, seed=1).run(q, db, "skew-triangle")
            uniform = Session(
                p=4, seed=1, machines=MachineSpec.uniform(4),
            ).run(q, db, "skew-triangle")
        assert fingerprint(uniform) == fingerprint(plain)

    @pytest.mark.parametrize("kernel_name", ("tuples", "numpy"))
    def test_multiround(self, kernel_name):
        q = chain_query(4)
        db = matching_database(q, m=400, n=1600, seed=5)
        plan = chain_plan(4)
        with kernel(kernel_name):
            plain = Session(p=8, seed=1).run(q, db, "multiround", plan=plan)
            uniform = Session(
                p=8, seed=1, machines=MachineSpec.uniform(8),
            ).run(q, db, "multiround", plan=plan)
        assert fingerprint(uniform) == fingerprint(plain)

    @pytest.mark.parametrize("pool", ("thread", "process"))
    def test_across_pools(self, pool):
        q = triangle_query()
        db = matching_database(q, m=300, n=1200, seed=3)
        plain = Session(p=8, seed=1, pool="serial").run(q, db, "hypercube")
        uniform = Session(
            p=8, seed=1, pool=pool, max_workers=2,
            machines=MachineSpec.uniform(8),
        ).run(q, db, "hypercube")
        assert fingerprint(uniform) == fingerprint(plain)

    def test_with_storage(self, tmp_path):
        q = triangle_query()
        db = matching_database(q, m=300, n=1200, seed=3)
        plain = Session(p=8, seed=1).run(q, db, "hypercube")
        with StorageManager(root=tmp_path / "spill", chunk_rows=64) as st:
            uniform = Session(
                p=8, seed=1, storage=st, machines=MachineSpec.uniform(8),
            ).run(q, db, "hypercube")
            assert fingerprint(uniform) == fingerprint(plain)

    def test_truncation_identical_under_uniform_spec(self):
        q = triangle_query()
        db = matching_database(q, m=400, n=1600, seed=3)
        knobs = dict(p=8, seed=1, capacity_bits=3000.0, on_overflow="drop")
        plain = Session(**knobs).run(q, db, "hypercube")
        assert plain.report.dropped_bits > 0
        uniform = Session(machines=MachineSpec.uniform(8), **knobs).run(
            q, db, "hypercube"
        )
        assert fingerprint(uniform) == fingerprint(plain)

    def test_session_records_uniform_as_homogeneous(self):
        q = triangle_query()
        db = matching_database(q, m=300, n=1200, seed=0)
        with Session(p=8, seed=0) as session:
            plain = session.run(q, db)
            baseline = fingerprint(plain)
        with Session(p=8, seed=0, machines=MachineSpec.uniform(8)) as session:
            uniform = session.run(q, db)
            record = session.history[-1]
        assert fingerprint(uniform) == baseline
        # Degenerate spec: the record carries no heterogeneity fields.
        assert record.machines is None
        assert record.makespan_bits is None

    def test_predicted_loads_reduce_to_homogeneous(self):
        q = triangle_query()
        db = matching_database(q, m=500, n=2000, seed=0)
        dstats = DataStatistics.from_database(q, db, 8)
        shares = {v: 2 for v in q.variables}
        classic = predicted_load_bits_with_frequencies(
            q, dstats.stats, shares, dstats.frequency_maps()
        )
        for spec in (None, MachineSpec.uniform(8), MachineSpec.uniform(8, 3.0)):
            loads = predicted_server_loads_bits(
                q, dstats.stats, shares, spec, dstats.frequency_maps()
            )
            assert max(loads) == pytest.approx(classic)
        assert predicted_makespan_bits(
            q, dstats.stats, shares, MachineSpec.uniform(8),
            dstats.frequency_maps(),
        ) == pytest.approx(classic)


# --------------------------------------------------------------------------
# Per-server capacities (satellite: LoadExceededError carries the
# breaching server's own cap).
# --------------------------------------------------------------------------


class TestPerServerCapacities:
    def test_error_carries_breaching_servers_cap(self):
        machines = MachineSpec(
            (1.0, 1.0), capacities=(10_000.0, 64.0)
        )
        sim = MPCSimulation(p=2, value_bits=32, machines=machines)
        sim.begin_round()
        sim.send_array(0, "R", np.array([(1, 2)] * 10))  # well under server 0's cap
        with pytest.raises(LoadExceededError) as err:
            sim.send_array(1, "R", np.array([(1, 2)] * 10))
        assert err.value.server == 1
        assert err.value.capacity == 64.0  # its own cap, not a global one
        assert err.value.bits > 64.0

    def test_global_cap_tightens_machine_cap(self):
        machines = MachineSpec((1.0, 1.0), capacities=(None, 1000.0))
        sim = MPCSimulation(p=2, value_bits=32, capacity_bits=64.0,
                            machines=machines)
        sim.begin_round()
        with pytest.raises(LoadExceededError) as err:
            sim.send_array(1, "R", np.array([(1, 2)] * 10))
        assert err.value.capacity == 64.0

    def test_drop_mode_truncates_at_per_server_cap(self):
        machines = MachineSpec((1.0, 1.0), capacities=(None, 128.0))
        sim = MPCSimulation(p=2, value_bits=32, on_overflow="drop",
                            machines=machines)
        sim.begin_round()
        sim.send_array(0, "R", np.array([(i, i) for i in range(10)]))
        sim.send_array(1, "R", np.array([(i, i) for i in range(10)]))
        load = sim.end_round()
        assert load.dropped_bits.get(1, 0.0) > 0
        assert 0 not in load.dropped_bits  # uncapped server keeps all
        assert load.bits[1] <= 128.0

    def test_session_config_threads_per_server_caps(self):
        q = triangle_query()
        db = matching_database(q, m=400, n=1600, seed=3)
        # One crippled server out of eight: its cap binds, the rest don't.
        caps = tuple([None] * 7 + [900.0])
        machines = MachineSpec((1.0,) * 8, capacities=caps)
        config = ClusterConfig(p=8, seed=0, on_overflow="drop",
                               machines=machines)
        with Session(config) as session:
            result = session.run(q, db, strategy="hypercube")
        report = result.load_report
        assert report.dropped_bits > 0
        dropped_servers = {
            s for r in report.rounds for s in r.dropped_bits
        }
        assert dropped_servers == {7}


# --------------------------------------------------------------------------
# Heterogeneous behavior: planner pricing, weighted routing, makespan.
# --------------------------------------------------------------------------


class TestHeterogeneousPlanning:
    def test_explain_table_reports_makespan(self):
        q = triangle_query()
        db = matching_database(q, m=500, n=2000, seed=0)
        explained = plan_query(q, db, 8, machines=HETERO)
        table = explained.table()
        assert "machines: 4x1+4x4" in table
        assert "predicted span" in table
        assert explained.machines is HETERO

    def test_uniform_spec_prices_like_none(self):
        q = triangle_query()
        db = matching_database(q, m=500, n=2000, seed=0)
        plain = plan_query(q, db, 8)
        uniform = plan_query(q, db, 8, machines=MachineSpec.uniform(8))
        assert [
            (c.name, c.estimate.load_bits) for c in uniform.ranked
        ] == [(c.name, c.estimate.load_bits) for c in plain.ranked]

    def test_makespan_estimates_beat_homogeneous_load(self):
        # 4 fast machines shoulder more bits, so every speed-weighted
        # makespan estimate is at most the homogeneous L estimate.
        q = triangle_query()
        db = matching_database(q, m=500, n=2000, seed=0)
        plain = plan_query(q, db, 8)
        hetero = plan_query(q, db, 8, machines=HETERO)
        for candidate in hetero.ranked:
            classic = plain.candidate(candidate.name).estimate.load_bits
            assert candidate.estimate.load_bits <= classic + 1e-9


def _makespan(result):
    return max(
        bits / HETERO.speed(s)
        for r in result.report.rounds
        for s, bits in r.bits.items()
    )


def _hypercube_cost(q, dstats, p, machines=None):
    return hypercube_cost(q, dstats, p, machines=machines)[2]


class TestHeterogeneousExecution:
    def test_weighted_shares_cut_measured_makespan(self):
        q = star_query(2)
        db = matching_database(q, m=2000, n=8000, seed=1)
        expected = evaluate(q, db)
        uniform = Session(p=8, seed=1).run(q, db, "skew-star")
        weighted = Session(p=8, seed=1, machines=HETERO).run(q, db, "skew-star")
        assert weighted.answers == expected
        assert uniform.answers == expected

        # Speed-weighted routing must strictly beat uniform hashing on
        # the same heterogeneous cluster.
        assert _makespan(weighted) < _makespan(uniform)
        assert weighted.report.makespan_bits == pytest.approx(
            _makespan(weighted)
        )

    @pytest.mark.parametrize(
        "strategy, q, cost, m, seed, predicted, measured",
        [
            ("skew-star", star_query(2), star_cost, 4_000, 7,
             (28_000, 11_200), (28_504, 11_438)),
            ("hypercube", triangle_query(), _hypercube_cost, 3_000, 11,
             (63_000, 37_800), (64_148, 38_276)),
        ],
        ids=["star", "triangle"],
    )
    def test_weighted_makespan_facts(
        self, strategy, q, cost, m, seed, predicted, measured
    ):
        # The model-unit makespans (max over servers of bits / speed)
        # of uniform and speed-weighted shares on the 4x1 + 4x4
        # cluster, predicted by the cost model and measured by the
        # simulator.  They depend only on the seeds and the hash, so
        # they are pinned exactly.
        db = matching_database(q, m=m, n=4 * m, seed=seed)
        dstats = DataStatistics.from_database(q, db, 8)
        expected = evaluate(q, db)
        runs = []
        for machines in (None, HETERO):
            result = Session(p=8, seed=seed, machines=machines).run(q, db, strategy)
            assert result.answers == expected
            runs.append(result)
        assert tuple(
            cost(q, dstats, 8, machines=machines).load_bits
            for machines in (None, HETERO)
        ) == predicted
        assert tuple(_makespan(result) for result in runs) == measured
        assert runs[1].report.makespan_bits == measured[1]

    def test_weighted_star_core_keeps_the_session_makespan(self):
        # The star engine alone, given the machines, measures the same
        # weighted makespan as the planned session run above.
        q = star_query(2)
        db = matching_database(q, m=4_000, n=16_000, seed=7)
        weighted = dispatch_run(
            star_core, q, db, 8, seed=7,
            settings=ExecutionSettings(machines=HETERO),
        )
        assert _makespan(weighted) == 11_438

    def test_session_records_and_traces_machines(self, tmp_path):
        q = triangle_query()
        db = matching_database(q, m=400, n=1600, seed=0)
        config = ClusterConfig(p=8, seed=0, machines="4x1,4x4",
                               trace=tmp_path)
        with Session(config) as session:
            result = session.run(q, db, label="het")
            record = session.history[-1]
            summary = session.workload_summary()
        assert result.answers == evaluate(q, db)
        assert record.machines == "4x1+4x4"
        assert record.makespan_bits is not None
        assert "makespan" in record.line()
        # The header names the cluster the makespan on the run line is for.
        assert summary.splitlines()[0] == (
            "session workload: p=8, machines 4x1+4x4, 1 run(s)"
        )
        assert "makespan" in summary.splitlines()[1]

        view = TraceQuery(record.trace_path)
        assert view.machines() == HETERO
        classes = view.speed_class_bits()
        assert [row["speed"] for row in classes] == [1.0, 4.0]
        assert sum(row["bits"] for row in classes) == pytest.approx(
            view.total_bits()
        )
        assert view.makespan_bits() == pytest.approx(record.makespan_bits)

    def test_config_rejects_mismatched_spec(self):
        with pytest.raises(ValueError):
            ClusterConfig(p=16, machines="4x1,4x4")

    def test_homogeneous_trace_has_no_machine_rows(self):
        q = triangle_query()
        db = matching_database(q, m=300, n=1200, seed=0)
        recorder = TraceRecorder()
        with tracing(recorder):
            Session(p=8, seed=1).run(q, db, "hypercube")
        view = TraceQuery(recorder.finish())
        assert view.machines() is None
        assert view.speed_class_bits() is None
        assert view.makespan_bits() is None
