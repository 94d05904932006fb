"""Tests for the MPC simulator's accounting and semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpc.simulator import LoadExceededError, MPCSimulation
from repro.storage import StorageManager


class TestBitAccounting:
    def test_bits_default_to_arity_times_value_bits(self):
        sim = MPCSimulation(p=4, value_bits=10)
        sim.begin_round()
        sim.send(2, "S1", [(1, 2), (3, 4), (5, 6)])
        load = sim.end_round()
        assert load.bits[2] == 3 * 2 * 10
        assert load.tuples[2] == 3

    def test_bits_override(self):
        sim = MPCSimulation(p=2, value_bits=10)
        sim.begin_round()
        sim.send(0, "S1", [(1,)], bits_per_tuple=100)
        load = sim.end_round()
        assert load.bits[0] == 100

    def test_max_load_is_over_rounds_and_servers(self):
        sim = MPCSimulation(p=3, value_bits=1)
        sim.begin_round()
        sim.send(0, "a", [(1, 1)])  # 2 bits
        sim.end_round()
        sim.begin_round()
        sim.send(1, "a", [(1, 1), (2, 2), (3, 3)])  # 6 bits
        sim.end_round()
        assert sim.report.max_load_bits == 6
        assert sim.report.num_rounds == 2
        assert sim.report.round_max_bits(0) == 2

    def test_total_and_replication(self):
        sim = MPCSimulation(p=2, value_bits=1)
        sim.begin_round()
        sim.send(0, "a", [(1, 1)])
        sim.send(1, "a", [(1, 1)])
        sim.end_round()
        assert sim.report.total_bits == 4
        assert sim.report.replication_rate(input_bits=2.0) == 2.0
        with pytest.raises(ValueError):
            sim.report.replication_rate(0)

    def test_server_total_bits(self):
        sim = MPCSimulation(p=2, value_bits=1)
        for _ in range(3):
            sim.begin_round()
            sim.send(1, "a", [(1,)])
            sim.end_round()
        assert sim.report.server_total_bits(1) == 3
        assert sim.report.server_total_bits(0) == 0


class TestSemantics:
    def test_state_persists_across_rounds(self):
        sim = MPCSimulation(p=2, value_bits=1)
        sim.begin_round()
        sim.send(0, "S", [(1, 2)])
        sim.end_round()
        sim.begin_round()
        sim.send(0, "S", [(3, 4)])
        sim.end_round()
        assert sim.state(0)["S"] == {(1, 2), (3, 4)}

    def test_broadcast(self):
        sim = MPCSimulation(p=3, value_bits=1)
        sim.begin_round()
        sim.broadcast("S", [(7, 8)])
        load = sim.end_round()
        assert all(sim.state(s)["S"] == {(7, 8)} for s in range(3))
        assert load.total_bits == 3 * 2

    def test_outputs_union(self):
        sim = MPCSimulation(p=3, value_bits=1)
        sim.output(0, [(1,)])
        sim.output(1, [(2,)])
        sim.output(2, [(1,)])
        assert sim.outputs() == {(1,), (2,)}
        assert sim.outputs_of(0) == {(1,)}
        assert sim.output_counts() == [1, 1, 1]

    def test_clear_all(self):
        sim = MPCSimulation(p=2, value_bits=1)
        sim.begin_round()
        sim.send(0, "S", [(1, 2)])
        sim.send(0, "T", [(3, 4)])
        sim.end_round()
        sim.clear_all("S")
        assert sim.state(0).get("S") is None
        assert sim.state(0)["T"] == {(3, 4)}
        sim.clear_all()
        assert sim.state(0) == {}

    def test_empty_send_costs_nothing(self):
        sim = MPCSimulation(p=1, value_bits=8)
        sim.begin_round()
        sim.send(0, "S", [])
        load = sim.end_round()
        assert load.total_bits == 0


class TestProtocolErrors:
    def test_send_outside_round(self):
        sim = MPCSimulation(p=1, value_bits=1)
        with pytest.raises(RuntimeError, match="outside a round"):
            sim.send(0, "S", [(1,)])

    def test_double_begin(self):
        sim = MPCSimulation(p=1, value_bits=1)
        sim.begin_round()
        with pytest.raises(RuntimeError, match="already inside"):
            sim.begin_round()

    def test_end_without_begin(self):
        sim = MPCSimulation(p=1, value_bits=1)
        with pytest.raises(RuntimeError, match="no round"):
            sim.end_round()

    def test_bad_destination(self):
        sim = MPCSimulation(p=2, value_bits=1)
        sim.begin_round()
        with pytest.raises(ValueError, match="destination"):
            sim.send(5, "S", [(1,)])

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MPCSimulation(p=0, value_bits=1)
        with pytest.raises(ValueError):
            MPCSimulation(p=1, value_bits=0)
        with pytest.raises(ValueError):
            MPCSimulation(p=1, value_bits=1, on_overflow="explode")


class TestCapacity:
    def test_fail_mode_raises(self):
        # Delivery is streaming, so the overflow surfaces at the send
        # that breaches the cap (still inside the round).
        sim = MPCSimulation(p=1, value_bits=10, capacity_bits=25)
        sim.begin_round()
        with pytest.raises(LoadExceededError) as err:
            sim.send(0, "S", [(1,), (2,), (3,)])  # 30 bits > 25
        assert err.value.server == 0
        assert err.value.round_index == 1

    def test_drop_mode_truncates(self):
        sim = MPCSimulation(
            p=1, value_bits=10, capacity_bits=25, on_overflow="drop"
        )
        sim.begin_round()
        sim.send(0, "S", [(1,), (2,), (3,)])
        load = sim.end_round()
        assert load.bits[0] == 20  # two tuples fit
        assert len(sim.state(0)["S"]) == 2
        assert sim.report.dropped_bits == 10

    def test_capacity_is_per_round(self):
        sim = MPCSimulation(
            p=1, value_bits=10, capacity_bits=15, on_overflow="drop"
        )
        for _ in range(2):
            sim.begin_round()
            sim.send(0, "S", [(1,), (2,)])
            sim.end_round()
        # One tuple delivered per round.
        assert sim.report.max_load_bits == 10
        assert sim.report.dropped_bits == 20

    def test_under_capacity_untouched(self):
        sim = MPCSimulation(p=1, value_bits=10, capacity_bits=100)
        sim.begin_round()
        sim.send(0, "S", [(1,), (2,)])
        load = sim.end_round()
        assert load.bits[0] == 20
        assert sim.report.dropped_bits == 0


class TestReportSummary:
    def test_summary_mentions_rounds(self):
        sim = MPCSimulation(p=2, value_bits=1)
        sim.begin_round()
        sim.send(0, "S", [(1,)])
        sim.end_round()
        text = sim.report.summary()
        assert "p=2" in text and "round 1" in text


class TestLoadPercentiles:
    @staticmethod
    def _skewed_report(p=100):
        # Server s receives s bits in round 1; server 0 gets a huge
        # round-2 spike, so per-server maxima are [1000, 1, ..., 99].
        sim = MPCSimulation(p=p, value_bits=1)
        sim.begin_round()
        for s in range(1, p):
            sim.send(s, "S", [(1,)], bits_per_tuple=float(s))
        sim.end_round()
        sim.begin_round()
        sim.send(0, "S", [(9,)], bits_per_tuple=1000.0)
        sim.end_round()
        return sim.report

    def test_matches_manual_numpy(self):
        report = self._skewed_report()
        expected = np.array([1000.0] + [float(s) for s in range(1, 100)])
        assert np.array_equal(np.sort(report.server_bits_array()),
                              np.sort(expected))
        pct = report.load_percentiles()
        assert pct["max"] == report.max_load_bits == 1000.0
        assert pct["p50"] == float(np.percentile(expected, 50))
        assert pct["p90"] == float(np.percentile(expected, 90))
        assert pct["p99"] == float(np.percentile(expected, 99))
        # The heavy hitter detaches max from p99 -- the skew signal.
        assert pct["max"] > pct["p99"]

    def test_round_slice(self):
        report = self._skewed_report(p=4)
        round_one = report.server_bits_array(round_index=0)
        assert round_one.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_zero_load_servers_count(self):
        sim = MPCSimulation(p=10, value_bits=1)
        sim.begin_round()
        sim.send(3, "S", [(1,)], bits_per_tuple=100.0)
        sim.end_round()
        pct = sim.report.load_percentiles()
        assert pct["p50"] == 0.0  # nine idle servers dominate
        assert pct["max"] == 100.0

    def test_empty_report(self):
        sim = MPCSimulation(p=3, value_bits=1)
        pct = sim.report.load_percentiles()
        assert pct == {"p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}

    def test_summary_includes_percentiles(self):
        report = self._skewed_report()
        text = report.summary()
        assert "p50" in text and "p99" in text and "max" in text


class TestStorageSpooling:
    def test_array_fragments_spill_and_merge(self, tmp_path):
        with StorageManager(root=tmp_path, chunk_rows=4) as storage:
            sim = MPCSimulation(p=2, value_bits=8, storage=storage)
            sim.begin_round()
            rows = np.arange(40).reshape(20, 2)
            sim.send_array(0, "R", rows[:12])
            sim.send_array(0, "R", rows[12:])
            load = sim.end_round()
            assert load.bits[0] == 20 * 2 * 8
            assert storage.bytes_spilled > 0
            merged = sim.array_state(0)["R"]
            assert np.array_equal(merged, rows)

    def test_outputs_spill(self, tmp_path):
        with StorageManager(root=tmp_path, chunk_rows=4) as storage:
            sim = MPCSimulation(p=2, value_bits=8, storage=storage)
            rows = np.arange(30).reshape(15, 2)
            sim.output_array(0, rows[:10])
            sim.output_array(0, rows[10:])
            sim.output_array(1, rows[:2])
            assert sim.output_rows_total() == 17
            assert sim.outputs_of(1) == {(0, 1), (2, 3)}
            assert np.array_equal(sim.outputs_array(2), rows)

    def test_clear_drops_spool_files(self, tmp_path):
        with StorageManager(root=tmp_path, chunk_rows=2) as storage:
            sim = MPCSimulation(p=1, value_bits=8, storage=storage)
            sim.begin_round()
            sim.send_array(0, "R", np.arange(20).reshape(10, 2))
            sim.end_round()
            assert list(storage.root.glob("*.i64"))
            sim.clear_all()
            assert not list(storage.root.glob("*.i64"))
            assert sim.array_state(0) == {}
