"""Tests for the MPC simulator's accounting and semantics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MachineSpec
from repro.mpc.simulator import LoadExceededError, MPCSimulation
from repro.storage import StorageManager


def rows(tuples, arity=None):
    """A list of tuples as one ``(n, arity)`` row batch."""
    width = arity if arity is not None else len(tuples[0])
    return np.array(tuples, dtype=np.int64).reshape(len(tuples), width)


def stored(sim, server, tag):
    """The distinct tuples ``server`` holds under ``tag``."""
    fragment = sim.array_state(server).get(tag)
    return None if fragment is None else set(map(tuple, fragment.tolist()))


class TestBitAccounting:
    def test_bits_default_to_arity_times_value_bits(self):
        sim = MPCSimulation(p=4, value_bits=10)
        sim.begin_round()
        sim.send_array(2, "S1", rows([(1, 2), (3, 4), (5, 6)]))
        load = sim.end_round()
        assert load.bits[2] == 3 * 2 * 10
        assert load.tuples[2] == 3

    def test_bits_override(self):
        sim = MPCSimulation(p=2, value_bits=10)
        sim.begin_round()
        sim.send_array(0, "S1", rows([(1,)]), bits_per_tuple=100)
        load = sim.end_round()
        assert load.bits[0] == 100

    def test_max_load_is_over_rounds_and_servers(self):
        sim = MPCSimulation(p=3, value_bits=1)
        sim.begin_round()
        sim.send_array(0, "a", rows([(1, 1)]))  # 2 bits
        sim.end_round()
        sim.begin_round()
        sim.send_array(1, "a", rows([(1, 1), (2, 2), (3, 3)]))  # 6 bits
        sim.end_round()
        assert sim.report.max_load_bits == 6
        assert sim.report.num_rounds == 2
        assert sim.report.round_max_bits(0) == 2

    def test_total_and_replication(self):
        sim = MPCSimulation(p=2, value_bits=1)
        sim.begin_round()
        sim.send_array(0, "a", rows([(1, 1)]))
        sim.send_array(1, "a", rows([(1, 1)]))
        sim.end_round()
        assert sim.report.total_bits == 4
        assert sim.report.replication_rate(input_bits=2.0) == 2.0
        with pytest.raises(ValueError):
            sim.report.replication_rate(0)

    def test_server_total_bits(self):
        sim = MPCSimulation(p=2, value_bits=1)
        for _ in range(3):
            sim.begin_round()
            sim.send_array(1, "a", rows([(1,)]))
            sim.end_round()
        assert sim.report.server_total_bits(1) == 3
        assert sim.report.server_total_bits(0) == 0


class TestSemantics:
    def test_state_persists_across_rounds(self):
        sim = MPCSimulation(p=2, value_bits=1)
        sim.begin_round()
        sim.send_array(0, "S", rows([(1, 2)]))
        sim.end_round()
        sim.begin_round()
        sim.send_array(0, "S", rows([(3, 4)]))
        sim.end_round()
        assert stored(sim, 0, "S") == {(1, 2), (3, 4)}

    def test_broadcast(self):
        # A broadcast is one delivery per receiver: each copy is charged.
        sim = MPCSimulation(p=3, value_bits=1)
        sim.begin_round()
        for server in range(3):
            sim.send_array(server, "S", rows([(7, 8)]))
        load = sim.end_round()
        assert all(stored(sim, s, "S") == {(7, 8)} for s in range(3))
        assert load.total_bits == 3 * 2

    def test_outputs_union(self):
        sim = MPCSimulation(p=3, value_bits=1)
        sim.output_array(0, rows([(1,)]))
        sim.output_array(1, rows([(2,)]))
        sim.output_array(2, rows([(1,)]))
        assert sim.outputs() == {(1,), (2,)}
        assert sim.outputs_of(0) == {(1,)}
        assert sim.output_counts() == [1, 1, 1]

    def test_clear_all(self):
        sim = MPCSimulation(p=2, value_bits=1)
        sim.begin_round()
        sim.send_array(0, "S", rows([(1, 2)]))
        sim.send_array(0, "T", rows([(3, 4)]))
        sim.end_round()
        sim.clear_all("S")
        assert stored(sim, 0, "S") is None
        assert stored(sim, 0, "T") == {(3, 4)}
        sim.clear_all()
        assert sim.array_state(0) == {}

    def test_empty_send_costs_nothing(self):
        sim = MPCSimulation(p=1, value_bits=8)
        sim.begin_round()
        sim.send_array(0, "S", rows([], arity=2))
        load = sim.end_round()
        assert load.total_bits == 0


class TestProtocolErrors:
    def test_send_outside_round(self):
        sim = MPCSimulation(p=1, value_bits=1)
        with pytest.raises(RuntimeError, match="outside a round"):
            sim.send_array(0, "S", rows([(1,)]))

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
            sim.send_array(5, "S", rows([(1,)]))

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
            sim.send_array(0, "S", rows([(1,), (2,), (3,)]))  # 30 bits > 25
        assert err.value.server == 0
        assert err.value.round_index == 1

    def test_drop_mode_truncates(self):
        sim = MPCSimulation(
            p=1, value_bits=10, capacity_bits=25, on_overflow="drop"
        )
        sim.begin_round()
        sim.send_array(0, "S", rows([(1,), (2,), (3,)]))
        load = sim.end_round()
        assert load.bits[0] == 20  # two tuples fit
        assert len(stored(sim, 0, "S")) == 2
        assert sim.report.dropped_bits == 10

    def test_capacity_is_per_round(self):
        sim = MPCSimulation(
            p=1, value_bits=10, capacity_bits=15, on_overflow="drop"
        )
        for _ in range(2):
            sim.begin_round()
            sim.send_array(0, "S", rows([(1,), (2,)]))
            sim.end_round()
        # One tuple delivered per round.
        assert sim.report.max_load_bits == 10
        assert sim.report.dropped_bits == 20

    def test_under_capacity_untouched(self):
        sim = MPCSimulation(p=1, value_bits=10, capacity_bits=100)
        sim.begin_round()
        sim.send_array(0, "S", rows([(1,), (2,)]))
        load = sim.end_round()
        assert load.bits[0] == 20
        assert sim.report.dropped_bits == 0


def per_tuple_oracle(deliveries, caps, on_overflow):
    """Charge ``(dest, batch, bits_per_tuple)`` deliveries one tuple at
    a time against per-server ``caps``: the accounting oracle.

    Returns ``(bits, tuples, dropped, stored)`` per server, or the first
    breach ``(dest, bits, cap)`` in ``"fail"`` mode.
    """
    p = len(caps)
    bits, tuples, dropped = [0.0] * p, [0] * p, [0.0] * p
    kept: list[set] = [set() for _ in range(p)]
    for dest, batch, cost in deliveries:
        for t in batch:
            cap = caps[dest]
            if cap is not None and bits[dest] + cost > cap:
                if on_overflow == "fail":
                    return dest, bits[dest] + cost, cap
                dropped[dest] += cost
                continue
            bits[dest] += cost
            tuples[dest] += 1
            kept[dest].add(t)
    return bits, tuples, dropped, kept


@st.composite
def deliveries(draw):
    p = draw(st.integers(1, 4))
    caps = [
        draw(st.one_of(st.none(), st.floats(0.0, 200.0, allow_nan=False)))
        for _ in range(p)
    ]
    batches = []
    for _ in range(draw(st.integers(0, 8))):
        arity = draw(st.integers(1, 3))
        batch = draw(st.lists(
            st.tuples(*[st.integers(0, 5)] * arity), max_size=10
        ))
        cost = draw(st.sampled_from([None, 0.0, 7.5, 13.0]))
        batches.append((draw(st.integers(0, p - 1)), arity, batch, cost))
    return caps, batches


class TestCapacityOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=deliveries(), on_overflow=st.sampled_from(["fail", "drop"]))
    def test_send_array_matches_per_tuple_loop(self, case, on_overflow):
        caps, batches = case
        value_bits = 4
        sim = MPCSimulation(
            p=len(caps), value_bits=value_bits, on_overflow=on_overflow,
            machines=MachineSpec((1.0,) * len(caps), capacities=tuple(
                None if c is None or c <= 0 else c for c in caps
            )),
        )
        caps = [None if c is None or c <= 0 else c for c in caps]
        expected = per_tuple_oracle(
            [
                (dest, batch, arity * value_bits if cost is None else cost)
                for dest, arity, batch, cost in batches
            ],
            caps,
            on_overflow,
        )
        sim.begin_round()
        try:
            for dest, arity, batch, cost in batches:
                sim.send_array(dest, "S", rows(batch, arity), cost)
        except LoadExceededError as err:
            assert (err.server, err.bits, err.capacity) == expected
            return
        load = sim.end_round()
        bits, tuples, dropped, kept = expected
        for s in range(len(caps)):
            assert load.bits.get(s, 0.0) == bits[s]
            assert load.tuples.get(s, 0) == tuples[s]
            assert load.dropped_bits.get(s, 0.0) == dropped[s]
            held = {
                tuple(r)
                for tag_rows in sim.server(s).array_fragments.values()
                for batch in tag_rows
                for r in batch.tolist()
            }
            assert held == kept[s]


class TestReportSummary:
    def test_summary_mentions_rounds(self):
        sim = MPCSimulation(p=2, value_bits=1)
        sim.begin_round()
        sim.send_array(0, "S", rows([(1,)]))
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
            sim.send_array(s, "S", rows([(1,)]), bits_per_tuple=float(s))
        sim.end_round()
        sim.begin_round()
        sim.send_array(0, "S", rows([(9,)]), bits_per_tuple=1000.0)
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
        sim.send_array(3, "S", rows([(1,)]), bits_per_tuple=100.0)
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
