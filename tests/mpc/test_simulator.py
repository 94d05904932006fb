"""Tests for the MPC simulator's accounting and semantics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MachineSpec
from repro.mpc.simulator import LoadExceededError, MPCSimulation, Partition
from repro.storage import StorageManager
from repro.trace.recorder import TraceRecorder


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
        assert sim.outputs_array(1).tolist() == [[1], [2]]
        assert sim.outputs_of(0) == {(1,)}
        assert sim.output_counts() == [1, 1, 1]

    def test_outputs_array_never_aliases_a_stored_batch(self):
        # A lone canonical batch needs no merge, but the caller still
        # gets a C-ordered array of its own to write to.
        sim = MPCSimulation(p=2, value_bits=1)
        batch = np.asfortranarray(rows([(1, 2), (3, 4)]))
        sim.output_array(1, batch)
        out = sim.outputs_array(2)
        assert out.tolist() == [[1, 2], [3, 4]]
        assert out.flags.c_contiguous
        assert not np.shares_memory(out, batch)
        out[0, 0] = 9
        assert sim.outputs_array(2).tolist() == [[1, 2], [3, 4]]

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


@st.composite
def partitions(draw):
    """``(p, global cap, per-machine caps, [(cost, partition)])``.

    Destinations are random ascending server subsets; each server's
    slice is either drawn anywhere in the rows (empty, overlapping
    others, or skipping rows) or shares an earlier server's slice, as
    the servers of one HyperCube subcube do.  Caps may be fractional,
    zero-headroom or absent.
    """
    p = draw(st.integers(1, 5))
    cap = st.one_of(st.none(), st.floats(1.0, 200.0, allow_nan=False))
    global_cap = draw(cap)
    own_caps = tuple(draw(cap) for _ in range(p))
    out = []
    for _ in range(draw(st.integers(1, 4))):
        arity = draw(st.integers(1, 3))
        n = draw(st.integers(0, 10))
        rows = np.array(
            draw(st.lists(
                st.integers(0, 9), min_size=n * arity, max_size=n * arity,
            )),
            dtype=np.int64,
        ).reshape(n, arity)
        servers = sorted(draw(st.sets(st.integers(0, p - 1), min_size=1)))
        slices: list[tuple[int, int]] = []
        for _ in servers:
            if slices and draw(st.booleans()):
                slices.append(draw(st.sampled_from(slices)))
                continue
            start = draw(st.integers(0, n))
            slices.append((start, draw(st.integers(start, n))))
        cost = draw(st.sampled_from([None, 0.0, 7.5, 13.0]))
        starts, stops = zip(*slices)
        partition = Partition(
            np.array(servers, dtype=np.int64),
            np.array(starts, dtype=np.int64),
            np.array(stops, dtype=np.int64),
            rows,
        )
        out.append((cost, partition))
    return p, global_cap, own_caps, out


def per_server(partition):
    """``(server, start, stop)`` per destination of ``partition``."""
    return zip(
        partition.servers.tolist(),
        partition.starts.tolist(),
        partition.stops.tolist(),
    )


class TestPartitionDelivery:
    @staticmethod
    def _deliver(case, on_overflow, one_by_one):
        p, global_cap, own_caps, chunks = case
        trace = TraceRecorder()
        sim = MPCSimulation(
            p=p, value_bits=4, capacity_bits=global_cap,
            on_overflow=on_overflow, trace=trace,
            machines=MachineSpec((1.0,) * p, capacities=own_caps),
        )
        sim.begin_round()
        error = None
        try:
            for cost, partition in chunks:
                if not one_by_one:
                    sim.send_partition("S", partition, cost)
                    continue
                for server, start, stop in per_server(partition):
                    sim.send_array(server, "S", partition.rows[start:stop], cost)
        except LoadExceededError as exc:
            error = (exc.server, exc.round_index, exc.bits, exc.capacity)
        load = sim.end_round()
        fragments = [
            [b.tolist() for b in sim.server(s).array_fragments.get("S", [])]
            for s in range(p)
        ]
        sends = [e for e in trace.events if e["t"] == "send"]
        return (
            error, load.bits, load.tuples, load.dropped_bits, fragments, sends
        )

    @settings(max_examples=200, deadline=None)
    @given(case=partitions(), on_overflow=st.sampled_from(["fail", "drop"]))
    def test_matches_the_per_server_send_array_loop(self, case, on_overflow):
        whole = self._deliver(case, on_overflow, one_by_one=False)
        assert whole == self._deliver(case, on_overflow, one_by_one=True)
        error, bits, tuples, dropped = whole[:4]
        assert all(type(v) is float for v in bits.values())
        assert all(type(v) is int for v in tuples.values())
        # ... and both equal the tuple-at-a-time oracle.
        p, global_cap, own_caps, chunks = case
        caps = [
            own if global_cap is None else
            global_cap if own is None else min(own, global_cap)
            for own in own_caps
        ]
        expected = per_tuple_oracle(
            [
                (server, list(map(tuple, partition.rows[start:stop].tolist())),
                 partition.rows.shape[1] * 4 if cost is None else cost)
                for cost, partition in chunks
                for server, start, stop in per_server(partition)
            ],
            caps,
            on_overflow,
        )
        if error is not None:
            assert (error[0], error[2], error[3]) == expected
            return
        for s in range(p):
            assert bits.get(s, 0.0) == expected[0][s]
            assert tuples.get(s, 0) == expected[1][s]
            assert dropped.get(s, 0.0) == expected[2][s]

    def test_fail_mode_names_the_first_breaching_server(self):
        sim = MPCSimulation(p=4, value_bits=1, capacity_bits=3)
        sim.begin_round()
        # Servers 1 and 3 both overflow; 0 fits and is delivered first.
        chunk = Partition(
            np.array([0, 1, 3]), np.array([0, 2, 6]), np.array([2, 6, 11]),
            np.arange(11, dtype=np.int64).reshape(11, 1),
        )
        with pytest.raises(LoadExceededError) as caught:
            sim.send_partition("S", chunk)
        assert (caught.value.server, caught.value.bits) == (1, 4.0)
        assert caught.value.capacity == 3
        load = sim.end_round()
        assert load.bits == {0: 2.0} and load.tuples == {0: 2}

    def test_servers_sharing_a_slice_each_receive_and_pay_for_it(self):
        sim = MPCSimulation(p=4, value_bits=1)
        sim.begin_round()
        rows = np.arange(5, dtype=np.int64).reshape(5, 1)
        sim.send_partition("S", Partition(
            np.array([0, 2, 3]), np.array([1, 0, 1]), np.array([4, 2, 4]),
            rows,
        ))
        load = sim.end_round()
        assert load.bits == {0: 3.0, 2: 2.0, 3: 3.0}
        assert stored(sim, 0, "S") == stored(sim, 3, "S") == {(1,), (2,), (3,)}
        assert stored(sim, 2, "S") == {(0,), (1,)}

    @staticmethod
    def _reject(servers, starts, stops, match):
        """``send_partition`` over 6 rows on 4 servers raises, delivers nothing."""
        sim = MPCSimulation(p=4, value_bits=1)
        sim.begin_round()
        rows = np.arange(6, dtype=np.int64).reshape(6, 1)
        with pytest.raises(ValueError, match=match):
            sim.send_partition("S", Partition(
                np.array(servers), np.array(starts), np.array(stops), rows))
        assert sim.end_round().bits == {}

    def test_rejects_unordered_or_out_of_range_servers(self):
        # Server 2 is valid and first, so a late check would deliver it.
        self._reject([2, 1], [0, 2], [2, 4], "ascending")
        self._reject([2, 2], [0, 2], [2, 4], "ascending")
        self._reject([1, 4], [0, 2], [2, 4], "outside")

    def test_rejects_slices_of_the_wrong_length(self):
        # Two servers need two starts and two stops.
        self._reject([1, 2], [0], [3, 6], "one slice per server")
        self._reject([1, 2], [0, 3], [6], "one slice per server")

    def test_rejects_a_slice_past_the_rows(self):
        # Server 1's slice is fine and would be delivered first.
        self._reject([1, 2], [0, 4], [3, 7], "not within the 6 rows")

    def test_rejects_a_negative_start(self):
        # rows[-2:2] would be empty, rows[-2:6] the last two rows.
        self._reject([0, 3], [0, -2], [2, 6], "not within the 6 rows")

    def test_rejects_a_start_after_its_stop(self):
        # A slice [4, 2) would record -2 tuples for server 2.
        self._reject([1, 2], [0, 4], [4, 2], "not within the 6 rows")


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
