"""TraceRecorder / Trace mechanics: scoping, sealing, serialization.

The recorder is the zero-dependency core of :mod:`repro.trace`: an
append-only event list activated through a context variable.  These
tests pin the activation contract (off by default, scoped by
``tracing()``, nestable) and the artifact contract (meta header first,
``run`` footer last, compact JSONL that round-trips losslessly).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.mpc.simulator import MPCSimulation
from repro.trace import Trace, TraceRecorder, active_recorder, tracing


class TestActivation:
    def test_off_by_default(self):
        assert active_recorder() is None

    def test_tracing_scopes_a_recorder(self):
        with tracing() as rec:
            assert active_recorder() is rec
        assert active_recorder() is None

    def test_explicit_recorder_is_installed(self):
        mine = TraceRecorder()
        with tracing(mine) as rec:
            assert rec is mine
            assert active_recorder() is mine

    def test_nesting_restores_the_outer_recorder(self):
        with tracing() as outer:
            with tracing() as inner:
                assert active_recorder() is inner
            assert active_recorder() is outer

    def test_recorder_survives_an_exception(self):
        with pytest.raises(RuntimeError):
            with tracing():
                raise RuntimeError("boom")
        assert active_recorder() is None

    def test_simulation_picks_up_the_active_recorder(self):
        with tracing() as rec:
            sim = MPCSimulation(p=4, value_bits=32)
            sim.begin_round()
            sim.send_array(0, "R", np.array([(1, 2)]))
            sim.end_round()
        assert sim.trace is rec
        kinds = [event["t"] for event in rec.events]
        assert kinds == ["sim", "send", "round"]

    def test_simulation_without_recorder_records_nothing(self):
        sim = MPCSimulation(p=4, value_bits=32)
        assert sim.trace is None


class TestEvents:
    def test_send_omits_the_zero_drop_key(self):
        rec = TraceRecorder()
        rec.send(1, 3, "R", 64.0, 1)
        rec.send(1, 3, "R", 64.0, 1, dropped=32.0)
        clean, dropped = rec.events
        assert "drop" not in clean
        assert dropped["drop"] == 32.0

    def test_finish_brackets_meta_and_run_footer(self):
        with tracing() as rec:
            sim = MPCSimulation(p=4, value_bits=32)
            sim.begin_round()
            sim.send_array(0, "R", np.array([(1, 2), (3, 4)]))
            sim.send_array(1, "S", np.array([(5, 6)]))
            sim.end_round()
        trace = rec.finish(
            report=sim.report, meta={"query": "probe", "seed": 7}
        )
        assert trace.events[0]["t"] == "meta"
        assert trace.events[0]["query"] == "probe"
        footer = trace.events[-1]
        assert footer["t"] == "run"
        assert footer["p"] == 4
        assert footer["rounds"] == 1
        assert footer["total_bits"] == sim.report.total_bits
        # Per-server totals are string-keyed (JSON object keys).
        assert footer["server_bits"] == {"0": 128.0, "1": 64.0}
        # The recorder itself is untouched -- finish seals a copy.
        assert all(e["t"] != "run" for e in rec.events)

    def test_finish_without_report_has_no_footer(self):
        rec = TraceRecorder()
        rec.send(1, 0, "R", 64.0, 1)
        trace = rec.finish()
        assert trace.run is None
        assert trace.meta is None
        assert len(trace) == 1


class TestSerialization:
    def make_trace(self):
        with tracing() as rec:
            sim = MPCSimulation(p=4, value_bits=32)
            sim.begin_round()
            sim.send_array(0, "R", np.array([(1, 2)]))
            sim.end_round()
        return rec.finish(report=sim.report, meta={"query": "probe"})

    def test_jsonl_round_trip_is_lossless(self, tmp_path):
        trace = self.make_trace()
        path = trace.write_jsonl(tmp_path / "t.jsonl")
        assert Trace.read_jsonl(path).events == trace.events

    def test_jsonl_is_compact_one_object_per_line(self, tmp_path):
        trace = self.make_trace()
        path = trace.write_jsonl(tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(trace)
        for line in lines:
            assert ": " not in line and ", " not in line
            json.loads(line)

    def test_read_skips_blank_lines(self, tmp_path):
        trace = self.make_trace()
        path = trace.write_jsonl(tmp_path / "t.jsonl")
        path.write_text(path.read_text().replace("\n", "\n\n"))
        assert Trace.read_jsonl(path).events == trace.events

    def test_repr_names_the_strategy(self):
        trace = self.make_trace()
        assert "Trace(" in repr(trace)
