"""TraceQuery analysis and the ``python -m repro trace`` subcommand.

One traced :class:`~repro.session.Session` run produces the artifact
every test inspects; the CLI tests drive ``repro.__main__.main`` the
way a shell would and assert the acceptance questions are answered:
top-k heaviest servers, per-round bytes, per-phase bytes/seconds.
"""

from __future__ import annotations

import pathlib

import pytest

import repro.__main__ as cli
from repro.core.families import triangle_query
from repro.data.generators import matching_database
from repro.session import Session
from repro.trace import TraceQuery
from repro.trace.cli import iter_trace_files, render_path, render_trace


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("traces")
    q = triangle_query()
    db = matching_database(q, m=200, n=800, seed=0)
    with Session(p=8, seed=0, trace=trace_dir) as session:
        result = session.run(q, db, label="probe")
        record = session.history[0]
    return record, result.load_report, pathlib.Path(record.trace_path)


class TestSessionIntegration:
    def test_record_points_at_a_written_artifact(self, traced_run):
        record, _, path = traced_run
        assert path.exists()
        assert path.suffix == ".jsonl"
        assert "probe" in path.name

    def test_trace_reconciles_with_the_report(self, traced_run):
        _, report, path = traced_run
        assert TraceQuery(path).reconcile(report) == {}

    def test_record_carries_phase_seconds(self, traced_run):
        record, report, _ = traced_run
        assert record.phase_seconds == report.phase_seconds
        assert "ship" in record.phase_seconds

    def test_meta_names_the_run(self, traced_run):
        record, _, path = traced_run
        meta = next(e for e in TraceQuery(path).events if e["t"] == "meta")
        assert meta["label"] == "probe"
        assert meta["strategy"] == record.strategy
        assert meta["seed"] == record.seed

    def test_untraced_session_writes_nothing(self):
        q = triangle_query()
        db = matching_database(q, m=50, n=200, seed=0)
        with Session(p=4, seed=0) as session:
            session.run(q, db)
            assert session.history[0].trace_path is None

    def test_run_many_writes_one_artifact_per_job(self, tmp_path):
        q = triangle_query()
        db = matching_database(q, m=50, n=200, seed=0)
        with Session(p=4, seed=0, trace=tmp_path) as session:
            session.run_many([(q, db), (q, db)], max_workers=2)
            paths = [record.trace_path for record in session.history]
        assert len(set(paths)) == 2
        assert all(pathlib.Path(p).exists() for p in paths)


class TestTraceQuery:
    def test_top_servers_are_ranked_and_exhaustive(self, traced_run):
        _, report, path = traced_run
        query = TraceQuery(path)
        ranked = query.top_servers(k=report.p)
        bits = [b for _, b in ranked]
        assert bits == sorted(bits, reverse=True)
        # Ranking aggregates a server's bits across *all* rounds.
        per_server: dict[int, float] = {}
        for round_load in report.rounds:
            for server, load in round_load.bits.items():
                per_server[server] = per_server.get(server, 0.0) + load
        assert bits[0] == max(per_server.values())
        assert sum(bits) == report.total_bits

    def test_round_totals_match_the_report(self, traced_run):
        _, report, path = traced_run
        rows = TraceQuery(path).round_totals()
        assert len(rows) == report.num_rounds
        for row, round_load in zip(rows, report.rounds):
            assert row["total_bits"] == round_load.total_bits
            assert row["max_bits"] == round_load.max_bits

    def test_phases_carry_seconds(self, traced_run):
        _, report, path = traced_run
        assert TraceQuery(path).phases() == report.phase_seconds

    def test_predicted_deltas_expose_the_model_ratio(self, traced_run):
        _, report, path = traced_run
        deltas = TraceQuery(path).predicted_deltas()
        with_ratio = [row for row in deltas if row["ratio"] is not None]
        assert with_ratio, "a planned run always has a prediction"
        # Each row compares one round's measured max to the predicted L.
        for row, round_load in zip(with_ratio, report.rounds):
            expected = round_load.max_bits / report.predicted_load_bits
            assert row["ratio"] == pytest.approx(expected)

    def test_accepts_path_trace_and_iterable(self, traced_run):
        _, report, path = traced_run
        from repro.trace import Trace

        trace = Trace.read_jsonl(path)
        for source in (str(path), trace, list(trace.events)):
            assert TraceQuery(source).total_bits() == report.total_bits


class TestCli:
    def test_iter_trace_files_rejects_missing_paths(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            iter_trace_files(tmp_path / "nope")

    def test_render_answers_the_acceptance_questions(self, traced_run):
        _, _, path = traced_run
        text = render_trace(path, top=3)
        assert "top 3 servers" in text
        assert "per-round bytes" in text
        assert "phases (exclusive):" in text
        assert "measured/predicted" in text

    def test_render_path_walks_a_directory(self, traced_run):
        _, _, path = traced_run
        assert render_trace(path) in render_path(path.parent)

    def test_main_trace_subcommand_prints_the_summary(
        self, traced_run, capsys
    ):
        _, _, path = traced_run
        cli.main(["trace", str(path.parent), "--top", "2"])
        out = capsys.readouterr().out
        assert "top 2 servers" in out
        assert "per-round bytes" in out

    def test_run_subcommand_traces_into_a_directory(self, tmp_path, capsys):
        cli.main([
            "run", "triangle", "--p", "4", "--m", "100", "--n", "400",
            "--trace-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert list(tmp_path.glob("*.jsonl"))
        assert "traced" in out
