"""The ``python -m repro`` command line: parsing, plan subcommand, exits."""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

import pytest

from repro.__main__ import TourCheckFailed, _check, main, parse_query


class TestParseQuery:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("triangle", "C3"),
            ("C3", "C3"),
            ("c5", "C5"),
            ("L4", "L4"),
            ("T3", "T3"),
            ("SP2", "SP2"),
            ("sp2", "SP2"),
            ("K4", "K4"),
            ("join", "join"),
            ("B4_2", "B4_2"),
        ],
    )
    def test_known_names(self, name, expected):
        assert parse_query(name).name == expected

    def test_unknown_name(self):
        with pytest.raises(argparse.ArgumentTypeError, match="unknown query"):
            parse_query("nonsense")


class TestCheck:
    def test_passing_check_is_silent(self):
        _check(True, "fine")

    def test_failing_check_exits_nonzero(self):
        with pytest.raises(SystemExit) as excinfo:
            _check(False, "broken invariant")
        assert excinfo.value.code == 1
        assert isinstance(excinfo.value, TourCheckFailed)


class TestPlanSubcommand:
    def test_plan_prints_explain_table(self, capsys):
        main(["plan", "triangle", "--p", "8", "--m", "120", "--n", "512"])
        out = capsys.readouterr().out
        assert "EXPLAIN" in out
        assert "hypercube" in out
        assert "pruned" in out

    def test_plan_execute_checks_answers(self, capsys):
        main([
            "plan", "join", "--p", "8", "--m", "150", "--n", "600",
            "--skew", "0.8", "--execute",
        ])
        out = capsys.readouterr().out
        assert "executed" in out
        assert "answers" in out
        assert "p50" in out and "p99" in out  # per-server percentiles

    def test_memory_budget_selects_out_of_core(self, capsys):
        # 4000 tuples * 2 cols * 8 bytes * 2 relations = 128 KiB of
        # input; a 0.1 MiB budget forces chunked execution.
        main([
            "plan", "join", "--p", "8", "--m", "4000", "--n", "16000",
            "--execute", "--memory-budget-mb", "0.1",
        ])
        out = capsys.readouterr().out
        assert "out-of-core" in out
        assert "chunked execution" in out

    def test_memory_budget_large_stays_in_memory(self, capsys):
        main([
            "plan", "join", "--p", "8", "--m", "200", "--n", "800",
            "--execute", "--memory-budget-mb", "512",
        ])
        out = capsys.readouterr().out
        assert "in-memory" in out
        assert "fits" in out


class TestBackendFlag:
    def test_unknown_backend_rejected(self):
        # There is one execution engine: no --backend flag, anywhere.
        for argv in (
            ["--backend", "numpy", "plan", "T2"],
            ["plan", "T2", "--backend", "tuples"],
            ["run", "T2", "--backend", "tuples"],
        ):
            with pytest.raises(SystemExit):
                main(argv)


class TestRunSubcommand:
    def test_run_prints_workload_summary(self, capsys):
        main(["run", "triangle", "--p", "8", "--m", "120", "--n", "480",
              "--repeat", "3", "--max-workers", "2"])
        out = capsys.readouterr().out
        assert "session workload: p=8, 3 run(s)" in out
        assert "job-0" in out and "job-2" in out
        assert "per-run L percentiles" in out

    def test_run_pinned_strategy(self, capsys):
        main(["run", "join", "--p", "8", "--m", "150", "--skew", "0.8",
              "--strategy", "hypercube"])
        out = capsys.readouterr().out
        assert "job-0: hypercube" in out

    def test_run_memory_budget_reports_spill(self, capsys):
        main(["run", "join", "--p", "8", "--m", "4000",
              "--memory-budget-mb", "0.1"])
        out = capsys.readouterr().out
        assert "out-of-core" in out

    def test_run_capacity_drop(self, capsys):
        main(["run", "triangle", "--p", "8", "--m", "200",
              "--capacity-bits", "2000", "--on-overflow", "drop"])
        out = capsys.readouterr().out
        assert "session workload" in out

    def test_run_inapplicable_strategy_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["run", "triangle", "--p", "8", "--m", "100",
                  "--strategy", "no-such-strategy"])


class TestSubprocessExitCodes:
    """The real contract CI relies on: exit status of the module."""

    @staticmethod
    def _run(*args):
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=root,
            timeout=600,
        )

    def test_plan_subcommand_exits_zero(self):
        result = self._run("plan", "T2", "--p", "8", "--m", "100",
                           "--n", "400")
        assert result.returncode == 0, result.stderr
        assert "EXPLAIN" in result.stdout

    def test_bad_query_exits_nonzero(self):
        result = self._run("plan", "nonsense")
        assert result.returncode != 0
