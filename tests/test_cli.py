"""The ``python -m repro`` command line: parsing, plan subcommand, exits."""

from __future__ import annotations

import argparse
import os
import re
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

    @pytest.mark.parametrize("flag", ["--execute", "--memory-budget-mb"])
    def test_plan_only_explains(self, flag, capsys):
        # Executing the winner is `run`'s job; plan takes no run flags.
        with pytest.raises(SystemExit) as exited:
            main(["plan", "join", "--p", "8", "--m", "200", flag, "1"])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["plan", "run"])
def test_machines_of_the_wrong_size_fail_the_check(command, capsys):
    with pytest.raises(TourCheckFailed):
        main([command, "triangle", "--p", "16", "--m", "100",
              "--machines", "4x1,4x4"])
    assert "CHECK FAILED: MachineSpec describes 8 servers but p=16" in (
        capsys.readouterr().err
    )


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
        # A REPRO_DEFAULT_MACHINES pattern names its machines here.
        assert re.search(
            r"session workload: p=8(, machines \S+)?, 3 run\(s\)", out
        )
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

    def test_run_memory_budget_large_stays_in_memory(self, capsys):
        main(["run", "join", "--p", "8", "--m", "200", "--n", "800",
              "--memory-budget-mb", "512"])
        out = capsys.readouterr().out
        assert "session workload" in out
        assert "out-of-core" not in out

    def test_run_capacity_drop(self, capsys):
        main(["run", "triangle", "--p", "8", "--m", "200",
              "--capacity-bits", "2000", "--on-overflow", "drop"])
        out = capsys.readouterr().out
        assert "session workload" in out

    def test_run_inapplicable_strategy_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["run", "triangle", "--p", "8", "--m", "100",
                  "--strategy", "no-such-strategy"])


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "triangle", "--p", "0", "--m", "100"],
        ["run", "triangle", "--m", "0"],
        ["run", "triangle", "--m", "-5"],
        ["run", "triangle", "--n", "0"],
        ["run", "triangle", "--repeat", "0"],
        ["run", "triangle", "--max-workers", "0"],
        ["plan", "triangle", "--p", "0"],
        ["plan", "triangle", "--m", "0"],
        ["plan", "triangle", "--n", "-1"],
        ["run", "triangle", "--p", "eight"],
        ["run", "triangle", "--metrics-every", "0"],
        ["trace", "traces", "--top", "-2"],
        # A negative skew would silently mean "matching database", and
        # a negative cap would run only to fail every server.
        ["run", "triangle", "--skew", "-1"],
        ["plan", "triangle", "--skew", "-1"],
        ["run", "triangle", "--capacity-bits", "-5"],
        ["run", "triangle", "--capacity-bits", "nan"],
    ],
    ids=lambda argv: " ".join(argv[2:]) + f" ({argv[0]})",
)
def test_non_positive_counts_are_usage_errors(argv, capsys):
    # argparse rejects them before anything runs: exit status 2 and a
    # usage line, not a traceback from deep inside the generator.
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"argument {argv[2]}:" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "plan"])
def test_matching_larger_than_domain_is_a_usage_error(command, capsys):
    # A matching needs m <= n; the pair is checked before generation.
    with pytest.raises(SystemExit) as exited:
        main([command, "triangle", "--p", "4", "--m", "100", "--n", "50"])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "--m 100" in err and "--n 50" in err and "Traceback" not in err


def test_zipf_may_draw_more_tuples_than_the_domain(capsys):
    main(["plan", "triangle", "--p", "4", "--m", "100", "--n", "50",
          "--skew", "0.5"])
    assert "EXPLAIN" in capsys.readouterr().out


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

    def test_capacity_breach_exits_nonzero_without_traceback(self):
        result = self._run("run", "L4", "--p", "16", "--m", "100000",
                           "--strategy", "multiround",
                           "--capacity-bits", "400000")
        assert result.returncode != 0
        assert "Traceback" not in result.stderr
        assert re.search(
            r"CHECK FAILED: server \d+ received \d+ bits in round \d+, "
            r"exceeding its capacity 400000", result.stderr
        )

    def test_bad_query_exits_nonzero(self):
        result = self._run("plan", "nonsense")
        assert result.returncode != 0
