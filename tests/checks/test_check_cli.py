"""CLI contract: exit codes, --rule, --json, --list-rules, clean tree.

The clean-tree test is the acceptance criterion that matters most:
``python -m repro check src/`` must exit 0 on this repository, and
must do so quickly (the CI gate runs under ``timeout 30``).
"""

import io
import json
import pathlib
import time

import pytest

from repro.checks import cli, rule_ids

REPO = pathlib.Path(__file__).resolve().parents[2]
FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = REPO / "src"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestExitCodes:
    def test_clean_input_exits_zero(self):
        code, out, _ = run_cli([str(FIXTURES / "suppressed.py")])
        assert code == 0
        assert "0 finding(s)" in out

    def test_findings_exit_one(self):
        code, out, _ = run_cli([str(FIXTURES / "wall_clock.py")])
        assert code == 1
        assert "wall-clock" in out

    def test_unknown_rule_exits_two(self):
        code, _, err = run_cli(["--rule", "bogus", str(FIXTURES)])
        assert code == 2
        assert "unknown rule" in err

    def test_missing_path_exits_two(self):
        code, _, err = run_cli([str(FIXTURES / "does_not_exist.py")])
        assert code == 2
        assert "does_not_exist" in err


class TestFilters:
    def test_rule_filter_restricts_findings(self):
        code, out, _ = run_cli(
            ["--rule", "wall-clock", str(FIXTURES)]
        )
        assert code == 1
        lines = [
            line for line in out.splitlines()
            if ": " in line and "finding" not in line
        ]
        assert any(": wall-clock:" in line for line in lines)
        # Only the selected rule plus suppression-hygiene meta-findings
        # may appear; the other invariant rules are filtered out.
        assert all(
            ": wall-clock:" in line or ": suppression:" in line
            for line in lines
        )

    def test_rule_filter_can_make_a_file_clean(self):
        code, _, _ = run_cli(
            ["--rule", "pool-task", str(FIXTURES / "wall_clock.py")]
        )
        assert code == 0

    def test_list_rules(self):
        code, out, _ = run_cli(["--list-rules"])
        assert code == 0
        for rule in rule_ids():
            assert rule in out


class TestJson:
    def test_json_report_parses_and_matches_text_findings(self):
        code, out, _ = run_cli(["--json", str(FIXTURES / "wall_clock.py")])
        assert code == 1
        payload = json.loads(out)
        assert payload["schema"] == "repro.checks/1"
        assert [f["line"] for f in payload["findings"]] == [8, 9]


class TestCleanTree:
    def test_repo_src_is_clean(self):
        # THE shipping invariant: the analyzer exits 0 on its own tree.
        code, out, _ = run_cli([str(SRC)])
        assert code == 0, f"repo tree has findings:\n{out}"

    def test_src_scan_is_fast(self):
        # CI gates the scan under `timeout 30`; leave headroom here.
        started = time.perf_counter()
        code, _, _ = run_cli([str(SRC)])
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < 30.0, f"analyzer took {elapsed:.1f}s over src/"


class TestMainModule:
    def test_repro_check_subcommand_clean(self, capsys):
        from repro.__main__ import main

        main(["check", str(SRC)])
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_repro_check_subcommand_exits_nonzero_on_findings(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["check", str(FIXTURES / "wall_clock.py")])
        assert excinfo.value.code == 1
        assert "wall-clock" in capsys.readouterr().out

    def test_repro_check_rule_and_json_flags(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "check", "--json", "--rule", "wall-clock",
                str(FIXTURES / "wall_clock.py"),
            ])
        assert excinfo.value.code == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == {"wall-clock"}

    def test_repro_check_forwards_a_leading_list_rules(self, capsys):
        from repro.__main__ import main

        main(["check", "--list-rules"])
        assert "wall-clock" in capsys.readouterr().out

    def test_repro_check_help_is_the_analyzers(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--help"])
        assert excinfo.value.code == 0
        assert "--list-rules" in capsys.readouterr().out
