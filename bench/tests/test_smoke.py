"""Smoke test of the benchmark harness (``pytest bench/tests``; not tier-1).

Runs the whole suite once at 5 % of the input sizes, then checks the
output document against ``BENCHMARK.json``, the failure accounting
against a deliberately corrupted oracle, and ``compare.py`` against an
identical and a 30 %-slower copy (the bound is 0.25).
"""

from __future__ import annotations

import contextlib
import copy
import json
import pathlib
import re
import subprocess
import sys
import time

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def document(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "suite.json"
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--ops", "1", "--scale", "0.05",
         "--out", str(out)],
        check=True, cwd=ROOT, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 30, f"six workloads took {elapsed:.1f} s"
    return json.loads(out.read_text())


def test_suite_runs_all_six_without_failures(document):
    assert list(document["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    assert list(document["workloads"]) == list(WORKLOADS)
    for name, passes in document["workloads"].items():
        assert passes["end_to_end"]["metrics"]["failed_frac"]["value"] == 0, name
        assert passes["per_layer"]["failed"] == 0, passes["per_layer"]["failures"]
    assert {"nproc", "platform", "python", "numpy", "git_sha", "version"} <= set(document["host"])


def test_every_declared_metric_is_reported_with_its_unit(document):
    for passes in document["workloads"].values():
        for kind in ("end_to_end", "per_layer"):
            reported = passes[kind]["metrics"]
            for declared in SPEC[kind]:
                assert NAME.fullmatch(declared["name"])
                metric = reported[declared["name"]]
                assert metric["unit"] == declared["unit"]
                assert isinstance(metric["value"], (int, float))
        shares = sum(row["share_pct"] for row in passes["per_layer"]["layer_table"])
        assert abs(shares - 100.0) <= 1.0


def test_spec_names_and_bounds_are_well_formed():
    names = [m["name"] for kind in ("end_to_end", "per_layer", "workloads") for m in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_corrupted_answer_counts_as_failed():
    tally = harness.Tally()
    prepared = harness.prepare(WORKLOADS["chain_rounds"], seed=1, scale=0.05, tally=tally)
    with contextlib.closing(prepared):
        harness.attempt(prepared)
        assert tally.result()["failed"] == 0
        prepared.oracles[0] = prepared.oracles[0][:-1]
        harness.attempt(prepared)
    result = tally.result()
    assert result["failed"] == 1 and result["failed"] / result["attempted"] > 0


def test_compare_passes_on_itself_and_fails_on_a_slower_copy(document):
    _, breaches = compare.compare(document, document, SPEC)
    assert breaches == 0
    slower = copy.deepcopy(document)
    for passes in slower["workloads"].values():
        passes["end_to_end"]["metrics"]["run_s_p50"]["value"] *= 1.3
    lines, breaches = compare.compare(document, slower, SPEC)
    assert breaches == len(document["workloads"])
    assert sum("REGRESSION" in line for line in lines) == breaches
    wrong_load = copy.deepcopy(document)
    wrong_load["workloads"]["hc_inmem"]["end_to_end"]["metrics"]["max_load_bits"]["value"] += 1
    assert compare.compare(document, wrong_load, SPEC)[1] == 1
