"""Each rule detects its known-bad fixture at the expected (file, line).

The fixture corpus under ``tests/checks/fixtures/`` is one file per
bug class, each a reconstruction of a real historical defect (the
``unsorted_routing`` fixture is the PR 3 fragment-routing bug).  The
fixtures are excluded from ruff and never imported; the analyzer reads
them as text.
"""

import pathlib

import pytest

from repro.checks import check_paths, rule_ids

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def findings_for(name):
    result = check_paths([FIXTURES / name])
    return [(f.rule, f.line) for f in result.findings]


def test_fixture_corpus_exists():
    assert FIXTURES.is_dir()
    assert len(list(FIXTURES.glob("*.py"))) >= 7


def test_unsorted_routing_reconstruction_detected():
    # The PR 3 bug: fragment sends ordered by set iteration.
    found = findings_for("unsorted_routing.py")
    assert ("sorted-iteration", 9) in found
    assert ("sorted-iteration", 11) in found
    assert all(rule == "sorted-iteration" for rule, _ in found)


def test_unseeded_random_detected():
    found = findings_for("unseeded_random.py")
    assert ("unseeded-random", 10) in found  # random.shuffle
    assert ("unseeded-random", 11) in found  # np.random.rand
    assert ("unseeded-random", 12) in found  # default_rng()
    assert ("unseeded-random", 13) in found  # random.Random()
    # The seeded twins in fine() are not findings.
    assert len(found) == 4


def test_wall_clock_detected_through_aliases():
    found = findings_for("wall_clock.py")
    assert ("wall-clock", 8) in found   # time.time()
    assert ("wall-clock", 9) in found   # from time import perf_counter as pc
    assert len(found) == 2


def test_lambda_and_closure_tasks_detected():
    found = findings_for("lambda_task.py")
    assert ("pool-task", 5) in found    # lambda
    assert ("pool-task", 10) in found   # nested def
    assert len(found) == 2


def test_parent_accounting_mutation_detected():
    found = findings_for("parent_accounting.py")
    assert found == [("parent-accounting", 12)]


def test_unguarded_and_loop_hooks_detected():
    found = findings_for("unguarded_hook.py")
    assert ("hook-guard", 7) in found   # inline use, no binding
    assert ("hook-guard", 9) in found   # re-fetched inside the loop
    # disciplined() is clean.
    assert len(found) == 2


def test_hand_rolled_defaults_detected():
    found = findings_for("hand_rolled_default.py")
    assert ("settings-resolution", 5) in found  # machines or "4x1"
    assert ("settings-resolution", 7) in found  # if pool is None: pool = ...
    assert len(found) == 2


def test_private_row_orders_detected():
    found = findings_for("row_order.py")
    # lexsort, unique(axis=0), np.argsort(kind="stable"), .argsort(kind="stable");
    # through_the_kernel() is clean.
    assert found == [("row-order", line) for line in (8, 9, 10, 11)]


def test_row_order_kernel_module_is_exempt():
    # The fixture sits at a repro/data/arrays.py path: the kernel keeps
    # lexsort / stable argsort as its fallbacks.
    assert findings_for("repro/data/arrays.py") == []


def test_free_run_wrappers_detected():
    # The fixture sits under a repro/ package path: a wrapper calling
    # dispatch_run by name or through the module is a second entry point.
    found = findings_for("repro/hypercube/free_wrapper.py")
    assert found == [("run-path", 9), ("run-path", 16)]


def test_strategy_registry_may_dispatch():
    assert findings_for("repro/planner/strategies.py") == []


def test_spill_io_outside_storage_detected():
    # The fixture sits under a repro/ package path outside repro/storage/:
    # np.save / np.load / np.memmap (aliased) / np.fromfile / .tofile(.
    found = findings_for("repro/parallel/spill_reader.py")
    assert found == [("spill-format", line) for line in (8, 9, 10, 11, 12)]


def test_storage_package_owns_the_spill_format():
    assert findings_for("repro/storage/chunked.py") == []


def test_file_and_path_anchoring():
    result = check_paths([FIXTURES / "parent_accounting.py"])
    (finding,) = result.findings
    assert finding.path.endswith("parent_accounting.py")
    assert finding.rule == "parent-accounting"
    assert finding.line == 12
    assert finding.col > 0
    assert "send_array" in finding.message
    rendered = finding.render()
    assert rendered.startswith(finding.path)
    assert ":12:" in rendered


@pytest.mark.parametrize("rule", [
    "unseeded-random", "wall-clock", "sorted-iteration", "pool-task",
    "parent-accounting", "hook-guard", "settings-resolution", "row-order",
    "run-path", "spill-format",
])
def test_every_shipped_rule_is_registered(rule):
    assert rule in rule_ids()


def test_at_least_five_rules():
    assert len(rule_ids()) >= 5
