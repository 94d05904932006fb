"""Multi-round executor: kernel equivalence and routing bugfixes.

Three properties pinned here:

* **Kernel equivalence** -- the plan core on the array kernel is
  bit-identical to the tuple oracle (``tests/reference/``): same answers, same
  per-server loads (bits and tuples) in every round, same
  ``LoadReport`` totals, and the same per-server view fragments after
  every operator, across chain/star/triangle plans and skewed (zipf)
  inputs -- mirroring ``tests/hypercube/test_backends.py``.
* **Same-round fragment isolation** (the namespacing bugfix) -- two
  same-round operators consuming the same base relation or view must
  not interleave each other's differently-routed fragments: each
  node's per-server view fragments equal those of the node executed in
  isolation.
* **Seed/salt mixing** (the ``seed * 7919 + salt`` bugfix) -- distinct
  seeds change the routing, ``seed=0`` does not collapse per-node
  salts, and answers never move.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session
from repro.config import ExecutionSettings
from repro.core.families import triangle_query
from repro.core.query import Atom, ConjunctiveQuery
from repro.data.generators import (
    matching_database,
    uniform_database,
    zipf_database,
)
from repro.hashing.family import derive_seed
from repro.multiround.plans import (
    Plan,
    PlanNode,
    chain_plan,
    cycle_plan,
    generic_plan,
    spk_plan,
    star_plan,
)
from repro.multiround.executor import multiround_core
from repro.run import dispatch_run

from tests.conftest import random_queries
from tests.reference.multiway_join import evaluate
from tests.reference.tuple_kernel import kernel


def as_tuple_set(chunk: np.ndarray) -> set[tuple[int, ...]]:
    """A per-server view fragment as a plain tuple set."""
    return set(map(tuple, chunk.tolist()))


def run_plan(kernel_name, plan, db, p, seed):
    with kernel(kernel_name):
        return dispatch_run(
            multiround_core, plan.query, db, p, seed=seed,
            settings=ExecutionSettings(), plan=plan,
            keep_view_fragments=True,
        )


def assert_plan_kernels_identical(plan, db, p, seed=0):
    tuples, arrays = (
        run_plan(name, plan, db, p, seed) for name in ("tuples", "numpy")
    )
    assert arrays.answers == tuples.answers
    assert arrays.rounds == tuples.rounds == plan.depth
    assert arrays.report.num_rounds == tuples.report.num_rounds
    for round_a, round_t in zip(arrays.report.rounds, tuples.report.rounds):
        assert round_a.bits == round_t.bits
        assert round_a.tuples == round_t.tuples
    assert arrays.report.total_bits == tuples.report.total_bits
    assert arrays.report.max_load_bits == tuples.report.max_load_bits
    assert set(arrays.details["view_fragments"]) == set(tuples.details["view_fragments"])
    for name, tuple_chunks in tuples.details["view_fragments"].items():
        array_chunks = arrays.details["view_fragments"][name]
        assert len(array_chunks) == len(tuple_chunks)
        for tuple_chunk, array_chunk in zip(tuple_chunks, array_chunks):
            assert np.array_equal(array_chunk, tuple_chunk)
    return tuples, arrays


class TestPropertyEquivalence:
    @given(
        query=random_queries(connected_only=True),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=25, deadline=None)
    def test_randomized_generic_plans(self, query, seed):
        n = 8
        sizes = {a.relation: min(20, n**a.arity) for a in query.atoms}
        db = uniform_database(query, m=sizes, n=n, seed=seed)
        plan = generic_plan(query, fanout=2)
        tuples, _ = assert_plan_kernels_identical(plan, db, p=8, seed=seed)
        assert tuples.answers == evaluate(query, db)

    @pytest.mark.parametrize(
        "k,eps,p", [(4, 0.0, 8), (8, 0.0, 16), (16, 0.5, 16)]
    )
    def test_chain_plans(self, k, eps, p):
        plan = chain_plan(k, eps)
        db = matching_database(plan.query, m=40, n=40, seed=k)
        tuples, _ = assert_plan_kernels_identical(plan, db, p, seed=3)
        assert tuples.answers == evaluate(plan.query, db)

    def test_star_plan(self):
        plan = star_plan(3)
        db = matching_database(plan.query, m=50, n=250, seed=1)
        assert_plan_kernels_identical(plan, db, p=8, seed=2)

    def test_triangle_generic_plan(self):
        plan = generic_plan(triangle_query())
        db = uniform_database(plan.query, m=60, n=25, seed=5)
        tuples, _ = assert_plan_kernels_identical(plan, db, p=8, seed=4)
        assert tuples.answers == evaluate(plan.query, db)

    def test_cycle_plan(self):
        plan = cycle_plan(5, 0.0)
        db = matching_database(plan.query, m=30, n=30, seed=6)
        assert_plan_kernels_identical(plan, db, p=8, seed=5)

    def test_spk_plan(self):
        plan = spk_plan(2)
        db = matching_database(plan.query, m=40, n=200, seed=7)
        assert_plan_kernels_identical(plan, db, p=16, seed=6)

    @pytest.mark.parametrize("skew", [0.8, 1.2])
    def test_zipf_star_plan(self, skew):
        plan = star_plan(2)
        db = zipf_database(plan.query, m=120, n=60, skew=skew, seed=8)
        tuples, _ = assert_plan_kernels_identical(plan, db, p=8, seed=7)
        assert tuples.answers == evaluate(plan.query, db)

    def test_zipf_chain_plan(self):
        plan = chain_plan(4, 0.0)
        db = zipf_database(plan.query, m=100, n=50, skew=1.0, seed=9)
        tuples, _ = assert_plan_kernels_identical(plan, db, p=8, seed=8)
        assert tuples.answers == evaluate(plan.query, db)

    def test_answers_array_matches_answers(self):
        plan = chain_plan(4, 0.0)
        db = matching_database(plan.query, m=30, n=30, seed=10)
        result = Session(p=8, seed=9).run(
            plan.query, db, "multiround", plan=plan
        )
        rows = result.answers_array()
        assert set(map(tuple, rows.tolist())) == result.answers
        assert rows.shape[1] == plan.query.num_variables


def shared_relation_plan() -> Plan:
    """A bushy plan whose two depth-1 operators both consume ``R``.

    ``VA = R(x,y) |><| S(y,z)`` and ``VB = R(x,y)`` run in the same
    round under different grids; the root joins them.  The plan
    computes ``q(x,y,z) = R(x,y), S(y,z)``.
    """
    r = Atom("R", ("x", "y"))
    s = Atom("S", ("y", "z"))
    query = ConjunctiveQuery((r, s), name="shared")
    node_va = PlanNode("VA", (r, s))
    node_vb = PlanNode("VB", (r,))
    root = PlanNode("ROOT", (node_va, node_vb))
    return Plan(query, root)


class TestSameRoundFragmentIsolation:
    """The headline bugfix: per-node tag namespacing.

    Before the fix, both depth-1 operators sent their ``R`` fragments
    under the bare tag ``"R"``; every server's local join then saw the
    union of two differently-routed fragments, producing view tuples on
    servers where the operator's own grid never placed them (inflating
    the next round's loads and shipping duplicates).
    """

    @pytest.mark.parametrize("kernel_name", ["tuples", "numpy"])
    def test_view_fragments_match_isolated_runs(self, kernel_name):
        plan = shared_relation_plan()
        db = uniform_database(plan.query, m=60, n=12, seed=0)
        bushy = run_plan(kernel_name, plan, db, 8, seed=0)

        # The regression oracle: each depth-1 node run as its own
        # single-node plan (same name, sizes, p and seed, hence the
        # same grid) must produce the same per-server fragments.
        for node in plan.root.children:
            solo = run_plan(
                kernel_name, Plan(node.operator, node), db, 8, seed=0
            )
            bushy_chunks = bushy.details["view_fragments"][node.name]
            solo_chunks = solo.details["view_fragments"][node.name]
            assert len(bushy_chunks) == len(solo_chunks)
            for server, (got, want) in enumerate(
                zip(bushy_chunks, solo_chunks)
            ):
                assert as_tuple_set(got) == as_tuple_set(want), (
                    f"{node.name} fragment on server {server} mixed in "
                    "another operator's routing"
                )

    def test_rejects_slash_and_duplicate_node_names(self):
        r = Atom("R", ("x", "y"))
        query = ConjunctiveQuery((r,), name="guard")
        db = uniform_database(query, m=5, n=10, seed=0)
        with Session(p=2) as session:
            with pytest.raises(ValueError, match="must not contain"):
                session.run(
                    query, db, "multiround",
                    plan=Plan(query, PlanNode("A/B", (r,))),
                )
            duplicated = PlanNode("A", (PlanNode("A", (r,)),))
            with pytest.raises(ValueError, match="duplicate plan node name"):
                session.run(
                    query, db, "multiround", plan=Plan(query, duplicated)
                )

    @pytest.mark.parametrize("kernel_name", ["tuples", "numpy"])
    def test_answers_match_sequential_evaluation(self, kernel_name):
        plan = shared_relation_plan()
        db = uniform_database(plan.query, m=60, n=12, seed=0)
        with kernel(kernel_name):
            result = Session(p=8, seed=0).run(
                plan.query, db, "multiround", plan=plan
            )
        assert result.answers == evaluate(plan.query, db)

    def test_shared_view_consumers_same_round(self):
        """Two depth-2 operators consuming the same depth-1 view."""
        r = Atom("R", ("x", "y"))
        s = Atom("S", ("y", "z"))
        t = Atom("T", ("z", "w"))
        query = ConjunctiveQuery((r, s, t), name="shared-view")
        v1 = PlanNode("V1", (r, s))  # V1(x, y, z)
        va = PlanNode("VA", (v1, t))  # consumes V1
        vb = PlanNode("VB", (v1,))  # consumes V1 under another grid
        root = PlanNode("ROOT", (va, vb))
        plan = Plan(query, root)
        db = uniform_database(query, m=50, n=10, seed=3)
        assert_plan_kernels_identical(plan, db, p=8, seed=1)
        with Session(p=8, seed=1) as session:
            result = session.run(query, db, "multiround", plan=plan)
            assert result.answers == evaluate(query, db)
            # V1 feeds two parents but executes once: round 1 routes its
            # inputs exactly as often as when V1 is the whole plan.
            solo = session.run(
                v1.operator, db, "multiround", plan=Plan(v1.operator, v1)
            )
        assert result.report.rounds[0].bits == solo.report.rounds[0].bits


class TestSeedMixing:
    """The ``HashFamily(seed * 7919 + salt)`` bugfix."""

    def test_derive_seed_separates_pairs(self):
        # The old affine scheme collided exactly on these pairs:
        # 0 * 7919 + (salt + 7919) == 1 * 7919 + salt.
        for salt in (1, 17, 104729):
            assert derive_seed(0, salt + 7919) != derive_seed(1, salt)
        # seed=0 must not collapse onto the bare salt family.
        assert derive_seed(0, 42) != 42
        # Both components matter.
        assert derive_seed(0, 1) != derive_seed(0, 2)
        assert derive_seed(1, 1) != derive_seed(2, 1)
        # Deterministic and 64-bit.
        assert derive_seed(3, 4) == derive_seed(3, 4)
        assert 0 <= derive_seed(3, 4) < 2**64

    @pytest.mark.parametrize("kernel_name", ["tuples", "numpy"])
    def test_seed_changes_routing_not_answers(self, kernel_name):
        plan = chain_plan(4, 0.0)
        db = matching_database(plan.query, m=48, n=48, seed=11)
        with kernel(kernel_name), Session(p=8) as session:
            base = session.run(plan.query, db, "multiround", plan=plan, seed=0)
            moved = session.run(plan.query, db, "multiround", plan=plan, seed=1)
        assert base.answers == moved.answers == evaluate(plan.query, db)
        per_server = [r.bits for r in base.report.rounds]
        per_server_moved = [r.bits for r in moved.report.rounds]
        assert per_server != per_server_moved, (
            "changing the seed must re-route fragments"
        )

    def test_zero_seed_gives_distinct_grids_per_node(self):
        # At seed=0 the old scheme made every node's family
        # HashFamily(_stable_salt(name)) -- still distinct across
        # nodes, but colliding with explicit seeds.  Check the executor
        # level: the same plan at seeds 0 and 7919 (an old-scheme
        # collision candidate) routes differently.
        plan = chain_plan(4, 0.0)
        db = matching_database(plan.query, m=48, n=48, seed=12)
        with Session(p=8) as session:
            a = session.run(plan.query, db, "multiround", plan=plan, seed=0)
            b = session.run(plan.query, db, "multiround", plan=plan, seed=7919)
        assert a.answers == b.answers
        assert [r.bits for r in a.report.rounds] != [
            r.bits for r in b.report.rounds
        ]


class TestOutputServerAccounting:
    """Output/load attribution when the root grid has fewer bins than p."""

    def test_servers_beyond_grid_receive_and_produce_nothing(self):
        # Triangle shares at p=10 integerize to (2, 2, 2): 8 bins < 10.
        query = triangle_query()
        plan = Plan(query, PlanNode("V1", tuple(query.atoms)))
        db = uniform_database(query, m=60, n=20, seed=4)
        for kernel_name in ("tuples", "numpy"):
            with kernel(kernel_name):
                result = Session(p=10, seed=0).run(
                    query, db, "multiround", plan=plan
                )
            num_bins = len(
                [c for c in result.details["view_fragments"]["V1"] if len(c)]
            )
            assert num_bins <= 8
            assert result.answers == evaluate(query, db)
            sim = result.simulation
            # No server beyond the grid is charged in any round...
            for round_load in result.report.rounds:
                assert all(server < 8 for server in round_load.bits)
                assert all(server < 8 for server in round_load.tuples)
            # ... and none holds outputs.
            assert all(not sim.outputs_of(s) for s in (8, 9))
            counts = sim.output_counts()
            assert len(counts) == 10
            assert counts[8:] == [0, 0]

    def test_view_fragments_padded_to_p(self):
        query = triangle_query()
        plan = Plan(query, PlanNode("V1", tuple(query.atoms)))
        db = uniform_database(query, m=40, n=20, seed=5)
        for kernel_name in ("tuples", "numpy"):
            with kernel(kernel_name):
                result = Session(p=10, seed=0).run(
                    query, db, "multiround", plan=plan
                )
            chunks = result.details["view_fragments"]["V1"]
            assert len(chunks) == 10
            assert all(len(c) == 0 for c in chunks[8:])
