"""HyperCube's share-vector choice: one candidate list, one price, one run.

The parallel hash join (Example 4.1) and the skew-oblivious HyperCube
(Section 4.1, LP (18)) are HyperCube under another share vector.  The
``"hypercube"`` strategy prices LP (10), LP (18) and the hash-on-the-
common-variables vector with one formula and runs the cheapest; a
caller pins any one of them with ``exponents=``.
"""

from __future__ import annotations

import contextlib
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session
from repro.config import MachineSpec
from repro.core.families import simple_join_query, star_query, triangle_query
from repro.core.shares import (
    integerize_shares,
    share_exponents,
    skew_oblivious_share_exponents,
)
from repro.data.generators import (
    matching_database,
    planted_heavy_hitter_database,
    uniform_database,
)
from repro.hypercube.analysis import (
    predicted_load_bits_with_frequencies,
    predicted_makespan_bits,
)
from repro.planner import DataStatistics, OneRoundHyperCube, plan
from repro.planner.cost import common_variables, share_candidates
from repro.storage.manager import StorageManager

from tests.conftest import random_queries
from tests.reference.multiway_join import evaluate

HETEROGENEOUS = MachineSpec.parse("4x1+4x4")


class TestCandidates:
    def test_order_and_labels(self):
        q = simple_join_query()
        db = matching_database(q, m=200, n=800, seed=0)
        candidates = share_candidates(q, DataStatistics(db.statistics(q)), 8)
        assert [label for label, _ in candidates] == [
            "LP(10)", "LP(18)", "hash on z",
        ]
        assert candidates[2][1] == {"x": 1, "z": 8, "y": 1}

    def test_no_hash_candidate_without_a_common_variable(self):
        q = triangle_query()
        assert common_variables(q) == ()
        db = matching_database(q, m=200, n=800, seed=0)
        dstats = DataStatistics(db.statistics(q))
        assert [label for label, _ in share_candidates(q, dstats, 8)] == [
            "LP(10)", "LP(18)",
        ]

    def test_ties_go_to_the_earlier_candidate(self):
        # On a matching, LP (10) and the hash join both give 1x8x1.
        q = simple_join_query()
        db = matching_database(q, m=200, n=800, seed=0)
        label, shares, estimate = OneRoundHyperCube().best_shares(
            q, DataStatistics.from_database(q, db, 8), 8
        )
        assert label == "LP(10)" and shares["z"] == 8
        assert estimate.detail.startswith("LP(10) shares 1x8x1 (")
        assert "hash on z 1x8x1" in estimate.detail

    def test_skew_picks_lp18_and_the_run_follows(self):
        q = simple_join_query()
        db = planted_heavy_hitter_database(q, 120, 600, "z", 0.4, 5, seed=5)
        result = Session(p=8, seed=3).run(q, db, "hypercube")
        lp18 = skew_oblivious_share_exponents(q, db.statistics(q), 8)
        assert result.details["shares"] == lp18.integer_shares()
        assert result.estimate.detail.startswith("LP(18) shares 2x2x2")
        assert result.answers == evaluate(q, db)

    def test_run_without_statistics_solves_the_same_choice(self):
        q = simple_join_query()
        db = planted_heavy_hitter_database(q, 120, 600, "z", 0.4, 5, seed=5)
        strategy = OneRoundHyperCube()
        _, shares, _ = strategy.best_shares(
            q, DataStatistics.from_database(q, db, 8), 8, None,
        )
        assert strategy.run(q, db, 8).details["shares"] == shares


@pytest.mark.parametrize(
    "query", [simple_join_query(), star_query(2)], ids=["join", "T2"]
)
def test_hash_vector_priced_at_its_measured_makespan(query):
    """The hash join's heterogeneous price is the grid that actually runs.

    The executor speed-weights the hash-on-z grid like any other share
    vector, so the price is its predicted makespan -- not the
    homogeneous load over the slowest machine's speed.
    """
    db = matching_database(query, m=4_000, n=16_000, seed=7)
    dstats = DataStatistics.from_database(query, db, 8)
    hashed = dict(share_candidates(query, dstats, 8))["hash on z"]
    _, shares, estimate = OneRoundHyperCube().best_shares(
        query, dstats, 8, HETEROGENEOUS
    )
    assert shares == hashed
    with Session(p=8, seed=7, machines=HETEROGENEOUS) as session:
        result = session.run(query, db, "hypercube", exponents={"z": 1.0})
    assert result.details["shares"] == hashed
    measured = result.report.makespan_bits
    assert estimate.load_bits / 1.1 <= measured <= estimate.load_bits * 1.1


# Answers, per-round per-server bits and dropped bits of the retired
# "hash-join" and "skew-oblivious" strategies (p=8, seed=3), recorded
# before they became pinned HyperCube vectors.  ``answers`` is the count
# and a digest of the sorted answer tuples.
PINNED_GOLDENS = {
    ("join", "hash", "drop"): (
        (6, "90cb68c24b11af14"),
        [220, 360, 700, 440, 360, 240, 420, 460],
        [0, 0, 1600, 0, 0, 0, 0, 0],
    ),
    ("join", "hash", "storage"): (
        (2311, "7415a036f5d3295e"),
        [220, 360, 2300, 440, 360, 240, 420, 460],
        [0] * 8,
    ),
    ("join", "lp18", "drop"): (
        (4, "e306d4f7ba5def57"),
        [700, 700, 700, 680, 700, 700, 700, 700],
        [980, 1040, 0, 0, 860, 920, 120, 100],
    ),
    ("join", "lp18", "storage"): (
        (2311, "7415a036f5d3295e"),
        [1680, 1740, 700, 680, 1560, 1620, 820, 800],
        [0] * 8,
    ),
    ("triangle", "lp18", "drop"): (
        (99, "c8297e794405a779"),
        [580, 650, 680, 700, 700, 700, 700, 700],
        [0, 0, 0, 30, 270, 340, 550, 600],
    ),
    ("triangle", "lp18", "storage"): (
        (231, "c2a1cace5691f9bf"),
        [580, 650, 680, 730, 970, 1040, 1250, 1300],
        [0] * 8,
    ),
}
# The process pool is bit-identical to the serial storage-free run.
PINNED_GOLDENS.update({
    (query, vector, "process"): PINNED_GOLDENS[(query, vector, "storage")]
    for query, vector, _ in list(PINNED_GOLDENS)
})


def _pinned_case(query_name, vector):
    if query_name == "join":
        q = simple_join_query()
        db = planted_heavy_hitter_database(q, 120, 600, "z", 0.4, 5, seed=5)
    else:
        q = triangle_query()
        db = uniform_database(q, m=120, n=20, seed=5)
    exponents = (
        {"z": 1.0}
        if vector == "hash"
        else skew_oblivious_share_exponents(q, db.statistics(q), 8).exponents
    )
    return q, db, exponents


def _digest(answers):
    return hashlib.sha256(repr(sorted(answers)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(PINNED_GOLDENS), ids="-".join)
def test_pinned_vector_equals_the_retired_strategy(key):
    query_name, vector, setting = key
    answers, bits, dropped = PINNED_GOLDENS[key]
    q, db, exponents = _pinned_case(query_name, vector)
    knobs = {"p": 8, "seed": 3}
    if setting == "drop":
        knobs.update(capacity_bits=700.0, on_overflow="drop")
    elif setting == "process":
        knobs.update(pool="process", max_workers=2)
    with contextlib.ExitStack() as stack:
        if setting == "storage":
            knobs["storage"] = stack.enter_context(StorageManager(chunk_rows=16))
        session = stack.enter_context(Session(**knobs))
        result = session.run(q, db, "hypercube", exponents=exponents)
        assert (len(result.answers), _digest(result.answers)) == answers
    (load,) = result.report.rounds
    assert [load.bits.get(s, 0.0) for s in range(8)] == bits
    assert [load.dropped_bits.get(s, 0.0) for s in range(8)] == dropped
    assert (result.report.spill_stats is not None) == (setting == "storage")


def _retired_estimates(query, dstats, p, machines):
    """The loads the separate ``hypercube`` / ``skew-oblivious`` /
    ``hash-join`` estimators predicted before they became one strategy."""
    stats, frequencies = dstats.stats, dstats.frequency_maps()

    def grid_price(shares):
        if machines is None:
            return predicted_load_bits_with_frequencies(
                query, stats, shares, frequencies
            )
        return predicted_makespan_bits(
            query, stats, shares, machines, frequencies
        )

    prices = {
        "hypercube": grid_price(
            share_exponents(query, stats, p).integer_shares()
        ),
        "skew-oblivious": grid_price(
            skew_oblivious_share_exponents(query, stats, p).integer_shares()
        ),
    }
    common = common_variables(query)
    if common:
        shares = integerize_shares(
            {v: 1.0 / len(common) if v in common else 0.0
             for v in query.variables},
            p,
        )
        load = predicted_load_bits_with_frequencies(
            query, stats, shares, frequencies
        )
        # Priced over the slowest machine's speed, although the executor
        # speed-weights this grid like any other.
        prices["hash-join"] = (
            load if machines is None else load / machines.min_speed
        )
    return prices


@given(
    query=random_queries(max_variables=3, max_atoms=3, max_arity=2),
    data_seed=st.integers(min_value=0, max_value=2**20),
    speeds=st.lists(st.sampled_from([1.0, 2.0, 4.0]), min_size=2, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_estimate_is_the_cheapest_retired_estimate(query, data_seed, speeds):
    """Homogeneous: exactly the cheapest of the three retired estimates.

    Heterogeneous: no higher than the two that priced the speed-weighted
    grid.  The retired hash-join price is no bound there -- dividing the
    homogeneous load by the slowest speed can undersell the weighted
    grid's makespan (p=6 at speeds 5x1+1x2, ``S0(x0, x1)`` on a 3x2
    grid: 20 against 22.04).
    """
    p = len(speeds)
    sizes = {a.relation: min(20, 6**a.arity) for a in query.atoms}
    db = uniform_database(query, m=sizes, n=6, seed=data_seed)
    dstats = DataStatistics.from_database(query, db, p)
    strategy = OneRoundHyperCube()
    homogeneous = strategy.estimate(query, dstats, p).load_bits
    assert homogeneous == min(
        _retired_estimates(query, dstats, p, None).values()
    )
    machines = MachineSpec(tuple(speeds))
    heterogeneous = strategy.estimate(query, dstats, p, machines).load_bits
    retired = _retired_estimates(query, dstats, p, machines)
    assert heterogeneous <= min(retired["hypercube"], retired["skew-oblivious"])


class TestPlanMachines:
    def test_plan_rejects_a_spec_of_the_wrong_size(self):
        q = triangle_query()
        db = matching_database(q, m=100, n=400, seed=0)
        with pytest.raises(ValueError, match="8 servers but p=16"):
            plan(q, db, 16, machines=HETEROGENEOUS)

    def test_plan_keeps_a_spec_of_the_right_size(self):
        q = triangle_query()
        db = matching_database(q, m=100, n=400, seed=0)
        assert plan(q, db, 8, machines=HETEROGENEOUS).machines is HETEROGENEOUS
