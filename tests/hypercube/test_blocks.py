"""The round kernel: one block list, one result.

``repro.hypercube.blocks`` executes every engine's communication round
and computation phase.  These tests pin its contract from three sides:

* any block list -- random residual queries, shares, server offsets,
  seeds, weights, exclude filters, heads -- gives identical per-server
  bits, tuples, dropped bits and outputs through the array kernel and
  the tuple oracle (``tests/reference/tuple_kernel.py``), with and
  without a binding capacity cap;
* a run of each engine never enters the backtracking tuple join (the
  skew engines' heavy blocks used to);
* heavy blocks cross the pool and storage seams unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session
from repro.config import ExecutionSettings, MachineSpec
from repro.core.families import chain_query, star_query, triangle_query
from repro.data.arrays import unique_rows
from repro.data.generators import (
    degree_sequence_database,
    triangle_database_from_edges,
    zipf_database,
)
from repro.data.relation import Relation
from repro.hashing.family import derive_seed
from repro.hypercube.blocks import Block, BlockInput, round_kernel
from repro.join import multiway
from repro.join.multiway import evaluate
from repro.mpc.timing import PhaseTimer
from repro.multiround.plans import chain_plan
from repro.skew.bounds import zipf_frequencies
from repro.storage.manager import StorageManager

from tests.conftest import random_queries
from tests.reference.tuple_kernel import kernel

DOMAIN = 6
VALUE_BITS = 3


# -------------------------------------------------------------- strategies

@st.composite
def block_lists(draw):
    """``(blocks, num_servers)``: 1-3 random blocks over random data.

    Blocks either own disjoint server ranges (with random gaps) or all
    sit at ``base=0`` under distinct tag prefixes, like same-round
    plan operators.  Row data comes from ``derive_seed``-seeded
    generators, so an example is a pure function of the drawn ints.
    """
    data_seed = draw(st.integers(min_value=0, max_value=2**20))
    shared = draw(st.booleans())
    out, base = [], 0
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        query = draw(random_queries(max_variables=3, max_atoms=3, max_arity=2))
        variables = query.variables
        rng = np.random.default_rng(derive_seed(data_seed, index))
        inputs = []
        for atom in query.atoms:
            rows = unique_rows(
                rng.integers(0, DOMAIN, size=(int(rng.integers(0, 25)), atom.arity))
            )
            source = (
                Relation.from_array(atom.relation, rows)
                if len(rows) and draw(st.booleans())
                else rows
            )
            exclude = ()
            if draw(st.booleans()):
                exclude = ((
                    draw(st.integers(min_value=0, max_value=atom.arity - 1)),
                    tuple(draw(st.sets(st.integers(0, DOMAIN - 1), max_size=3))),
                ),)
            inputs.append(
                BlockInput(atom.relation, atom.variables, (source,), exclude)
            )
        shares = tuple(
            draw(st.integers(min_value=1, max_value=3)) for _ in variables
        )
        weights = None
        if draw(st.booleans()):
            weights = tuple(
                tuple(float(w) for w in rng.integers(1, 4, size=share))
                if share > 1 else None
                for share in shares
            )
        head = None
        if draw(st.booleans()):
            head = tuple(
                draw(st.sampled_from(variables + (index + 100,)))
                for _ in range(len(variables) + 1)
            )
        block = Block(
            query=query,
            inputs=tuple(inputs),
            shares=shares,
            family_seed=draw(st.integers(min_value=0, max_value=2**31)),
            weights=weights,
            base=0 if shared else base + draw(st.integers(0, 2)),
            prefix=f"B{index}/" if shared else "",
            head=head,
        )
        out.append(block)
        base = max(base, block.servers.stop)
    return out, base


def run_blocks(block_list, num_servers, kernel_name, **knobs):
    """Communicate + compute through one kernel; everything comparable."""
    resolved = ExecutionSettings(**knobs).resolve()
    with kernel(kernel_name):
        opened = round_kernel(
            num_servers, VALUE_BITS, resolved, None, PhaseTimer()
        )
    opened.communicate(block_list)
    opened.compute(block_list)
    (load,) = opened.sim.report.rounds
    return (
        dict(load.bits),
        dict(load.tuples),
        dict(load.dropped_bits),
        [opened.sim.outputs_of(s) for s in range(num_servers)],
    )


# ------------------------------------------------- (a) kernels are identical

@settings(max_examples=60, deadline=None)
@given(case=block_lists())
def test_array_kernel_matches_tuple_reference(case):
    block_list, num_servers = case
    arrays = run_blocks(block_list, num_servers, "numpy")
    assert arrays == run_blocks(block_list, num_servers, "tuples")
    # A cap at half the heaviest server binds somewhere: the same
    # per-server prefix must survive on both kernels.
    heaviest = max(arrays[0].values(), default=0.0)
    if heaviest:
        cap = dict(capacity_bits=heaviest / 2, on_overflow="drop")
        capped = run_blocks(block_list, num_servers, "numpy", **cap)
        assert capped == run_blocks(block_list, num_servers, "tuples", **cap)
        assert sum(capped[2].values()) > 0


def test_replicated_input_is_a_broadcast():
    """An input that misses a grid variable reaches every slice of it."""
    query = triangle_query()
    rows = np.array([[1, 2], [3, 4]], dtype=np.int64)
    block = Block(
        query=query,
        inputs=(BlockInput("S1", ("x1", "x2"), (rows,)),),
        shares=(1, 1, 5),
        family_seed=7,
        base=3,
    )
    for kernel_name in ("numpy", "tuples"):
        bits, tuples, _, _ = run_blocks([block], 8, kernel_name)
        assert tuples == {server: 2 for server in range(3, 8)}
        assert set(bits.values()) == {2 * 2 * VALUE_BITS}


# ----------------------------------- (b) engine runs stay off the tuple join

def hub_graph_db(hub_degree=400, path_edges=100):
    """Hub vertex 0: a case-2 hitter of every triangle variable at p=27."""
    edges = {(0, v) for v in range(1, hub_degree + 1)}
    edges |= {(v, v + 1) for v in range(1, path_edges + 1)}
    return triangle_database_from_edges(edges, hub_degree + 2)


def skewed_star_db():
    frequencies = {
        "S1": zipf_frequencies(2000, 40, 1.0),
        "S2": zipf_frequencies(2000, 500, 0.2),
    }
    return degree_sequence_database(
        star_query(2), "z", frequencies, n=4096, seed=1
    )


#: engine -> (query, database, p, per-run overrides)
ENGINE_CASES = {
    "hypercube": lambda: (star_query(2), skewed_star_db(), 16, {}),
    "skew-star": lambda: (star_query(2), skewed_star_db(), 16, {}),
    "skew-triangle": lambda: (triangle_query(), hub_graph_db(), 27, {}),
    "multiround": lambda: (
        chain_query(3),
        zipf_database(chain_query(3), m=400, n=60, skew=1.2, seed=5),
        8,
        {"plan": chain_plan(3)},
    ),
}


def run_engine(engine, **knobs):
    query, db, p, overrides = ENGINE_CASES[engine]()
    return Session(p=p, seed=3, **knobs).run(query, db, engine, **overrides)


@pytest.mark.parametrize("engine", sorted(ENGINE_CASES))
def test_numpy_run_never_enters_the_tuple_path(engine, monkeypatch):
    def tuple_join(*args, **kwargs):
        raise AssertionError("the backtracking join entered an engine run")

    # Every evaluate_on_fragments call builds _AtomIndex, whatever name
    # the caller imported it under.
    monkeypatch.setattr(multiway, "_AtomIndex", tuple_join)
    result = run_engine(engine, pool="serial")
    assert len(result.answers_array()) > 0
    if engine == "skew-star":
        assert len(result.details["heavy_hitters"]) >= 3 and result.servers_used > 16
    if engine == "skew-triangle":
        assert any(result.details["heavy2"].values()) and result.servers_used > 4 * 27


# ------------------------- (c) heavy blocks cross the pool and storage seams

def fingerprint(result):
    report = result.report
    return (
        result.answers_array().tolist(),
        [sorted(r.bits.items()) for r in report.rounds],
        [sorted(r.tuples.items()) for r in report.rounds],
        [sorted(r.dropped_bits.items()) for r in report.rounds],
        result.servers_used,
    )


@pytest.mark.parametrize("machines", (None, "1,2"))
@pytest.mark.parametrize("engine", ("skew-star", "skew-triangle"))
def test_heavy_blocks_identical_across_pool_and_storage(
    engine, machines, tmp_path
):
    if engine == "skew-star":
        p, truth = 16, evaluate(star_query(2), skewed_star_db())
    else:
        p, truth = 27, evaluate(triangle_query(), hub_graph_db())
    knobs = {}
    if machines is not None:
        knobs["machines"] = MachineSpec.parse(machines).cycle_to(p)
    serial = run_engine(engine, pool="serial", **knobs)
    hitters = (
        serial.details["heavy_hitters"] if engine == "skew-star"
        else [h for values in serial.details["heavy2"].values() for h in values]
    )
    assert len(hitters) >= 3
    assert serial.answers == truth
    with StorageManager(root=tmp_path / "spill", chunk_rows=32) as storage:
        fanned = run_engine(
            engine, pool="process", max_workers=2, storage=storage, **knobs
        )
        assert fingerprint(fanned) == fingerprint(serial)
