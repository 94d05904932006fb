"""Round-by-round execution of query plans on the MPC simulator.

All plan nodes of depth ``d`` execute in communication round ``d``: the
inputs of each operator (base relations from the input servers, or view
fragments from the servers that produced them in an earlier round) are
HyperCube-routed onto the full ``p``-server grid for that operator, and
every server then joins its fragments locally.  Intermediate results
stay where they are produced; only the routing of the *next* round
moves them, exactly as in the tuple-based MPC model (servers forward
join tuples whose destinations depend only on the tuple).

Nodes sharing a round share the ``p`` servers, so per-round loads add
across the (constantly many) parallel operators -- the constant-factor
regime of Proposition 5.1.  Each send is tagged
``"<node name>/<input name>"``: fragments belong to the *consuming*
operator, never to the bare relation, so two same-round operators
reading the same base relation or view keep their differently-routed
fragments apart on every server.

Each round is a block list -- one block per operator at ``base=0``
with ``prefix="<node name>/"`` -- executed by the round kernel of
:mod:`repro.hypercube.blocks`; view spooling, dropping views past their
last consumer and adopting the root's spools stay here.  Every
intermediate view is one ``(n, arity)`` int64 array per server between
rounds; base relations and view fragments are routed with
:func:`~repro.hypercube.algorithm.route_relation_arrays`, shipped
through :meth:`MPCSimulation.send_array` and joined with the vectorized
evaluator.  ``tests/multiround/test_executor_backends.py`` checks
answers and per-server/per-round loads against the scalar tuple oracle
under ``tests/reference/``.

``capacity_bits`` imposes the same hard per-server per-round cap ``L``
that a one-round HyperCube run honours: every round of the plan
enforces it, and because in-memory and chunked execution route each
relation and view in canonical row order, a binding cap with
``on_overflow="drop"`` truncates the identical per-server prefix
everywhere -- dropped tuples then propagate identically through later
rounds.

``storage`` switches the executor to out-of-core mode: base
relations and view fragments stream through the router chunk-by-chunk,
delivered fragments spill to per-server chunked spools, and the
inter-round views themselves are kept as
:class:`~repro.storage.chunked.ChunkedRelation` spools -- so an
intermediate blow-up spills to disk instead of pinning RAM, and views
past their last consumer delete their spill files eagerly.
"""

from __future__ import annotations

import hashlib
from repro.config import ExecutionSettings
from repro.core.query import Atom, ConjunctiveQuery
from repro.core.shares import integerize_shares, share_exponents
from repro.core.stats import Statistics
from repro.data.database import Database
from repro.hashing.family import derive_seed, grid_dimension_weights
from repro.hypercube.blocks import Block, BlockInput, round_kernel
from repro.mpc.timing import PhaseTimer
from repro.multiround.plans import Plan
from repro.run import RunResult, implements
from repro.storage.chunked import ChunkedRelation
from repro.storage.manager import StorageManager


@implements("multiround")
def _multiround_impl(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    *,
    seed: int,
    settings: ExecutionSettings,
    storage: StorageManager | None,
    plan: Plan,
    keep_view_fragments: bool = False,
) -> RunResult:
    """The plan core: per round, one block per plan node on ``[0, p)``.

    The final answers are reordered to the plan query's head order, so
    results compare directly against the sequential evaluator.
    ``details["plan"]`` is the plan; ``details["view_fragments"]`` maps
    plan-node names to their per-server result fragments in
    node-schema order (``(n, arity)`` arrays, or spools under
    ``storage``).  Only the root's are retained --
    holding every intermediate view of a large run alive would
    pin all of its memory to the result -- unless
    ``keep_view_fragments`` keeps them all (tests use this to pin down
    per-operator routing).  ``settings`` arrives already resolved.
    """
    timer = PhaseTimer()
    if p < 2:
        raise ValueError("plan execution needs p >= 2")
    if query != plan.query:
        raise ValueError(
            f"plan answers {plan.query.name or plan.query!r}, "
            f"not {query.name or query!r}"
        )
    with timer.phase("generate"):
        database.validate_for(plan.query)
        stats = database.statistics(plan.query)
    kernel = round_kernel(p, stats.value_bits, settings, storage, timer)
    sim = kernel.sim

    by_depth = plan.root.nodes_by_depth()
    # Fragments are tagged "<node>/<input>"; a "/" inside a node name
    # (or a reused name) would let one operator absorb another's
    # differently-routed fragments -- exactly the mixing the
    # namespacing prevents.
    seen_names: set[str] = set()
    last_consumed: dict[str, int] = {}  # view name -> last consuming round
    for node_depth, nodes in by_depth.items():
        for node in nodes:
            if "/" in node.name:
                raise ValueError(
                    f"plan node name {node.name!r} must not contain '/'"
                )
            if node.name in seen_names:
                raise ValueError(f"duplicate plan node name {node.name!r}")
            seen_names.add(node.name)
            for child in node.children:
                if not isinstance(child, Atom):
                    last_consumed[child.name] = max(
                        last_consumed.get(child.name, 0), node_depth
                    )
    # view name -> per-server fragments ((n, arity) arrays or spools)
    produced: dict[str, list] = {}
    schema_of: dict[str, tuple[str, ...]] = {}

    for depth in sorted(by_depth):
        nodes = by_depth[depth]
        blocks: list[Block] = []
        with timer.phase("generate"):
            # Tags are namespaced by the consuming node: two same-round
            # operators reading the same input route it under different
            # grids and must not share server state.
            for node in nodes:
                operator = node.operator
                inputs = []
                for child in node.children:
                    if isinstance(child, Atom):
                        inputs.append(BlockInput(
                            child.relation,
                            child.variables,
                            (database[child.relation],),
                        ))
                    else:
                        inputs.append(BlockInput(
                            child.name,
                            schema_of[child.name],
                            tuple(produced[child.name]),
                        ))
                sizes = {
                    item.tag: sum(len(source) for source in item.sources)
                    for item in inputs
                }
                op_stats = Statistics(operator, sizes, database.domain_size)
                exponents = share_exponents(operator, op_stats, p).exponents
                shares = integerize_shares(exponents, p)
                share_list = tuple(shares[v] for v in operator.variables)
                blocks.append(Block(
                    query=operator,
                    inputs=tuple(inputs),
                    shares=share_list,
                    family_seed=derive_seed(seed, _stable_salt(node.name)),
                    weights=grid_dimension_weights(
                        share_list, settings.machines
                    ),
                    prefix=f"{node.name}/",
                ))
        kernel.communicate(blocks)

        # Computation phase: evaluate each operator on every server of
        # its grid (servers beyond the grid receive nothing and produce
        # nothing -- they are padded with empty fragments).  Same-round
        # operators share servers, so delivered fragments are freed only
        # after every node's joins (sim.clear_all below).
        for node, block in zip(nodes, blocks):
            width = len(block.query.variables)
            fragments: list = []

            def collect(server: int, local):
                if storage is not None:
                    # Inter-round views spill too: an intermediate
                    # blow-up lands on disk, not in RAM.
                    spool = storage.spool(f"{node.name}-s{server}", width)
                    spool.append(local)
                    local = spool
                fragments.append(local)

            kernel.compute([block], on_result=collect)
            fragments += [kernel.empty(width)] * (p - len(fragments))
            produced[node.name] = fragments
            schema_of[node.name] = block.query.variables
        # Free delivered fragments: the next round re-routes views anyway.
        sim.clear_all()
        # Free views past their last consumer, so a deep run
        # holds at most the live generations, not every intermediate.
        if not keep_view_fragments:
            for name, last in last_consumed.items():
                if last == depth and name != plan.root.name:
                    stale = produced.pop(name, None)
                    if stale is not None and storage is not None:
                        for fragment in stale:
                            if isinstance(fragment, ChunkedRelation):
                                fragment.drop()

    root = plan.root
    for server, chunk in enumerate(produced[root.name]):
        if len(chunk) == 0:
            continue
        if isinstance(chunk, ChunkedRelation):
            # The root view already lives in manager-owned spools;
            # adopting them avoids re-spilling the whole result.
            sim.adopt_output_spool(server, chunk)
        else:
            kernel.record(server, chunk)
    retained = (
        produced if keep_view_fragments else {root.name: produced[root.name]}
    )
    timer.attach(sim.report)
    return RunResult(
        query, "multiround", sim.report, sim, p,
        details={"plan": plan, "view_fragments": retained},
        schema=schema_of[root.name],
    )


def _stable_salt(name: str) -> int:
    """A full-width 64-bit salt for a node name.

    Feeds :func:`~repro.hashing.family.derive_seed`; a small residue
    space here (the old ``mod 1_000_003`` rolling hash) would bottleneck
    the 64-bit seed mixing and let distinct node names share a hash
    family at birthday-collision rates.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")
