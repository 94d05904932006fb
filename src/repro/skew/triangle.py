"""The skew-aware triangle algorithm (paper Section 4.2.2).

Computes ``C3 = S1(x1,x2), S2(x2,x3), S3(x3,x1)`` in one round under
arbitrary skew, by partitioning the *output* triangles according to how
many heavy values they contain:

* **Light** (every value has frequency below ``m/p^{1/3}``): vanilla
  HyperCube with shares ``p^{1/3}`` per variable -- load
  ``O~(M/p^{2/3})``.
* **Case 1** (at least two values with frequency >= ``m/p``): for each
  variable pair, broadcast the (at most ``p^2``) doubly-heavy tuples of
  their shared relation and hash-join the other two relations on the
  third variable -- load ``O(M/p)`` plus the broadcast.
* **Case 2** (exactly one value with frequency >= ``m/p^{1/3}``, the
  others below ``m/p``): each such hitter ``h`` of variable ``x`` gets
  its own grid of ``p_h >= p^{2/3}`` servers for the residual query
  ``R'(y), S(y,z), T'(z)``, with ``p_h`` boosted proportionally to
  ``M_R(h) M_T(h)`` (there are at most ``O(p^{1/3})`` such hitters, so
  the total stays ``Theta(p)``).

The combined load is the paper's

.. math::
    O\\Big(\\max\\Big(\\frac{M}{p^{2/3}},
    \\sqrt{\\frac{\\sum_h M_R(h) M_T(h)}{p}}, \\ldots \\Big)\\Big)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Mapping

import numpy as np

from repro.config import ExecutionSettings, MachineSpec
from repro.core.families import triangle_query
from repro.core.query import ConjunctiveQuery
from repro.core.shares import integerize_shares
from repro.core.stats import Statistics
from repro.data.database import Database
from repro.hashing.family import (
    GridPartitioner,
    HashFamily,
    grid_dimension_weights,
)
from repro.hypercube.algorithm import route_relation
from repro.join.multiway import evaluate_on_fragments
from repro.mpc.report import LoadReport
from repro.mpc.simulator import MPCSimulation
from repro.mpc.timing import PhaseTimer
from repro.parallel.pool import PoolKind, get_pool
from repro.parallel.tasks import (
    RouteTask,
    iter_array_sources,
    join_over_pool,
    route_over_pool,
)
from repro.skew.heavy_hitters import HitterStatistics, variable_frequencies
from repro.storage.manager import StorageManager


@dataclass
class TriangleSkewResult:
    """Output of one skew-aware triangle run.

    Satisfies the :class:`repro.session.RunResult` protocol, so
    triangle runs interchange with every other executor's result.
    """

    answers: set[tuple[int, ...]]
    report: LoadReport
    simulation: MPCSimulation
    servers_used: int
    heavy1: dict[str, set[int]]
    heavy2: dict[str, set[int]]
    predicted_load_bits: float
    strategy: str = "skew-triangle"

    @property
    def max_load_bits(self) -> float:
        return self.report.max_load_bits

    def answers_array(self) -> np.ndarray:
        """The distinct answers as a canonical ``(n, 3)`` int64 array."""
        return self.simulation.outputs_array(3)

    @property
    def load_report(self) -> LoadReport:
        return self.report

    @property
    def rounds(self) -> int:
        return self.report.num_rounds

    @property
    def predicted_bits(self) -> float | None:
        return self.predicted_load_bits


#: The triangle's structure: variable -> (successor relation providing
#: (x_i, x_{i+1}), predecessor relation providing (x_{i-1}, x_i),
#: middle relation joining the two neighbours).
_STRUCTURE = {
    "x1": ("S1", "S3", "S2"),
    "x2": ("S2", "S1", "S3"),
    "x3": ("S3", "S2", "S1"),
}
_PAIRS = (
    ("x1", "x2", "S1", "S2", "S3"),
    ("x2", "x3", "S2", "S3", "S1"),
    ("x3", "x1", "S3", "S1", "S2"),
)


def run_triangle_skew(
    database: Database,
    p: int,
    seed: int = 0,
    backend: Literal["tuples", "numpy"] | None = None,
    *,
    hitters: Mapping[str, HitterStatistics] | None = None,
    capacity_bits: float | None = None,
    on_overflow: Literal["fail", "drop"] = "fail",
    hash_method: str = "splitmix64",
    storage: StorageManager | None = None,
    chunk_rows: int | None = None,
    pool: PoolKind | None = None,
    max_workers: int | None = None,
    machines: MachineSpec | None = None,
) -> TriangleSkewResult:
    """Run the Section 4.2.2 algorithm in one MPC round.

    ``backend="numpy"`` routes the *light* block columnar (array
    routing through
    :func:`~repro.hypercube.algorithm.route_relation_arrays`, vectorized
    local joins on the light servers) -- bit-identical loads and
    answers.  The case-1/case-2 blocks handle the few heavy values and
    stay on the tuple path.  ``backend=None`` follows the system-wide
    default (:func:`repro.config.set_default_backend`).

    ``hitters`` accepts per-variable :class:`HitterStatistics` a caller
    has already collected at the exact ``m_j / p`` threshold (the
    planner's :class:`~repro.planner.statistics.DataStatistics` holds
    exactly this map), skipping the three full frequency scans here.
    With exact statistics the run is identical to scanning in-place:
    every value the scans would classify heavy sits above some
    relation's ``m_j / p`` threshold and therefore appears in the
    statistics with its exact max-frequency, and every absent value is
    light under every comparison the algorithm makes.

    ``capacity_bits``/``on_overflow`` impose the same hard per-server
    per-round cap ``L`` that
    :func:`~repro.hypercube.algorithm.run_hypercube` supports, across
    the light grid and the case-1/case-2 blocks; every part routes in
    canonical (sorted) order, so a binding ``"drop"`` cap truncates the
    identical per-server prefix on both backends.

    ``storage`` (numpy backend only) streams the light block
    chunk-by-chunk and spills the light servers' fragments and outputs
    to the manager's chunked spools; the case-1/case-2 blocks are
    bounded by the heavy-hitter structure and stay in memory.
    ``chunk_rows`` sets the routing granularity alone.

    ``pool``/``max_workers`` fan the light block's columnar routing and
    per-server joins out over a worker pool (the case-1/case-2 blocks
    stay serial); results merge deterministically, so answers and loads
    are bit-identical at any worker count.

    ``machines`` (a heterogeneous :class:`~repro.config.MachineSpec`)
    weights the light grid's axes speed-proportionally (a rank-1
    marginal approximation over the share cube) and applies per-server
    capacities across all blocks (case-1/case-2 servers take the spec's
    modular extension).  A uniform spec is bit-identical to
    ``machines=None``.

    A thin delegating wrapper over the shared run path of
    :mod:`repro.session`.
    """
    from repro.session import dispatch_run

    return dispatch_run(
        "skew-triangle",
        triangle_query(),
        database,
        p,
        seed=seed,
        storage=storage,
        settings=ExecutionSettings(
            backend=backend,
            capacity_bits=capacity_bits,
            on_overflow=on_overflow,
            hash_method=hash_method,
            chunk_rows=chunk_rows,
            pool=pool,
            max_workers=max_workers,
            machines=machines,
        ),
        hitters=hitters,
    )


def _frequencies_from_hitters(
    query: ConjunctiveQuery,
    hitters: Mapping[str, HitterStatistics],
) -> dict[str, dict[int, float]]:
    """Max-frequency views reconstructed from per-variable statistics.

    The executor's classification thresholds all sit at or above the
    detection threshold ``m_j / p``, so the thresholded vectors carry
    every comparison the algorithm makes (absent values are light).
    """
    freq: dict[str, dict[int, float]] = {}
    for variable in query.variables:
        stats_v = hitters.get(variable)
        if stats_v is None:
            raise ValueError(
                f"hitter statistics missing triangle variable {variable!r}"
            )
        if stats_v.variable != variable:
            raise ValueError(
                f"hitter statistics describe {stats_v.variable!r}, "
                f"not {variable!r}"
            )
        view: dict[int, float] = {}
        for counts in stats_v.frequencies.values():
            for value, count in counts.items():
                if count > view.get(value, 0):
                    view[value] = count
        freq[variable] = view
    return freq


def _triangle_impl(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    *,
    seed: int,
    settings: ExecutionSettings,
    storage: StorageManager | None,
    hitters: Mapping[str, HitterStatistics] | None = None,
) -> TriangleSkewResult:
    """The triangle core; ``settings`` arrives already resolved."""
    backend = settings.backend
    chunk_rows = settings.chunk_rows
    timer = PhaseTimer()
    pool = get_pool(settings.pool, settings.max_workers)
    if p < 2:
        raise ValueError("triangle algorithm needs p >= 2")
    if not is_triangle_query(query):
        raise ValueError("the Section 4.2.2 algorithm runs only C3")
    with timer.phase("generate"):
        database.validate_for(query)
        stats = database.statistics(query)
        m = max(stats.tuples(r) for r in query.relation_names)
        threshold1 = max(1.0, m / p)  # Case-1 heaviness
        threshold2 = max(1.0, m / p ** (1.0 / 3.0))  # Case-2 / light edge

        if hitters is None:
            freq = {
                v: variable_frequencies(query, database, v)
                for v in query.variables
            }
        else:
            freq = _frequencies_from_hitters(query, hitters)

        def f(variable: str, value: int) -> float:
            return freq[variable].get(value, 0)

        heavy1 = {
            v: {val for val, c in freq[v].items() if c >= threshold1}
            for v in query.variables
        }
        heavy2 = {
            v: {val for val, c in freq[v].items() if c >= threshold2}
            for v in query.variables
        }

        # ------------- Case-2 block planning. --------------------------
        case2_plan: list[tuple[str, int, list[int], list[int], int]] = []
        weights: dict[tuple[str, int], float] = {}
        for variable in query.variables:
            succ_rel, pred_rel, _mid = _STRUCTURE[variable]
            for h in sorted(heavy2[variable]):
                succ_var = _other_variable(query, succ_rel, variable)
                pred_var = _other_variable(query, pred_rel, variable)
                r_side = sorted(
                    {
                        t[1]
                        for t in database[succ_rel]
                        if t[0] == h and f(succ_var, t[1]) < threshold1
                    }
                )
                t_side = sorted(
                    {
                        t[0]
                        for t in database[pred_rel]
                        if t[1] == h and f(pred_var, t[0]) < threshold1
                    }
                )
                if not r_side or not t_side:
                    continue
                weights[(variable, h)] = len(r_side) * len(t_side)
                case2_plan.append((variable, h, r_side, t_side, 0))
        total_weight = sum(weights.values())
        base_block = math.ceil(p ** (2.0 / 3.0))
        planned = []
        for variable, h, r_side, t_side, _ in case2_plan:
            boost = 0
            if total_weight > 0:
                boost = math.ceil(p * weights[(variable, h)] / total_weight)
            planned.append(
                (variable, h, r_side, t_side, max(base_block, boost))
            )
        case2_plan = planned

    total_servers = p + 3 * p + sum(size for *_, size in case2_plan)
    sim = MPCSimulation(
        total_servers,
        value_bits=stats.value_bits,
        capacity_bits=settings.capacity_bits,
        on_overflow=settings.on_overflow,
        storage=storage,
        timer=timer,
        machines=settings.machines,
    )
    family = HashFamily(seed, method=settings.hash_method)
    sim.begin_round()

    # ---------------- Light block: vanilla HC on [0, p). ----------------
    dims = query.variables
    light_shares = integerize_shares({v: 1.0 / 3.0 for v in dims}, p)
    # Speed-proportional marginals over the share cube; the
    # case-1/case-2 blocks below stay unweighted (their servers are the
    # modular extension past p, chosen by heavy-hitter structure).
    light_weights = grid_dimension_weights(
        [light_shares[v] for v in dims], settings.machines
    )
    light_grid = GridPartitioner(
        [light_shares[v] for v in dims], family, weights=light_weights
    )
    if backend == "numpy":
        # Filter-then-route per chunk (one task per chunk, fanned out
        # over the pool): filtering commutes with chunking, and results
        # merge in task order, so light rows reach every server in the
        # same order as the monolithic serial route.
        def light_tasks():
            for atom in query.atoms:
                a, b = atom.variables
                exclude = tuple(
                    (position, tuple(int(v) for v in sorted(heavy2[var])))
                    for position, var in ((0, a), (1, b))
                )
                for source in iter_array_sources(
                    database[atom.relation], chunk_rows
                ):
                    yield RouteTask(
                        tag=atom.relation,
                        source=source,
                        dimension_variables=tuple(dims),
                        atom_variables=tuple(atom.variables),
                        shares=tuple(light_shares[v] for v in dims),
                        family_seed=seed,
                        hash_method=settings.hash_method,
                        exclude=exclude,
                        weights=light_weights,
                    )

        with timer.phase("route"):
            route_over_pool(pool, sim, light_tasks(), timer)
    else:
        with timer.phase("route"):
            for atom in query.atoms:
                a, b = atom.variables
                # Sorted order, matching the columnar (sorted-array)
                # route, so a binding capacity cap truncates the same
                # per-server prefix on both backends.
                light = [
                    t
                    for t in database[atom.relation].sorted_tuples()
                    if f(a, t[0]) < threshold2 and f(b, t[1]) < threshold2
                ]
                _route_block(sim, 0, light_grid, dims, atom, light)

    # ---------------- Case-1 blocks: one per variable pair. -------------
    case1_bases = {}
    with timer.phase("route"):
        for index, (va, vb, rel_ab, rel_bc, rel_ca) in enumerate(_PAIRS):
            block_base = p * (1 + index)
            case1_bases[(va, vb)] = block_base
            vc = next(v for v in dims if v not in (va, vb))
            grid = GridPartitioner(
                [p if v == vc else 1 for v in dims],
                HashFamily(seed * 31 + index + 1, method=settings.hash_method),
            )
            # Doubly-heavy tuples of the direct relation: broadcast.
            # (Sorted, like every block, for deterministic truncation.)
            doubly = [
                t
                for t in database[rel_ab].sorted_tuples()
                if f(va, t[0]) >= threshold1 and f(vb, t[1]) >= threshold1
            ]
            for offset in range(p):
                sim.send(block_base + offset, rel_ab, doubly)
            # The other two relations, heavy-restricted, hashed on vc.
            bc_atom = query.atom(rel_bc)
            bc_heavy = [
                t
                for t in database[rel_bc].sorted_tuples()
                if f(vb, t[bc_atom.variables.index(vb)]) >= threshold1
            ]
            _route_block(sim, block_base, grid, dims, bc_atom, bc_heavy)
            ca_atom = query.atom(rel_ca)
            ca_heavy = [
                t
                for t in database[rel_ca].sorted_tuples()
                if f(va, t[ca_atom.variables.index(va)]) >= threshold1
            ]
            _route_block(sim, block_base, grid, dims, ca_atom, ca_heavy)

    # ---------------- Case-2 blocks: one grid per hitter. ---------------
    case2_blocks = []
    base = 4 * p
    with timer.phase("route"):
        for block_index, (variable, h, r_side, t_side, size) in enumerate(
            case2_plan
        ):
            succ_rel, pred_rel, mid_rel = _STRUCTURE[variable]
            gy = int(
                round(math.sqrt(size * len(r_side) / max(1, len(t_side))))
            )
            gy = min(max(1, gy), size)
            gz = max(1, size // gy)
            grid = GridPartitioner(
                [gy, gz],
                HashFamily(seed * 101 + block_index + 1,
                           method=settings.hash_method),
            )
            # Rows hold R'(y), columns hold T'(z), cells hold light
            # S(y, z).
            for y in r_side:
                row = grid.functions[0](y)
                for col in range(gz):
                    sim.send(
                        base + grid.linear_index((row, col)), succ_rel, [(y,)]
                    )
            for z in t_side:
                col = grid.functions[1](z)
                for row in range(gy):
                    sim.send(
                        base + grid.linear_index((row, col)), pred_rel, [(z,)]
                    )
            mid_atom = query.atom(mid_rel)
            va, vb = mid_atom.variables
            light_mid = [
                t
                for t in database[mid_rel].sorted_tuples()
                if f(va, t[0]) < threshold1 and f(vb, t[1]) < threshold1
            ]
            for t in light_mid:
                cell = (grid.functions[0](t[0]), grid.functions[1](t[1]))
                sim.send(base + grid.linear_index(cell), mid_rel, [t])
            case2_blocks.append(
                (variable, h, base, grid, succ_rel, pred_rel, mid_rel)
            )
            base += size

    sim.end_round()

    # ---------------- Computation phase. --------------------------------
    if backend == "numpy":
        # Light-block servers hold array fragments in this mode; their
        # joins fan out over the pool, outputs merging in server order.
        with timer.phase("join"):
            join_over_pool(
                pool,
                sim,
                query,
                range(p),
                timer=timer,
                clear=storage is not None,
            )
        remaining = range(p, 4 * p)
    else:
        remaining = range(4 * p)
    with timer.phase("join"):
        for server in remaining:
            local = evaluate_on_fragments(query, sim.state(server))
            if local:
                sim.output(server, local)
        for (
            variable, h, block_base, grid, succ_rel, pred_rel, mid_rel
        ) in case2_blocks:
            succ_var = _other_variable(query, succ_rel, variable)
            pred_var = _other_variable(query, pred_rel, variable)
            mid_atom = query.atom(mid_rel)
            for offset in range(grid.num_bins):
                state = sim.state(block_base + offset)
                r_local = {t[0] for t in state.get(succ_rel, ())}
                t_local = {t[0] for t in state.get(pred_rel, ())}
                outputs = []
                for tup in state.get(mid_rel, ()):
                    values = dict(zip(mid_atom.variables, tup))
                    y = values[succ_var]
                    z = values[pred_var]
                    if y in r_local and z in t_local:
                        triangle = {variable: h, succ_var: y, pred_var: z}
                        outputs.append(tuple(triangle[v] for v in dims))
                if outputs:
                    sim.output(block_base + offset, outputs)

    timer.attach(sim.report)
    predicted = triangle_skew_load_bound(database, p)
    return TriangleSkewResult(
        answers=sim.outputs(),
        report=sim.report,
        simulation=sim,
        servers_used=total_servers,
        heavy1=heavy1,
        heavy2=heavy2,
        predicted_load_bits=predicted,
    )


def triangle_skew_load_bound(database: Database, p: int) -> float:
    """The Section 4.2.2 load formula, in bits.

    ``O~(max(M/p^{2/3}, sqrt(sum_h M_R(h) M_T(h) / p)))`` where the sum
    ranges over the heavy hitters (threshold ``m/p^{1/3}``) of each
    variable and ``R``/``T`` are its two adjacent relations.
    """
    query = triangle_query()
    database.validate_for(query)
    stats = database.statistics(query)
    m = max(stats.tuples(r) for r in query.relation_names)
    threshold2 = max(1.0, m / p ** (1.0 / 3.0))
    bound = max(stats.bits(r) for r in query.relation_names) / p ** (2.0 / 3.0)
    tuple_bits = 2 * stats.value_bits
    for variable in query.variables:
        freqs = variable_frequencies(query, database, variable)
        succ_rel, pred_rel, _mid = _STRUCTURE[variable]
        succ_atom = triangle_query().atom(succ_rel)
        pred_atom = triangle_query().atom(pred_rel)
        succ_pos = succ_atom.variables.index(variable)
        pred_pos = pred_atom.variables.index(variable)
        heavy = [v for v, count in freqs.items() if count >= threshold2]
        total = 0.0
        for succ_count, pred_count in zip(
            database[succ_rel].degrees_of(succ_pos, heavy),
            database[pred_rel].degrees_of(pred_pos, heavy),
        ):
            total += (succ_count * tuple_bits) * (pred_count * tuple_bits)
        if total > 0:
            bound = max(bound, math.sqrt(total / p))
    return bound


def triangle_skew_load_bound_from_stats(
    stats: Statistics,
    hitters: Mapping[str, "HitterStatistics"],
    p: int,
) -> float:
    """The Section 4.2.2 load formula from statistics alone, in bits.

    ``hitters`` maps each triangle variable to its
    :class:`~repro.skew.heavy_hitters.HitterStatistics` (frequency
    vectors at the ``m_j / p`` threshold).  Frequencies below a
    relation's own threshold are unknown to the statistics and count as
    0, so this prediction can sit slightly below the exact
    :func:`triangle_skew_load_bound`; the dominant term -- values heavy
    in both adjacent relations -- is identical.
    """
    query = triangle_query()
    m = max(stats.tuples(r) for r in query.relation_names)
    threshold2 = max(1.0, m / p ** (1.0 / 3.0))
    bound = max(stats.bits(r) for r in query.relation_names) / p ** (2.0 / 3.0)
    tuple_bits = 2 * stats.value_bits
    for variable in query.variables:
        stats_v = hitters.get(variable)
        if stats_v is None:
            continue
        succ_rel, pred_rel, _mid = _STRUCTURE[variable]
        total = 0.0
        for value in stats_v.hitters:
            freq = max(
                stats_v.frequency(succ_rel, value),
                stats_v.frequency(pred_rel, value),
            )
            if freq < threshold2:
                continue
            mr = stats_v.frequency(succ_rel, value) * tuple_bits
            mt = stats_v.frequency(pred_rel, value) * tuple_bits
            total += mr * mt
        if total > 0:
            bound = max(bound, math.sqrt(total / p))
    return bound


def is_triangle_query(query: ConjunctiveQuery) -> bool:
    """True when ``query`` is literally the paper's ``C3`` triangle.

    The Section 4.2.2 executor is hard-wired to the relation/variable
    naming of :func:`~repro.core.families.triangle_query`; the planner
    offers it exactly for that query.
    """
    return set(query.atoms) == set(triangle_query().atoms)


def _other_variable(
    query: ConjunctiveQuery, relation: str, variable: str
) -> str:
    atom = query.atom(relation)
    return next(v for v in atom.variables if v != variable)


def _route_block(sim, base, grid, dims, atom, tuples) -> None:
    batches: dict[int, list[tuple[int, ...]]] = {}
    for server, t in route_relation(grid, dims, atom.variables, tuples):
        batches.setdefault(server, []).append(t)
    for server, batch in batches.items():
        sim.send(base + server, atom.relation, batch)
