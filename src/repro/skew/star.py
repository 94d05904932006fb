"""The skew-aware star-query algorithm (paper Section 4.2.1).

For ``q = S_1(z, x_1), ..., S_l(z, x_l)`` with known z-statistics:

* *light* tuples (no heavy-hitter ``z``) run the vanilla HyperCube with
  all shares on ``z`` (load ``O(max_j M_j / p)`` w.h.p.);
* each heavy hitter ``h`` spawns a *residual query* -- the Cartesian
  product ``S'_1(x_1) x ... x S'_l(x_l)`` of ``h``'s tuples -- computed
  on its own block of ``p_h`` servers, where ``p_h`` aggregates the
  paper's per-packing allocations
  ``p_{h,u} = ceil(p * prod_j M_j(h)^{u_j} / sum_{h'} prod_j M_j(h')^{u_j})``
  over the vertices ``u in pk(q_z) = {0,1}^l \\ 0``.

Total servers used: ``Theta(p)`` (the paper's ``(l+1) |pk(q_z)| p``
ceiling); the whole computation is a single communication round.  The
achieved load matches Eq. (20):

.. math::
    O\\Big(\\max_{I \\subseteq [l]}
    \\Big(\\sum_{h} \\prod_{j \\in I} M_j(h) / p\\Big)^{1/|I|}\\Big)
"""

from __future__ import annotations

import itertools
import math
import numpy as np

from repro.config import ExecutionSettings
from repro.core.query import Atom, ConjunctiveQuery
from repro.core.shares import integerize_shares, share_exponents
from repro.core.stats import Statistics
from repro.data.database import Database
from repro.hashing.family import grid_dimension_weights
from repro.hypercube.blocks import Block, BlockInput, one_round
from repro.mpc.timing import PhaseTimer
from repro.run import RunResult
from repro.skew.heavy_hitters import HitterStatistics
from repro.storage.manager import StorageManager


def star_center(query: ConjunctiveQuery) -> str:
    """The center variable of a binary star query: the one shared by all atoms.

    Raises ``ValueError`` when the query is not a star (used by the
    planner to decide whether the Section 4.2.1 algorithm applies).
    """
    if query.num_atoms < 1:
        raise ValueError("star query needs at least one atom")
    shared = set(query.atoms[0].variable_set)
    for atom in query.atoms:
        if atom.arity != 2:
            raise ValueError("star algorithm expects binary atoms S_j(z, x_j)")
        shared &= atom.variable_set
    if len(shared) == 2 and query.num_atoms == 1:
        # A single binary atom: any variable may serve as the center;
        # use the first by the paper's S_j(z, x_j) convention.
        center = query.atoms[0].variables[0]
    elif len(shared) == 1:
        center = next(iter(shared))
    else:
        raise ValueError(
            "star algorithm expects exactly one variable shared by all atoms"
        )
    others = [v for a in query.atoms for v in a.variable_set if v != center]
    if len(set(others)) != len(others):
        raise ValueError("star legs must use distinct variables")
    return center


def _heavy_allocation(
    relations: tuple[str, ...],
    bits_per_hitter: dict[int, dict[str, float]],
    p: int,
) -> dict[int, int]:
    """Servers per heavy hitter, summed over the packing vertices.

    ``bits_per_hitter[h][rel]`` is ``M_rel(h)``; only hitters with all
    residual relations non-empty appear (others produce no output).
    """
    allocation = {h: 0 for h in bits_per_hitter}
    ell = len(relations)
    for size in range(1, ell + 1):
        for subset in itertools.combinations(relations, size):
            denominator = sum(
                math.prod(bits_per_hitter[h][r] for r in subset)
                for h in bits_per_hitter
            )
            if denominator <= 0:
                continue
            for h in bits_per_hitter:
                numerator = math.prod(bits_per_hitter[h][r] for r in subset)
                allocation[h] += math.ceil(p * numerator / denominator)
    return allocation


def star_core(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    *,
    seed: int,
    settings: ExecutionSettings,
    storage: StorageManager | None,
    hitters: HitterStatistics | None = None,
) -> RunResult:
    """The star core: the light block plus one residual block per hitter.

    Heavy hitters are detected exactly with the per-relation threshold
    ``m_j / p`` (the model assumes this information is available to
    every server), unless ``hitters`` supplies center-variable
    statistics collected at that threshold (the planner's are); the
    result is identical either way.  Correctness is unconditional; the
    load bound is Eq. (20) plus the light-part ``O(max_j M_j / p)``.

    The light block is the whole query on ``[0, p)`` with heavy ``z``
    values excluded; each hitter gets a residual-query block on its own
    ``p_h`` servers.  A heterogeneous ``settings.machines`` weights the
    light grid's center axis speed-proportionally (exact, since it is
    one-dimensional).  ``details["heavy_hitters"]`` lists the hitters
    handled.  ``settings`` arrives already resolved; the Eq. (20) bound
    is :func:`star_skew_load_bound`, and a session reports the planner's
    estimate of it.
    """
    timer = PhaseTimer()
    if p < 2:
        raise ValueError("star algorithm needs p >= 2")
    with timer.phase("generate"):
        database.validate_for(query)
        center = star_center(query)
        stats = database.statistics(query)
        if hitters is None:
            hitters = HitterStatistics.from_database(
                query, database, center, 1.0, p
            )
        elif hitters.variable != center:
            raise ValueError(
                f"hitter statistics describe {hitters.variable!r}, "
                f"not the star center {center!r}"
            )
        heavy_sorted = tuple(int(h) for h in hitters.hitters)

        leg_of = {
            atom.relation: next(v for v in atom.variables if v != center)
            for atom in query.atoms
        }
        center_pos = {
            atom.relation: atom.variables.index(center)
            for atom in query.atoms
        }

        # Residual bit sizes M_j(h) (arity-1 projections of h's tuples),
        # from one exact frequency scan per relation -- also when the
        # hitters themselves were only sampled.
        frequency = {
            relation: database[relation].degrees_of(zpos, heavy_sorted)
            for relation, zpos in center_pos.items()
        }
        bits_per_hitter: dict[int, dict[str, float]] = {}
        for slot, h in enumerate(heavy_sorted):
            per_rel = {
                relation: counts[slot] * stats.value_bits
                for relation, counts in frequency.items()
            }
            if all(v > 0 for v in per_rel.values()):
                bits_per_hitter[h] = per_rel
        allocation = _heavy_allocation(
            query.relation_names, bits_per_hitter, p
        )

        # ---- Light block: vanilla HyperCube with all shares on z. ------
        dims = query.variables  # (z, x_1, ..., x_l) in head order
        light_shares = tuple(p if v == center else 1 for v in dims)
        blocks = [
            Block(
                query=query,
                inputs=tuple(
                    BlockInput(
                        atom.relation,
                        atom.variables,
                        (database[atom.relation],),
                        exclude=((center_pos[atom.relation], heavy_sorted),),
                    )
                    for atom in query.atoms
                ),
                shares=light_shares,
                family_seed=seed,
                # The light grid is 1-D on the center axis, so
                # speed-proportional weighting is exact there.  The
                # per-hitter blocks below stay unweighted: their servers
                # are the modular extension past p, with no per-block
                # speed structure to exploit.
                weights=grid_dimension_weights(light_shares, settings.machines),
            )
        ]

        # ---- Heavy part: one residual-query block per hitter. ----------
        residual_query = ConjunctiveQuery(
            tuple(
                Atom(atom.relation, (leg_of[atom.relation],))
                for atom in query.atoms
            ),
            name="residual",
        )
        # One two-column scan per relation lists its distinct (z, leg)
        # pairs in sorted order; a hitter's residual fragment is its run.
        pairs = {}
        if bits_per_hitter:
            pairs = {
                relation: database[relation].key_counts((zpos, 1 - zpos))[0]
                for relation, zpos in center_pos.items()
            }
        base = p
        for h in sorted(bits_per_hitter):
            p_h = allocation[h]
            legs = {}
            for relation, keys in pairs.items():
                lo, hi = np.searchsorted(keys[:, 0], (h, h + 1))
                legs[relation] = keys[lo:hi, 1:2]
            if p_h >= 2:
                residual_stats = Statistics(
                    residual_query,
                    {relation: len(rows) for relation, rows in legs.items()},
                    database.domain_size,
                )
                exponents = share_exponents(
                    residual_query, residual_stats, p_h
                ).exponents
                shares = integerize_shares(exponents, p_h)
            else:
                shares = {v: 1 for v in residual_query.variables}
            blocks.append(
                Block(
                    query=residual_query,
                    inputs=tuple(
                        BlockInput(
                            atom.relation, atom.variables, (legs[atom.relation],)
                        )
                        for atom in residual_query.atoms
                    ),
                    shares=tuple(shares[v] for v in residual_query.variables),
                    family_seed=seed * 7919 + h + 1,
                    base=base,
                    # Residual answers bind the legs; the hitter is the
                    # center's constant.
                    head=tuple(h if v == center else v for v in dims),
                )
            )
            base += p_h

    return one_round(
        query, "skew-star", blocks, p + sum(allocation.values()),
        stats.value_bits, settings, storage, timer,
        {"heavy_hitters": heavy_sorted},
    )


def star_skew_load_bound(
    query: ConjunctiveQuery, database: Database, p: int
) -> float:
    """Eq. (20) plus the light term, in bits.

    ``max(max_j M_j/p, max_I (sum_h prod_{j in I} M_j(h) / p)^{1/|I|})``
    where ``h`` ranges over the detected heavy hitters.
    """
    center = star_center(query)
    stats = database.statistics(query)
    hitters = HitterStatistics.from_database(query, database, center, 1.0, p)
    return star_skew_load_bound_from_stats(query, stats, hitters, p)


def star_skew_load_bound_from_stats(
    query: ConjunctiveQuery,
    stats: Statistics,
    hitters: HitterStatistics,
    p: int,
) -> float:
    """Eq. (20) evaluated from statistics alone (no database access).

    Needs only the cardinalities ``M_j`` and the center-variable
    frequency vectors ``M_j(h)`` of :class:`HitterStatistics` --
    exactly the information the paper assumes every server knows in
    advance.  The planner's estimator
    (:func:`repro.planner.cost.star_cost`) prices the same terms under
    its sum-form server convention, so the two deliberately differ in
    per-term constants; this max-form bound matches the paper's
    statement verbatim.
    """
    bound = max(stats.bits(r) / p for r in query.relation_names)
    relations = query.relation_names
    heavy = hitters.hitters
    for size in range(1, len(relations) + 1):
        for subset in itertools.combinations(relations, size):
            total = 0.0
            for h in heavy:
                product = 1.0
                for r in subset:
                    product *= hitters.frequency(r, h) * 2 * stats.value_bits
                total += product
            if total > 0:
                bound = max(bound, (total / p) ** (1.0 / size))
    return bound
