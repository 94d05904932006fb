"""The skew-aware triangle algorithm (paper Section 4.2.2).

Computes ``C3 = S1(x1,x2), S2(x2,x3), S3(x3,x1)`` in one round under
arbitrary skew, by partitioning the *output* triangles according to how
many heavy values they contain:

* **Light** (every value has frequency below ``m/p^{1/3}``): vanilla
  HyperCube with shares ``p^{1/3}`` per variable -- load
  ``O~(M/p^{2/3})``.
* **Case 1** (at least two values with frequency >= ``m/p``): for each
  variable pair, broadcast the (at most ``p^2``) doubly-heavy tuples of
  their shared relation and hash join the other two relations on the
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
from typing import Mapping

import numpy as np

from repro.config import ExecutionSettings
from repro.core.families import triangle_query
from repro.core.query import Atom, ConjunctiveQuery
from repro.core.shares import integerize_shares
from repro.core.stats import Statistics
from repro.data.database import Database
from repro.hashing.family import grid_dimension_weights
from repro.hypercube.blocks import Block, BlockInput, one_round
from repro.mpc.timing import PhaseTimer
from repro.run import RunResult
from repro.skew.heavy_hitters import HitterStatistics, variable_frequencies
from repro.storage.manager import StorageManager


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


def triangle_core(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    *,
    seed: int,
    settings: ExecutionSettings,
    storage: StorageManager | None,
    hitters: Mapping[str, HitterStatistics] | None = None,
) -> RunResult:
    """The triangle core: light, three case-1 and per-hitter case-2 blocks.

    The light block runs on ``[0, p)``; the three case-1 blocks hash the
    whole triangle on the third variable, so the doubly-heavy tuples of
    the direct relation are replicated to all ``p`` servers; each
    case-2 hitter gets one ``R'(y), S(y,z), T'(z)`` block.

    ``hitters`` accepts per-variable :class:`HitterStatistics` collected
    at the exact ``m_j / p`` threshold (the planner's
    :class:`~repro.planner.statistics.DataStatistics` holds exactly this
    map), skipping the three frequency scans here.  With exact
    statistics the run is identical to scanning in place: every value
    the scans would classify heavy sits above some relation's
    ``m_j / p`` threshold and therefore appears in the statistics with
    its exact max-frequency, and every absent value is light under
    every comparison the algorithm makes.

    ``details["heavy1"]`` / ``details["heavy2"]`` hold the per-variable
    hitter sets at the two thresholds.  ``settings`` arrives already
    resolved; the Section 4.2.2 bound is
    :func:`triangle_skew_load_bound`, and a session reports the
    planner's estimate of it.
    """
    timer = PhaseTimer()
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

        heavy1 = {
            v: {val for val, c in freq[v].items() if c >= threshold1}
            for v in query.variables
        }
        heavy2 = {
            v: {val for val, c in freq[v].items() if c >= threshold2}
            for v in query.variables
        }
        # ------------- Light block: vanilla HC on [0, p). ---------------
        dims = query.variables
        light_shares = integerize_shares({v: 1.0 / 3.0 for v in dims}, p)
        light_share_list = tuple(light_shares[v] for v in dims)
        blocks = [
            Block(
                query=query,
                inputs=tuple(
                    BlockInput(
                        atom.relation,
                        atom.variables,
                        (database[atom.relation],),
                        exclude=tuple(
                            (position, tuple(sorted(heavy2[variable])))
                            for position, variable in enumerate(atom.variables)
                        ),
                    )
                    for atom in query.atoms
                ),
                shares=light_share_list,
                family_seed=seed,
                # Speed-proportional marginals over the share cube; the
                # case-1/case-2 blocks stay unweighted (their servers
                # are the modular extension past p, chosen by
                # heavy-hitter structure).
                weights=grid_dimension_weights(
                    light_share_list, settings.machines
                ),
            )
        ]
        # The three case-1 ranges are reserved even when nothing is heavy.
        total_servers = 4 * p
        if any(heavy1.values()):
            heavy_blocks, total_servers = _heavy_blocks(
                query, database, p, seed, heavy1, heavy2
            )
            blocks += heavy_blocks

    return one_round(
        query, "skew-triangle", blocks, total_servers, stats.value_bits,
        settings, storage, timer, {"heavy1": heavy1, "heavy2": heavy2},
    )


def _heavy_blocks(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    seed: int,
    heavy1: Mapping[str, set[int]],
    heavy2: Mapping[str, set[int]],
) -> tuple[list[Block], int]:
    """The case-1 and case-2 blocks, and the servers the run spans.

    Case-1 block ``i`` owns ``[p(1+i), p(2+i))``; case-2 blocks follow
    from ``4p``, each on the range its allocation sizes (the ``[gy, gz]``
    grid may leave the tail of it idle).
    """
    dims = query.variables
    heavy1_sorted = {v: tuple(sorted(heavy1[v])) for v in dims}
    # Every relation's distinct rows in sorted order (chunk-wise for
    # spilled relations); the blocks' inputs are masks of them.
    rows = {r: database[r].key_counts((0, 1))[0] for r in query.relation_names}

    def is_heavy(relation: str, variable: str) -> np.ndarray:
        """Rows of ``relation`` whose ``variable`` is case-1 heavy."""
        position = query.atom(relation).variables.index(variable)
        return np.isin(rows[relation][:, position], heavy1_sorted[variable])

    # ------------- Case-1 blocks: one per variable pair. ----------------
    # All p servers of a block hash on the third variable; the direct
    # relation does not mention it, so its doubly-heavy tuples are
    # replicated along it -- the paper's broadcast.
    blocks = []
    for index, (va, vb, rel_ab, rel_bc, rel_ca) in enumerate(_PAIRS):
        cuts = (
            (rel_ab, is_heavy(rel_ab, va) & is_heavy(rel_ab, vb)),
            (rel_bc, is_heavy(rel_bc, vb)),
            (rel_ca, is_heavy(rel_ca, va)),
        )
        blocks.append(
            Block(
                query=query,
                inputs=tuple(
                    BlockInput(
                        relation,
                        query.atom(relation).variables,
                        (rows[relation][mask],),
                    )
                    for relation, mask in cuts
                ),
                shares=tuple(1 if v in (va, vb) else p for v in dims),
                family_seed=seed * 31 + index + 1,
                base=p * (1 + index),
            )
        )

    # ------------- Case-2 blocks: one [gy, gz] grid per hitter. ---------
    # Hitter h of x: R'(y) and T'(z) are h's case-1-light neighbours,
    # S(y, z) the case-1-light middle relation.
    case2 = []
    for variable in dims:
        succ_rel, pred_rel, mid_rel = _STRUCTURE[variable]
        succ_var, pred_var = query.atom(mid_rel).variables
        for h in sorted(heavy2[variable]):
            r_side = rows[succ_rel][
                (rows[succ_rel][:, 0] == h) & ~is_heavy(succ_rel, succ_var)
            ][:, 1:2]
            t_side = rows[pred_rel][
                (rows[pred_rel][:, 1] == h) & ~is_heavy(pred_rel, pred_var)
            ][:, 0:1]
            if len(r_side) and len(t_side):
                case2.append((variable, h, r_side, t_side))
    total_weight = sum(len(r) * len(t) for _, _, r, t in case2)
    base_block = math.ceil(p ** (2.0 / 3.0))
    base = 4 * p
    for block_index, (variable, h, r_side, t_side) in enumerate(case2):
        size = max(
            base_block,
            math.ceil(p * len(r_side) * len(t_side) / total_weight),
        )
        succ_rel, pred_rel, mid_rel = _STRUCTURE[variable]
        mid_atom = query.atom(mid_rel)
        succ_var, pred_var = mid_atom.variables
        gy = int(round(math.sqrt(size * len(r_side) / len(t_side))))
        gy = min(max(1, gy), size)
        blocks.append(
            Block(
                query=ConjunctiveQuery(
                    (
                        Atom(succ_rel, (succ_var,)),
                        Atom(pred_rel, (pred_var,)),
                        mid_atom,
                    ),
                    name="residual",
                ),
                inputs=(
                    BlockInput(succ_rel, (succ_var,), (r_side,)),
                    BlockInput(pred_rel, (pred_var,), (t_side,)),
                    BlockInput(
                        mid_rel,
                        mid_atom.variables,
                        (database[mid_rel],),
                        exclude=(
                            (0, heavy1_sorted[succ_var]),
                            (1, heavy1_sorted[pred_var]),
                        ),
                    ),
                ),
                shares=(gy, max(1, size // gy)),
                family_seed=seed * 101 + block_index + 1,
                base=base,
                head=tuple(h if v == variable else v for v in dims),
            )
        )
        base += size
    return blocks, base


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
