"""Predicted HyperCube loads (Corollaries 3.3 and 4.3).

For integer shares ``p_i`` the paper predicts per-server loads

* without skew (Corollary 3.3, needs the degree promise
  ``d_J(S_j) <= beta^{|U|} m_j / prod_{i in U} p_i``):
  ``O(max_j M_j / prod_{i in S_j} p_i)``;
* with arbitrary skew (Corollary 4.3):
  ``O(max_j M_j / min_{i in S_j} p_i)``.

``tests/paper/test_sec3_1_shares.py`` checks that the integer shares'
predicted load stays within a constant of LP (10)'s optimum.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.query import ConjunctiveQuery
from repro.core.stats import Statistics


def _share_product(atom_variables: frozenset[str], shares: Mapping[str, int]) -> int:
    product = 1
    for v in atom_variables:
        product *= shares.get(v, 1)
    return product


def predicted_load_tuples(
    query: ConjunctiveQuery, stats: Statistics, shares: Mapping[str, int]
) -> float:
    """Corollary 3.3's per-relation tuple load ``max_j m_j / prod p_i``."""
    return max(
        stats.tuples(atom.relation) / _share_product(atom.variable_set, shares)
        for atom in query.atoms
    )


def predicted_load_bits(
    query: ConjunctiveQuery, stats: Statistics, shares: Mapping[str, int]
) -> float:
    """Corollary 3.3 in bits: ``max_j M_j / prod_{i in S_j} p_i``."""
    return max(
        stats.bits(atom.relation) / _share_product(atom.variable_set, shares)
        for atom in query.atoms
    )


def predicted_load_bits_with_frequencies(
    query: ConjunctiveQuery,
    stats: Statistics,
    shares: Mapping[str, int],
    frequencies: Mapping[str, Mapping[str, Mapping[int, int]]],
) -> float:
    """Corollary 3.3 plus the data-dependent hotspot term, in bits.

    ``frequencies[variable][relation][value]`` holds known heavy-hitter
    frequencies ``m_j(h)`` (the paper's x-statistics, Section 4.2).
    Every tuple of ``S_j`` carrying value ``h`` on variable ``x`` hashes
    to the same grid coordinate on the ``x`` axis, so those tuples
    spread over only ``prod_{i in S_j} p_i / p_x`` servers: the
    per-relation load is at least ``m_j(h) * p_x / prod_{i in S_j} p_i``
    tuples.  Interpolating between this and the skew-free Corollary 3.3
    term recovers Corollary 4.3's worst case when a single value carries
    the whole relation.

    Unlike the big-O statements (which quote ``max_j``), the per-atom
    terms are *summed*: a server receives its fragment of every
    relation, so the sum is what a measured
    :class:`~repro.mpc.report.LoadReport` maximum tracks.  The two
    forms differ by at most the factor ``l``.
    """
    load = 0.0
    for atom in query.atoms:
        product = _share_product(atom.variable_set, shares)
        tuple_load = stats.tuples(atom.relation) / product
        for v in atom.variable_set:
            per_relation = frequencies.get(v, {}).get(atom.relation, {})
            if not per_relation:
                continue
            hottest = max(per_relation.values())
            tuple_load = max(tuple_load, hottest * shares.get(v, 1) / product)
        load += tuple_load * stats.bits_per_tuple(atom.relation)
    return load


def predicted_load_bits_skewed(
    query: ConjunctiveQuery, stats: Statistics, shares: Mapping[str, int]
) -> float:
    """Corollary 4.3 in bits: ``max_j M_j / min_{i in S_j} p_i``."""
    return max(
        stats.bits(atom.relation)
        / min(shares.get(v, 1) for v in atom.variable_set)
        for atom in query.atoms
    )


def predicted_server_loads_bits(
    query: ConjunctiveQuery,
    stats: Statistics,
    shares: Mapping[str, int],
    machines: object | None = None,
    frequencies: Mapping[str, Mapping[str, Mapping[int, int]]] | None = None,
) -> list[float]:
    """Per-server predicted load for a (possibly weighted) share grid.

    Server ``s`` occupies one cell of the row-major grid over
    ``query.variables``; its expected fraction of relation ``S_j`` is
    the product of its cell's per-dimension routing weights
    (:func:`repro.hashing.family.grid_dimension_weights` for a
    heterogeneous ``machines`` spec; ``1 / p_i`` on a uniform one).
    The data-dependent hotspot term of
    :func:`predicted_load_bits_with_frequencies` is applied per server:
    a heavy value pins its tuples to one coordinate of the skewed
    variable's axis, so the per-server hotspot load drops only the
    skewed dimension's weight factor.  Under unit speeds and uniform
    weights every entry equals the
    :func:`predicted_load_bits_with_frequencies` value exactly.

    Servers past the grid (``p > num_bins``) are not listed -- they
    receive nothing.
    """
    from repro.hashing.family import grid_dimension_weights

    frequencies = frequencies or {}
    variables = list(query.variables)
    share_list = [shares.get(v, 1) for v in variables]
    weights = grid_dimension_weights(share_list, machines)
    # Per-dimension weight vectors, uniform dims filled in explicitly.
    dim_weights: list[list[float]] = []
    for i, share in enumerate(share_list):
        w = None if weights is None else weights[i]
        dim_weights.append(
            [1.0 / share] * share if w is None else list(w)
        )
    strides = [1] * len(share_list)
    for i in range(len(share_list) - 2, -1, -1):
        strides[i] = strides[i + 1] * share_list[i + 1]
    num_bins = 1
    for share in share_list:
        num_bins *= share
    var_index = {v: i for i, v in enumerate(variables)}

    loads = []
    for server in range(num_bins):
        cell = [
            (server // strides[i]) % share_list[i]
            for i in range(len(share_list))
        ]
        load = 0.0
        for atom in query.atoms:
            fraction = 1.0
            for v in atom.variable_set:
                i = var_index[v]
                fraction *= dim_weights[i][cell[i]]
            tuple_load = stats.tuples(atom.relation) * fraction
            for v in atom.variable_set:
                per_relation = frequencies.get(v, {}).get(atom.relation, {})
                if not per_relation:
                    continue
                hottest = max(per_relation.values())
                i = var_index[v]
                off_axis = fraction / dim_weights[i][cell[i]]
                tuple_load = max(tuple_load, hottest * off_axis)
            load += tuple_load * stats.bits_per_tuple(atom.relation)
        loads.append(load)
    return loads


def predicted_makespan_bits(
    query: ConjunctiveQuery,
    stats: Statistics,
    shares: Mapping[str, int],
    machines: object | None = None,
    frequencies: Mapping[str, Mapping[str, Mapping[int, int]]] | None = None,
) -> float:
    """``max_s load_s / v_s``: the heterogeneous-cluster objective.

    The quantity the planner minimizes on a cluster with per-server
    speeds (arXiv 2501.08896): predicted per-server load
    (:func:`predicted_server_loads_bits`, with speed-weighted routing
    when ``machines`` is non-uniform) normalized by each server's
    speed.  With ``machines=None`` (or a uniform unit-speed spec) this
    equals :func:`predicted_load_bits_with_frequencies` exactly.
    """
    loads = predicted_server_loads_bits(
        query, stats, shares, machines, frequencies
    )
    if machines is None:
        return max(loads, default=0.0)
    return max(
        (load / machines.speed(s) for s, load in enumerate(loads)),
        default=0.0,
    )


def total_replication(
    query: ConjunctiveQuery, stats: Statistics, shares: Mapping[str, int]
) -> float:
    """Expected total communicated bits: each ``S_j`` tuple is sent to
    ``prod_{i not in S_j} p_i`` servers."""
    all_product = 1
    for v in query.variables:
        all_product *= shares.get(v, 1)
    total = 0.0
    for atom in query.atoms:
        replication = all_product / _share_product(atom.variable_set, shares)
        total += stats.bits(atom.relation) * replication
    return total
