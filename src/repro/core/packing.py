"""Fractional edge packings, covers, and the packing polytope (Section 2.2).

A *fractional edge packing* of a query ``q`` assigns each atom ``S_j`` a
weight ``u_j >= 0`` with ``sum_{j : x_i in S_j} u_j <= 1`` for every
variable ``x_i`` (Eq. 2).  Its dual is the *fractional vertex cover*; at
optimality both equal the fractional vertex covering number ``tau*``.
Replacing ``<=`` with ``>=`` gives the *fractional edge cover*, whose
optimum is ``rho*`` (used by the AGM output bound).

Section 3.3 works with the extreme points ``pk(q)`` of the packing
polytope: the one-round load lower bound ``L_lower`` is a maximum of
``L(u, M, p)`` over these vertices, and Theorem 3.15 shows it coincides
with the HyperCube upper bound.  :func:`packing_polytope_vertices`
enumerates them exactly by solving the active-constraint linear systems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.core.lp import TOLERANCE, snap_vector, solve_lp
from repro.core.query import ConjunctiveQuery


@dataclass(frozen=True)
class PackingSolution:
    """An (optimal) weighting of atoms or variables with its total."""

    weights: dict[str, float]
    total: float


def _incidence(query: ConjunctiveQuery) -> tuple[np.ndarray, tuple[str, ...], tuple[str, ...]]:
    """0/1 matrix A with ``A[i, j] = 1`` iff variable ``i`` occurs in atom ``j``."""
    variables = query.variables
    relations = query.relation_names
    a = np.zeros((len(variables), len(relations)), dtype=float)
    var_index = {v: i for i, v in enumerate(variables)}
    for j, atom in enumerate(query.atoms):
        for v in atom.variable_set:
            a[var_index[v], j] = 1.0
    return a, variables, relations


def maximum_edge_packing(query: ConjunctiveQuery) -> PackingSolution:
    """An optimal fractional edge packing; its total is ``tau*(q)``."""
    a, _variables, relations = _incidence(query)
    if not relations:
        return PackingSolution({}, 0.0)
    sol = solve_lp(
        cost=[1.0] * len(relations),
        a_ub=a,
        b_ub=[1.0] * a.shape[0],
        maximize=True,
    )
    weights = dict(zip(relations, snap_vector(sol.x)))
    return PackingSolution(weights, sum(weights.values()))


def minimum_vertex_cover(
    query: ConjunctiveQuery, balanced: bool = True
) -> PackingSolution:
    """An optimal fractional vertex cover; its total is ``tau*(q)``.

    With ``balanced=True`` (the default) a secondary LP breaks ties
    among the optimal covers by minimizing the largest weight.  This
    picks the symmetric solution for symmetric queries -- e.g. all
    ``v_i = 1/2`` for even cycles -- which is the solution Table 2
    tabulates (share exponents ``e_i = v_i / tau*``).
    """
    a, variables, _relations = _incidence(query)
    if not variables:
        return PackingSolution({}, 0.0)
    k, ell = a.shape
    # Constraints: for each atom j, sum_{i in S_j} v_i >= 1  <=>  -A^T v <= -1.
    sol = solve_lp(
        cost=[1.0] * k,
        a_ub=-a.T,
        b_ub=[-1.0] * ell,
    )
    tau = sol.value
    if balanced:
        # Decision vector (v_1..v_k, t): minimize t subject to optimality
        # (sum v_i <= tau*), the cover constraints, and v_i <= t.
        a_ub = [[0.0] * k + [0.0]]
        a_ub[0][:k] = [1.0] * k
        b_ub = [tau + 1e-9]
        for j in range(ell):
            a_ub.append(list(-a.T[j]) + [0.0])
            b_ub.append(-1.0)
        for i in range(k):
            row = [0.0] * (k + 1)
            row[i] = 1.0
            row[k] = -1.0
            a_ub.append(row)
            b_ub.append(0.0)
        sol2 = solve_lp([0.0] * k + [1.0], a_ub=a_ub, b_ub=b_ub)
        weights = dict(zip(variables, snap_vector(sol2.x[:k])))
    else:
        weights = dict(zip(variables, snap_vector(sol.x)))
    return PackingSolution(weights, sum(weights.values()))


def minimum_edge_cover(query: ConjunctiveQuery) -> PackingSolution:
    """An optimal fractional edge cover; its total is ``rho*(q)``.

    Requires every variable to occur in some atom (always true for
    queries without isolated variables).
    """
    if query.isolated_variables:
        raise ValueError("edge cover undefined with isolated variables")
    a, _variables, relations = _incidence(query)
    sol = solve_lp(
        cost=[1.0] * len(relations),
        a_ub=-a,
        b_ub=[-1.0] * a.shape[0],
    )
    weights = dict(zip(relations, snap_vector(sol.x)))
    return PackingSolution(weights, sum(weights.values()))


def fractional_vertex_cover_number(query: ConjunctiveQuery) -> float:
    """``tau*(q)``: the optimal packing/vertex-cover value."""
    return maximum_edge_packing(query).total


def fractional_edge_cover_number(query: ConjunctiveQuery) -> float:
    """``rho*(q)``: the optimal fractional edge cover value."""
    return minimum_edge_cover(query).total


def is_edge_packing(
    query: ConjunctiveQuery, weights: dict[str, float], tolerance: float = TOLERANCE
) -> bool:
    """Check feasibility of ``u`` for the packing constraints (Eq. 2)."""
    if any(weights.get(r, 0.0) < -tolerance for r in query.relation_names):
        return False
    for variable in query.variables:
        load = sum(
            weights.get(a.relation, 0.0) for a in query.atoms_of(variable)
        )
        if load > 1.0 + tolerance:
            return False
    return True


def is_edge_cover(
    query: ConjunctiveQuery, weights: dict[str, float], tolerance: float = TOLERANCE
) -> bool:
    """Check feasibility of ``u`` for the edge-cover constraints."""
    if any(weights.get(r, 0.0) < -tolerance for r in query.relation_names):
        return False
    for variable in query.variables:
        if variable in query.isolated_variables:
            continue
        load = sum(
            weights.get(a.relation, 0.0) for a in query.atoms_of(variable)
        )
        if load < 1.0 - tolerance:
            return False
    return True


def is_tight(
    query: ConjunctiveQuery, weights: dict[str, float], tolerance: float = TOLERANCE
) -> bool:
    """A solution is *tight* when every variable constraint holds with equality.

    Tight fractional edge packings coincide with tight fractional edge
    covers (Section 2.2).
    """
    for variable in query.variables:
        load = sum(
            weights.get(a.relation, 0.0) for a in query.atoms_of(variable)
        )
        if abs(load - 1.0) > tolerance:
            return False
    return True


def saturates(
    query: ConjunctiveQuery,
    weights: dict[str, float],
    variables: set[str] | frozenset[str],
    tolerance: float = TOLERANCE,
) -> bool:
    """Does the packing saturate every variable in ``variables``?

    Section 4.2.3: ``u`` saturates ``x_i`` when
    ``sum_{j : x_i in vars(S_j)} u_j >= 1``.
    """
    for variable in variables:
        load = sum(
            weights.get(a.relation, 0.0) for a in query.atoms_of(variable)
        )
        if load < 1.0 - tolerance:
            return False
    return True


def slack(query: ConjunctiveQuery, weights: dict[str, float]) -> dict[str, float]:
    """Per-variable slack ``1 - sum_{j: x_i in S_j} u_j`` of a packing.

    The slacks are the weights ``u'_i`` given to the fresh unary atoms
    ``T_i(x_i)`` in the extended query of Lemma 3.13.
    """
    out: dict[str, float] = {}
    for variable in query.variables:
        load = sum(
            weights.get(a.relation, 0.0) for a in query.atoms_of(variable)
        )
        out[variable] = 1.0 - load
    return out


def extended_query(
    query: ConjunctiveQuery, packing: dict[str, float], prefix: str = "T_"
) -> tuple[ConjunctiveQuery, dict[str, float]]:
    """Lemma 3.13's extended query and weights.

    Adds a fresh unary atom ``T_i(x_i)`` per variable with weight
    ``u'_i = 1 - sum_{j: x_i in S_j} u_j`` (the packing's slack).  The
    combined assignment ``(u, u')`` is simultaneously a *tight*
    fractional edge packing and a tight fractional edge cover of the
    extended query, and ``sum_j a_j u_j + sum_i u'_i = k`` -- the
    identities the one-round lower-bound proof rests on.
    """
    if not is_edge_packing(query, packing):
        raise ValueError("weights must form a fractional edge packing")
    from repro.core.query import Atom  # local import to avoid cycle noise

    slacks = slack(query, packing)
    atoms = list(query.atoms)
    weights = dict(packing)
    for variable in query.variables:
        name = f"{prefix}{variable}"
        if name in set(query.relation_names):
            raise ValueError(f"relation name collision on {name!r}")
        atoms.append(Atom(name, (variable,)))
        weights[name] = slacks[variable]
    extended = ConjunctiveQuery(tuple(atoms), name=f"{query.name or 'q'}+")
    return extended, weights


def packing_polytope_vertices(
    query: ConjunctiveQuery, max_atoms: int = 16
) -> tuple[dict[str, float], ...]:
    """All extreme points ``pk(q)`` of the edge-packing polytope.

    Enumerates every choice of ``l`` active constraints among the ``k``
    variable constraints and ``l`` non-negativity constraints, solves
    the resulting square system and keeps feasible, distinct solutions
    (Section 3.3: each vertex arises this way).  The all-zero vertex is
    always included.  Exponential in ``l``; guarded by ``max_atoms``.
    The planner never calls this: its one-round floor is LP (10)'s
    optimum by Theorem 3.15
    (:func:`repro.planner.cost.one_round_floor`), so ``max_atoms`` only
    limits the vertex-form bounds of :mod:`repro.bounds` and
    :mod:`repro.skew.bounds`.
    """
    relations = query.relation_names
    num_atoms = len(relations)
    if num_atoms > max_atoms:
        raise ValueError(
            f"refusing vertex enumeration for {num_atoms} atoms (> {max_atoms})"
        )
    a, _variables, _ = _incidence(query)
    num_vars = a.shape[0]

    rows: list[np.ndarray] = [a[i] for i in range(num_vars)]
    rows += [np.eye(num_atoms)[j] for j in range(num_atoms)]
    rhs = np.array([1.0] * num_vars + [0.0] * num_atoms)

    seen: set[tuple[float, ...]] = set()
    vertices: list[dict[str, float]] = []
    for active in itertools.combinations(range(num_vars + num_atoms), num_atoms):
        system = np.array([rows[i] for i in active])
        target = np.array([rhs[i] for i in active])
        if abs(np.linalg.det(system)) < 1e-12:
            continue
        u = np.linalg.solve(system, target)
        if (u < -1e-9).any():
            continue
        if (a @ u > 1.0 + 1e-9).any():
            continue
        u = np.asarray(snap_vector(u))
        key = tuple(round(float(x), 9) for x in u)
        if key in seen:
            continue
        seen.add(key)
        vertices.append(dict(zip(relations, (float(x) for x in u))))
    vertices.sort(key=lambda w: tuple(-w[r] for r in relations))
    return tuple(vertices)
