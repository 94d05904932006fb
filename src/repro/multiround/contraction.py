"""Instance-level contraction (the constructive half of Lemma 5.12).

The multi-round lower bound works by *contracting* matching database
instances: fix an eps-good survivor set ``M`` and an instance ``i_G``
of the contracted-away atoms ``G = atoms(q) \\ M``; then a variable
permutation ``m_sigma`` (built by walking the tree-like components of
``G``) maps ``i_G`` to identity matchings, and

.. math::  m_\\sigma(q(i)) = q(m_\\sigma(i)), \\qquad
           q|M(i_M) = m_\\sigma^{-1}(\\Pi_{vars(q|M)}(q(m_\\sigma(i_M), id_G)))

so an algorithm for ``q`` yields one for the contracted query ``q|M``
on one fewer effective round.  This module implements the construction
executably: :func:`contraction_permutation` builds ``m_sigma`` from a
matching instance of ``G``, and :func:`contract_instance` produces the
contracted query together with the instance on which it must be
evaluated.  Property tests verify the displayed identities -- the paper
machinery, run on real data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.query import ConjunctiveQuery
from repro.data.arrays import unique_rows
from repro.data.database import Database
from repro.data.relation import Relation
from repro.join.vectorized import evaluate_arrays
from repro.multiround.good_sets import contract_to_survivors


@dataclass(frozen=True)
class ContractionMap:
    """Per-variable value permutations ``sigma_x`` (Lemma 5.12's m_sigma).

    ``sigma[x][a]`` rewrites value ``a`` of variable ``x``.  Variables
    untouched by the contracted component keep the identity (values
    absent from the map are fixed points).
    """

    sigma: dict[str, dict[int, int]]

    def apply_value(self, variable: str, value: int) -> int:
        return self.sigma.get(variable, {}).get(value, value)

    def apply_tuple(
        self, variables: Iterable[str], values: Iterable[int]
    ) -> tuple[int, ...]:
        return tuple(
            self.apply_value(v, a) for v, a in zip(variables, values)
        )

    def apply_answers(
        self, query: ConjunctiveQuery, answers: Iterable[tuple[int, ...]]
    ) -> set[tuple[int, ...]]:
        head = query.variables
        return {self.apply_tuple(head, t) for t in answers}

    def apply_rows(self, variables: Sequence[str], rows: np.ndarray) -> np.ndarray:
        """:meth:`apply_tuple` on every row of an ``(n, len(variables))`` array."""
        out = np.array(rows, dtype=np.int64)
        for position, variable in enumerate(variables):
            table = self.sigma.get(variable)
            if table:
                out[:, position] = [table.get(a, a) for a in out[:, position].tolist()]
        return out


def contraction_permutation(
    query: ConjunctiveQuery,
    database: Database,
    contracted: Iterable[str],
) -> ContractionMap:
    """Build ``m_sigma`` for the contracted atoms ``G``.

    Each connected component ``q_c`` of ``G`` is tree-like (chi = 0),
    so its instance joins to a matching ``q_c(i_G)``; choosing the
    representative variable ``z_c`` (the contraction representative),
    every variable ``x`` of the component gets
    ``sigma_x(a_x) = a_{z_c}`` along each join tuple.  Values not
    participating in any join tuple stay fixed.
    """
    g_names = list(contracted)
    g_query = query.subquery(g_names)
    if g_query.characteristic != 0:
        raise ValueError("contracted atoms must have characteristic 0")
    sigma: dict[str, dict[int, int]] = {}
    for component in g_query.connected_components():
        if component.num_atoms == 0:
            continue
        join = evaluate_arrays(component, database.arrays(component))
        if not len(join):
            continue  # no join tuple: every value stays a fixed point
        # The representative is the component's first head variable.
        targets = join[:, 0].tolist()
        for variable, values in zip(component.variables, join.T):
            sigma.setdefault(variable, {}).update(zip(values.tolist(), targets))
    return ContractionMap(sigma)


def apply_permutation(
    query: ConjunctiveQuery, database: Database, mapping: ContractionMap
) -> Database:
    """``m_sigma(i)``: rewrite every relation through the permutation."""
    relations = [
        Relation.from_array(
            atom.relation,
            mapping.apply_rows(atom.variables, database[atom.relation].to_array()),
        )
        for atom in query.atoms
    ]
    return Database(relations, database.domain_size)


def contract_instance(
    query: ConjunctiveQuery,
    database: Database,
    survivors: Iterable[str],
) -> tuple[ConjunctiveQuery, Database, ContractionMap]:
    """The contracted query ``q|M`` with its induced instance.

    Returns ``(q|M, i_M', m_sigma)`` where ``i_M'`` holds the surviving
    relations rewritten through ``m_sigma``; evaluating ``q|M`` on it
    gives exactly ``m_sigma`` applied to the projection of ``q(i)``
    (Lemma 5.12's contraction identity, checked in the tests).
    """
    keep = set(survivors)
    complement = [r for r in query.relation_names if r not in keep]
    mapping = contraction_permutation(query, database, complement)
    contracted_query = contract_to_survivors(query, keep)
    relations = [
        Relation.from_array(
            atom.relation,
            mapping.apply_rows(
                query.atom(atom.relation).variables,
                database[atom.relation].to_array(),
            ),
        )
        for atom in contracted_query.atoms
    ]
    return (
        contracted_query,
        Database(relations, database.domain_size),
        mapping,
    )


def contraction_identity_holds(
    query: ConjunctiveQuery,
    database: Database,
    survivors: Iterable[str],
) -> bool:
    """Check ``q|M(i') == Pi_{vars(q|M)}(m_sigma(q(i)))`` on an instance.

    The executable form of Lemma 5.12's contraction step; used by the
    property tests and the multi-round lower-bound bench.
    """
    keep = set(survivors)
    contracted_query, contracted_db, mapping = contract_instance(
        query, database, keep
    )
    left = evaluate_arrays(contracted_query, contracted_db.arrays(contracted_query))

    head = query.variables
    mapped = mapping.apply_rows(head, evaluate_arrays(query, database.arrays(query)))
    positions = [head.index(v) for v in contracted_query.variables]
    right = unique_rows(mapped[:, positions])
    return bool(np.array_equal(left, right))
