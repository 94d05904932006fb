"""Generic backtracking multiway join: the oracle for the array join.

Evaluates a full conjunctive query over relation fragments by binding
variables one at a time in a fixed *variable order*.  For the variable
under consideration, the candidate set is the intersection of the value
sets offered by every atom containing it (restricted to the atom's
already-bound variables via a prefix hash index).  This is the standard
generic-join scheme: obviously correct, and sharing no code with
:func:`repro.join.vectorized.evaluate_arrays` (the library's one local
join), so every parallel run and ``tests/join/test_vectorized.py`` are
checked against it.

Fragments are raw sets of tuples (or relations) keyed by relation name.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.core.query import Atom, ConjunctiveQuery
from repro.data.database import Database

TupleSet = set[tuple[int, ...]]


def join_order(query: ConjunctiveQuery) -> tuple[str, ...]:
    """A connectivity-aware variable order.

    Starts from the variable occurring in the most atoms and grows by
    BFS over the primal graph, so consecutive variables share atoms
    whenever the query is connected (avoiding accidental Cartesian
    explosion mid-join).  Disconnected queries order each component in
    turn.
    """
    remaining = list(query.variables)
    if not remaining:
        return ()
    adjacency = query.adjacency()
    frequency = {v: len(query.atoms_of(v)) for v in remaining}
    order: list[str] = []
    placed: set[str] = set()
    while len(order) < len(remaining):
        frontier = [
            v
            for v in remaining
            if v not in placed and any(w in placed for w in adjacency[v])
        ]
        if not frontier:
            frontier = [v for v in remaining if v not in placed]
        best = max(frontier, key=lambda v: (frequency[v], -remaining.index(v)))
        order.append(best)
        placed.add(best)
    return tuple(order)


def _atom_tuple_bindings(
    atom: Atom, tuples: Iterable[tuple[int, ...]]
) -> list[dict[str, int]]:
    """Variable bindings of each tuple, dropping inconsistent repeats."""
    bindings = []
    for t in tuples:
        binding: dict[str, int] = {}
        consistent = True
        for variable, value in zip(atom.variables, t):
            if binding.setdefault(variable, value) != value:
                consistent = False
                break
        if consistent:
            bindings.append(binding)
    return bindings


class _AtomIndex:
    """Prefix indexes of one atom for a fixed variable order."""

    def __init__(self, atom: Atom, tuples: Iterable[tuple[int, ...]], order: Sequence[str]):
        self.atom = atom
        position = {v: i for i, v in enumerate(order)}
        self.ordered_vars = sorted(atom.variable_set, key=lambda v: position[v])
        bindings = _atom_tuple_bindings(atom, tuples)
        # For the variable at index d of ordered_vars: map from the
        # values of ordered_vars[:d] to the possible values of the next.
        self.levels: list[dict[tuple[int, ...], set[int]]] = []
        for depth, variable in enumerate(self.ordered_vars):
            level: dict[tuple[int, ...], set[int]] = {}
            prefix_vars = self.ordered_vars[:depth]
            for b in bindings:
                key = tuple(b[v] for v in prefix_vars)
                level.setdefault(key, set()).add(b[variable])
            self.levels.append(level)

    def candidates(
        self, variable: str, assignment: Mapping[str, int]
    ) -> set[int] | None:
        """Possible values of ``variable`` given bound earlier variables.

        Returns ``None`` when this atom does not constrain ``variable``
        at this point (it never occurs in the atom).
        """
        if variable not in self.atom.variable_set:
            return None
        depth = self.ordered_vars.index(variable)
        key = tuple(assignment[v] for v in self.ordered_vars[:depth])
        return self.levels[depth].get(key, set())


def evaluate_on_fragments(
    query: ConjunctiveQuery,
    fragments: Mapping[str, Iterable[tuple[int, ...]]],
    order: Sequence[str] | None = None,
) -> TupleSet:
    """Evaluate ``query`` over raw tuple sets keyed by relation name.

    The output tuples list values in ``query.variables`` order (the
    query head).  Missing relations are treated as empty.  Queries with
    isolated variables raise
    :class:`~repro.core.query.UnsupportedQueryError` (they are
    contraction residues, not executable queries).
    """
    query.require_executable()
    if query.num_atoms == 0:
        return {()}
    chosen = tuple(order) if order is not None else join_order(query)
    if set(chosen) != set(query.variables) or len(chosen) != query.num_variables:
        raise ValueError("order must be a permutation of the query variables")
    indexes = [
        _AtomIndex(atom, fragments.get(atom.relation, ()), chosen)
        for atom in query.atoms
    ]
    head = query.variables
    results: TupleSet = set()
    assignment: dict[str, int] = {}

    def recurse(depth: int) -> None:
        if depth == len(chosen):
            results.add(tuple(assignment[v] for v in head))
            return
        variable = chosen[depth]
        candidate_set: set[int] | None = None
        for index in indexes:
            cands = index.candidates(variable, assignment)
            if cands is None:
                continue
            if candidate_set is None:
                candidate_set = set(cands)
            else:
                candidate_set &= cands
            if not candidate_set:
                return
        if candidate_set is None:
            raise ValueError(
                f"variable {variable!r} occurs in no atom; query is not full"
            )
        for value in candidate_set:
            assignment[variable] = value
            recurse(depth + 1)
        del assignment[variable]

    recurse(0)
    return results


def evaluate(
    query: ConjunctiveQuery,
    database: Database,
    order: Sequence[str] | None = None,
) -> TupleSet:
    """Evaluate ``query`` over a :class:`Database` (single-node truth)."""
    database.validate_for(query)
    fragments = {
        atom.relation: database[atom.relation].tuples for atom in query.atoms
    }
    return evaluate_on_fragments(query, fragments, order)

