"""Full conjunctive queries and their hypergraph structure (paper Section 2.2).

The paper studies *full conjunctive queries without self-joins*

.. math::  q(x_1, \\ldots, x_k) = S_1(\\bar x_1), \\ldots, S_\\ell(\\bar x_\\ell)

A query is *full* when every body variable appears in the head, and
*self-join free* when every relation symbol occurs in exactly one atom.
Both restrictions are enforced by :class:`ConjunctiveQuery` (fullness is
automatic because we define the head to be all variables).

The module implements the structural notions the paper's bounds are
phrased in:

* the query hypergraph (one node per variable, one hyperedge per atom),
* connected components and connectivity,
* the *characteristic* :math:`\\chi(q) = a - k - \\ell + c` (Section 2.2)
  together with the contraction operation :math:`q/M` of Lemma 2.1,
* tree-likeness (Definition 2.2: connected and :math:`\\chi(q) = 0`),
* radius and diameter of the hypergraph (Section 5.1 / 5.3).

Contraction can merge an entire connected component into a single
vertex that is no longer covered by any remaining atom.  Such merged
vertices are retained as *isolated variables* so that the identity
:math:`\\chi(q/M) = \\chi(q) - \\chi(M)` (Lemma 2.1(b)) holds exactly; they
count as variables and as singleton connected components.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping


class UnsupportedQueryError(ValueError):
    """The query keeps isolated variables, which no join plan can bind.

    Isolated variables are contraction residues, not executable
    queries: :func:`repro.run.dispatch_run` raises this before the
    first round, and every local join evaluator raises it too.
    """


@dataclass(frozen=True)
class Atom:
    """A relational atom ``S(x, y, ...)``.

    ``relation`` is the relation symbol (unique per query, since queries
    are self-join free) and ``variables`` the argument list.  Repeated
    variables inside one atom are permitted; they arise naturally from
    contraction (e.g. contracting ``x2`` into ``x1`` in ``S(x1, x2)``
    yields ``S(x1, x1)``).  The *arity* counts positions, the *variable
    set* counts distinct variables.
    """

    relation: str
    variables: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.relation:
            raise ValueError("atom needs a non-empty relation name")
        if not self.variables:
            raise ValueError(f"atom {self.relation} needs at least one variable")
        if not isinstance(self.variables, tuple):
            object.__setattr__(self, "variables", tuple(self.variables))

    @property
    def arity(self) -> int:
        """Number of argument positions ``a_j``."""
        return len(self.variables)

    @property
    def variable_set(self) -> frozenset[str]:
        """``vars(S_j)``: the distinct variables of the atom."""
        return frozenset(self.variables)

    def rename(self, mapping: Mapping[str, str]) -> "Atom":
        """Return a copy with variables substituted through ``mapping``."""
        return Atom(self.relation, tuple(mapping.get(v, v) for v in self.variables))

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(self.variables)})"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A full conjunctive query without self-joins.

    Parameters
    ----------
    atoms:
        The body atoms.  Relation names must be pairwise distinct
        (self-join freeness); violating this raises ``ValueError``.
    name:
        Optional display name (``"C3"``, ``"L5"``, ...).
    isolated_variables:
        Variables not covered by any atom.  Ordinary queries never have
        these; they appear only as the residue of contracting a whole
        connected component (see module docstring).
    """

    atoms: tuple[Atom, ...]
    name: str = ""
    isolated_variables: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not isinstance(self.atoms, tuple):
            object.__setattr__(self, "atoms", tuple(self.atoms))
        if not isinstance(self.isolated_variables, frozenset):
            object.__setattr__(
                self, "isolated_variables", frozenset(self.isolated_variables)
            )
        names = [a.relation for a in self.atoms]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(
                f"self-joins are not supported (duplicate relations: {dupes}); "
                "rename repeated occurrences apart (paper Section 2.2, fn. 2)"
            )
        covered = {v for a in self.atoms for v in a.variables}
        overlap = covered & self.isolated_variables
        if overlap:
            raise ValueError(
                f"isolated variables {sorted(overlap)} also occur in atoms"
            )

    def require_executable(self) -> None:
        """Raise :class:`UnsupportedQueryError` for isolated variables."""
        if self.isolated_variables:
            raise UnsupportedQueryError(
                f"cannot evaluate a query with isolated variables "
                f"{sorted(self.isolated_variables)}: no join plan binds them"
            )

    # ----------------------------------------------------------------- basics

    @property
    def variables(self) -> tuple[str, ...]:
        """All variables in first-occurrence order (isolated ones last)."""
        seen: dict[str, None] = {}
        for atom in self.atoms:
            for v in atom.variables:
                seen.setdefault(v, None)
        for v in sorted(self.isolated_variables):
            seen.setdefault(v, None)
        return tuple(seen)

    @property
    def num_variables(self) -> int:
        """``k``: number of distinct variables."""
        return len(self.variables)

    @property
    def num_atoms(self) -> int:
        """``l``: number of atoms."""
        return len(self.atoms)

    @property
    def total_arity(self) -> int:
        """``a = sum_j a_j``: total arity over all atoms."""
        return sum(a.arity for a in self.atoms)

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(a.relation for a in self.atoms)

    def atom(self, relation: str) -> Atom:
        """Look up the unique atom with the given relation name."""
        for a in self.atoms:
            if a.relation == relation:
                return a
        raise KeyError(f"no atom with relation {relation!r} in {self}")

    def atoms_of(self, variable: str) -> tuple[Atom, ...]:
        """``atoms(x_i)``: the atoms in which ``variable`` occurs."""
        return tuple(a for a in self.atoms if variable in a.variable_set)

    def arity(self, relation: str) -> int:
        return self.atom(relation).arity

    # ----------------------------------------------------- hypergraph structure

    def adjacency(self) -> dict[str, set[str]]:
        """Primal-graph adjacency: variables co-occurring in some atom."""
        adj: dict[str, set[str]] = {v: set() for v in self.variables}
        for atom in self.atoms:
            vs = list(atom.variable_set)
            for u, w in itertools.combinations(vs, 2):
                adj[u].add(w)
                adj[w].add(u)
        return adj

    def connected_components(self) -> tuple["ConjunctiveQuery", ...]:
        """The maximal connected subqueries, plus singleton isolated vars.

        Components are ordered by first occurrence of their variables.
        """
        adj = self.adjacency()
        seen: set[str] = set()
        var_groups: list[set[str]] = []
        for v in self.variables:
            if v in seen:
                continue
            group = _bfs_component(v, adj)
            seen |= group
            var_groups.append(group)
        components = []
        for group in var_groups:
            atoms = tuple(a for a in self.atoms if a.variable_set <= group)
            isolated = frozenset(group & self.isolated_variables)
            components.append(
                ConjunctiveQuery(atoms, isolated_variables=isolated)
            )
        return tuple(components)

    @property
    def num_components(self) -> int:
        """``c``: number of connected components (isolated vars count)."""
        return len(self.connected_components())

    @property
    def is_connected(self) -> bool:
        return self.num_components == 1

    # ----------------------------------------------------------- characteristic

    @property
    def characteristic(self) -> int:
        """``chi(q) = a - k - l + c`` (paper Section 2.2).

        Lemma 2.1 shows ``chi(q) >= 0``, additivity over connected
        components, and ``chi(q/M) = chi(q) - chi(M)``.
        """
        return (
            self.total_arity
            - self.num_variables
            - self.num_atoms
            + self.num_components
        )

    @property
    def is_tree_like(self) -> bool:
        """Definition 2.2: connected and ``chi(q) == 0``."""
        return self.is_connected and self.characteristic == 0

    # -------------------------------------------------------------- operations

    def subquery(self, relations: Iterable[str], name: str = "") -> "ConjunctiveQuery":
        """The subquery induced by the given atom (relation) names."""
        wanted = set(relations)
        unknown = wanted - set(self.relation_names)
        if unknown:
            raise KeyError(f"unknown relations {sorted(unknown)} in {self}")
        atoms = tuple(a for a in self.atoms if a.relation in wanted)
        return ConjunctiveQuery(atoms, name=name)

    def contract(self, relations: Iterable[str], name: str = "") -> "ConjunctiveQuery":
        """``q/M``: contract the hyperedges in ``M`` (paper Section 2.2).

        Each atom in ``M`` has all its variables merged into a single
        vertex; atoms in ``M`` disappear, the remaining atoms have their
        variables rewritten to class representatives.  A merged class
        covered by no remaining atom survives as an isolated variable.
        """
        m_set = set(relations)
        unknown = m_set - set(self.relation_names)
        if unknown:
            raise KeyError(f"unknown relations {sorted(unknown)} in {self}")

        order = {v: i for i, v in enumerate(self.variables)}
        parent: dict[str, str] = {v: v for v in self.variables}

        def find(v: str) -> str:
            root = v
            while parent[root] != root:
                root = parent[root]
            while parent[v] != root:
                parent[v], v = root, parent[v]
            return root

        def union(u: str, w: str) -> None:
            ru, rw = find(u), find(w)
            if ru == rw:
                return
            # Keep the earliest-occurring variable as the representative.
            if order[ru] <= order[rw]:
                parent[rw] = ru
            else:
                parent[ru] = rw

        for atom in self.atoms:
            if atom.relation in m_set:
                vs = list(atom.variable_set)
                for other in vs[1:]:
                    union(vs[0], other)

        mapping = {v: find(v) for v in self.variables}
        remaining = tuple(
            a.rename(mapping) for a in self.atoms if a.relation not in m_set
        )
        covered = {v for a in remaining for v in a.variables}
        all_classes = {find(v) for v in self.variables}
        isolated = frozenset(all_classes - covered)
        return ConjunctiveQuery(remaining, name=name, isolated_variables=isolated)

    def rename_relations(self, mapping: Mapping[str, str]) -> "ConjunctiveQuery":
        """Rename relation symbols (used when instantiating view plans)."""
        atoms = tuple(
            Atom(mapping.get(a.relation, a.relation), a.variables) for a in self.atoms
        )
        return ConjunctiveQuery(atoms, name=self.name,
                                isolated_variables=self.isolated_variables)

    def rename_variables(self, mapping: Mapping[str, str]) -> "ConjunctiveQuery":
        atoms = tuple(a.rename(mapping) for a in self.atoms)
        isolated = frozenset(mapping.get(v, v) for v in self.isolated_variables)
        return ConjunctiveQuery(atoms, name=self.name, isolated_variables=isolated)

    # ------------------------------------------------------- metric structure

    def eccentricities(self) -> dict[str, int]:
        """Hypergraph eccentricity of every variable (connected queries)."""
        if not self.is_connected:
            raise ValueError("eccentricities are defined for connected queries")
        adj = self.adjacency()
        return {v: _max_bfs_distance(v, adj) for v in self.variables}

    @property
    def radius(self) -> int:
        """``rad(q) = min_u max_v d(u, v)`` (paper Section 5.1)."""
        return min(self.eccentricities().values())

    @property
    def diameter(self) -> int:
        """``diam(q) = max_{u,v} d(u, v)`` (paper Section 5.3)."""
        return max(self.eccentricities().values())

    def center(self) -> str:
        """A variable of minimum eccentricity (deterministic tie-break)."""
        ecc = self.eccentricities()
        radius = min(ecc.values())
        for v in self.variables:  # first-occurrence order
            if ecc[v] == radius:
                return v
        raise AssertionError("unreachable: connected query has a center")

    def distances_from(self, source: str) -> dict[str, int]:
        """BFS distances in the primal graph from ``source``."""
        if source not in set(self.variables):
            raise KeyError(f"unknown variable {source!r}")
        return _bfs_distances(source, self.adjacency())

    # ----------------------------------------------------- subquery enumeration

    def connected_subqueries(
        self, min_atoms: int = 1, max_atoms: int | None = None
    ) -> Iterator["ConjunctiveQuery"]:
        """Enumerate connected subqueries (sets of atoms) of ``q``.

        Connectivity is with respect to the subquery's own hypergraph.
        Used by the multi-round machinery (Section 5.2: the classes
        ``C(q)``, ``C_eps(q)`` and ``S_eps(q)``).  Exponential in the
        number of atoms, which is fine for the paper's query families.
        """
        if max_atoms is None:
            max_atoms = self.num_atoms
        names = list(self.relation_names)
        atom_vars = {a.relation: a.variable_set for a in self.atoms}
        # Grow connected sets via BFS over the "atom adjacency" graph.
        atom_adj: dict[str, set[str]] = {n: set() for n in names}
        for a, b in itertools.combinations(self.atoms, 2):
            if a.variable_set & b.variable_set:
                atom_adj[a.relation].add(b.relation)
                atom_adj[b.relation].add(a.relation)
        emitted: set[frozenset[str]] = set()
        frontier: deque[frozenset[str]] = deque(frozenset([n]) for n in names)
        while frontier:
            group = frontier.popleft()
            if group in emitted:
                continue
            emitted.add(group)
            if len(group) < max_atoms:
                neighbours = set().union(*(atom_adj[n] for n in group)) - group
                for n in neighbours:
                    candidate = group | {n}
                    if candidate not in emitted:
                        frontier.append(candidate)
            if len(group) >= min_atoms:
                yield self.subquery(sorted(group))
        # A single isolated variable forms no subquery: subqueries are atom sets.
        del atom_vars

    # ------------------------------------------------------------------ dunder

    def __str__(self) -> str:
        label = self.name or "q"
        body = ", ".join(str(a) for a in self.atoms)
        head = ", ".join(self.variables)
        return f"{label}({head}) :- {body}"

    def __len__(self) -> int:
        return self.num_atoms


def _bfs_component(start: str, adj: Mapping[str, set[str]]) -> set[str]:
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _bfs_distances(start: str, adj: Mapping[str, set[str]]) -> dict[str, int]:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _max_bfs_distance(start: str, adj: Mapping[str, set[str]]) -> int:
    dist = _bfs_distances(start, adj)
    if len(dist) != len(adj):
        raise ValueError("graph is not connected")
    return max(dist.values())
