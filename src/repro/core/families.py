"""The named query families used throughout the paper.

Table 2 of the paper analyses four families; Sections 3-5 add the
triangle query, the simple join, the star-of-paths query ``SP_k`` and
the complete-graph query ``K4``:

* ``C_k`` -- the length-``k`` cycle query (``C_3`` is the triangle),
* ``T_k`` -- the star query ``S_1(z, x_1), ..., S_k(z, x_k)``,
* ``L_k`` -- the length-``k`` chain (linear) query,
* ``B_{k,m}`` -- one relation for each ``m``-subset of ``k`` variables,
* ``SP_k`` -- Example 5.3: ``R_i(z, x_i), S_i(x_i, y_i)`` for ``i in [k]``,
* ``K4`` -- Section 2.2's complete graph on four variables.

All constructors produce :class:`~repro.core.query.ConjunctiveQuery`
instances with the paper's variable naming, so worked examples can be
compared literally against the text.
"""

from __future__ import annotations

import itertools

from repro.core.query import Atom, ConjunctiveQuery


def chain_query(k: int) -> ConjunctiveQuery:
    """``L_k(x_0, ..., x_k) = S_1(x_0, x_1), ..., S_k(x_{k-1}, x_k)``."""
    if k < 1:
        raise ValueError("chain query needs k >= 1")
    atoms = tuple(
        Atom(f"S{j}", (f"x{j - 1}", f"x{j}")) for j in range(1, k + 1)
    )
    return ConjunctiveQuery(atoms, name=f"L{k}")


def cycle_query(k: int) -> ConjunctiveQuery:
    """``C_k(x_1, ..., x_k) = /\\_j S_j(x_j, x_{(j mod k)+1})`` (k >= 3)."""
    if k < 3:
        raise ValueError("cycle query needs k >= 3")
    atoms = tuple(
        Atom(f"S{j}", (f"x{j}", f"x{(j % k) + 1}")) for j in range(1, k + 1)
    )
    return ConjunctiveQuery(atoms, name=f"C{k}")


def triangle_query() -> ConjunctiveQuery:
    """The triangle query ``C_3 = S1(x1,x2), S2(x2,x3), S3(x3,x1)``."""
    return cycle_query(3)


def star_query(k: int) -> ConjunctiveQuery:
    """``T_k(z, x_1, ..., x_k) = /\\_j S_j(z, x_j)`` (k >= 1).

    ``T_2`` is the simple join of Example 4.1 up to variable naming.
    """
    if k < 1:
        raise ValueError("star query needs k >= 1")
    atoms = tuple(Atom(f"S{j}", ("z", f"x{j}")) for j in range(1, k + 1))
    return ConjunctiveQuery(atoms, name=f"T{k}")


def simple_join_query() -> ConjunctiveQuery:
    """Example 4.1: ``q(x, y, z) = S1(x, z), S2(y, z)``."""
    atoms = (Atom("S1", ("x", "z")), Atom("S2", ("y", "z")))
    return ConjunctiveQuery(atoms, name="join")


def binom_query(k: int, m: int) -> ConjunctiveQuery:
    """``B_{k,m}``: one relation per ``m``-subset of ``k`` variables.

    Table 2's last row: the query has ``binom(k, m)`` atoms ``S_I(x_I)``,
    share exponents ``1/k`` each, ``tau* = k/m`` and one-round space
    exponent lower bound ``1 - m/k``.
    """
    if not 1 <= m <= k:
        raise ValueError("binom query needs 1 <= m <= k")
    atoms = []
    for index, subset in enumerate(itertools.combinations(range(1, k + 1), m), 1):
        variables = tuple(f"x{i}" for i in subset)
        label = "_".join(str(i) for i in subset)
        atoms.append(Atom(f"S{label}", variables))
        del index
    return ConjunctiveQuery(tuple(atoms), name=f"B{k}_{m}")


def spk_query(k: int) -> ConjunctiveQuery:
    """Example 5.3: ``SP_k = /\\_i R_i(z, x_i), S_i(x_i, y_i)``.

    ``tau*(SP_k) = k`` so one round needs load ``O(M/p^{1/k})``, yet a
    2-round plan achieves ``O(M/p)``.
    """
    if k < 1:
        raise ValueError("SP query needs k >= 1")
    atoms = []
    for i in range(1, k + 1):
        atoms.append(Atom(f"R{i}", ("z", f"x{i}")))
        atoms.append(Atom(f"S{i}", (f"x{i}", f"y{i}")))
    return ConjunctiveQuery(tuple(atoms), name=f"SP{k}")


def k4_query() -> ConjunctiveQuery:
    """Section 2.2's ``K4``: the complete graph on ``x1..x4``.

    ``chi(K4) = 12 - 4 - 6 + 1 = 3``.
    """
    atoms = (
        Atom("S1", ("x1", "x2")),
        Atom("S2", ("x1", "x3")),
        Atom("S3", ("x2", "x3")),
        Atom("S4", ("x1", "x4")),
        Atom("S5", ("x2", "x4")),
        Atom("S6", ("x3", "x4")),
    )
    return ConjunctiveQuery(atoms, name="K4")
