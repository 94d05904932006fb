"""Core query representation and fractional-combinatorics machinery.

This subpackage implements Section 2 of Beame, Koutris, Suciu,
"Communication Cost in Parallel Query Processing": full conjunctive
queries without self-joins, their hypergraphs, the characteristic
:math:`\\chi(q)`, contraction :math:`q/M`, fractional edge packings and
covers, the share-exponent linear programs of Sections 3.1 and 4.1, and
the Friedgut/AGM output-size machinery of Sections 2.4 and 3.2.
"""

from repro.core.query import Atom, ConjunctiveQuery, UnsupportedQueryError
from repro.core.families import (
    binom_query,
    chain_query,
    cycle_query,
    k4_query,
    simple_join_query,
    spk_query,
    star_query,
    triangle_query,
)
from repro.core.stats import Statistics
from repro.core.packing import (
    PackingSolution,
    fractional_edge_cover_number,
    fractional_vertex_cover_number,
    maximum_edge_packing,
    minimum_edge_cover,
    minimum_vertex_cover,
    packing_polytope_vertices,
    is_edge_packing,
    is_edge_cover,
    is_tight,
    saturates,
)
from repro.core.shares import (
    ShareSolution,
    equal_size_share_exponents,
    integerize_shares,
    share_exponents,
    skew_oblivious_share_exponents,
)
from repro.core.friedgut import (
    agm_bound,
    expected_output_size,
    friedgut_lhs,
    friedgut_rhs,
)

__all__ = [
    "Atom",
    "ConjunctiveQuery",
    "UnsupportedQueryError",
    "Statistics",
    "binom_query",
    "chain_query",
    "cycle_query",
    "k4_query",
    "simple_join_query",
    "spk_query",
    "star_query",
    "triangle_query",
    "PackingSolution",
    "fractional_edge_cover_number",
    "fractional_vertex_cover_number",
    "maximum_edge_packing",
    "minimum_edge_cover",
    "minimum_vertex_cover",
    "packing_polytope_vertices",
    "is_edge_packing",
    "is_edge_cover",
    "is_tight",
    "saturates",
    "ShareSolution",
    "equal_size_share_exponents",
    "integerize_shares",
    "share_exponents",
    "skew_oblivious_share_exponents",
    "agm_bound",
    "expected_output_size",
    "friedgut_lhs",
    "friedgut_rhs",
]
