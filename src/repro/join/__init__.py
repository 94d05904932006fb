"""Local join evaluation (the free computation phase of the MPC model).

Every MPC algorithm's per-server "computation phase" must actually
compute the query on its local fragment.  :func:`evaluate_arrays` is
that in-server evaluator (sort-merge joins over ``(n, arity)`` arrays).
:func:`evaluate` is a generic backtracking multiway join (in the spirit
of worst-case-optimal joins, with per-atom prefix indexes), the
single-node ground truth that all parallel outputs are checked against.
:mod:`repro.join.binary` adds textbook hash joins.
"""

from repro.join.multiway import evaluate, join_order
from repro.join.binary import hash_join, merge_schemas
from repro.join.vectorized import evaluate_arrays, join_arrays

__all__ = [
    "evaluate",
    "join_order",
    "hash_join",
    "merge_schemas",
    "evaluate_arrays",
    "join_arrays",
]
