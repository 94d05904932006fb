"""Local join evaluation (the free computation phase of the MPC model).

Every MPC algorithm's per-server "computation phase" must actually
compute the query on its local fragment.  :func:`evaluate_arrays` is
that in-server evaluator (a multiway join built from sort-merge joins
over ``(n, arity)`` arrays), and the library's only one: engines, the
CLI self-checks and the contraction machinery all run it.  On one
server it is also the single-node ground truth,
``evaluate_arrays(q, db.arrays(q))``.  The test suite checks it against
an independent backtracking join (``tests/reference/multiway_join.py``).
"""

from repro.join.vectorized import evaluate_arrays, join_arrays

__all__ = [
    "evaluate_arrays",
    "join_arrays",
]
