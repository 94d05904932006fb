"""Local join evaluation (the free computation phase of the MPC model).

Every MPC algorithm's per-server "computation phase" must actually
compute the query on its local fragment.  :func:`evaluate_arrays` is
that in-server evaluator (a greedy left-deep multiway join over
``(n, arity)`` arrays that carries row ids instead of rows and groups
keys by direct addressing or sort-merge, whichever the key span
suits), and the library's only one: engines, the CLI self-checks and
the contraction machinery all run it.  :func:`join_arrays` is one
step of it, materialised.  On one
server it is also the single-node ground truth,
``evaluate_arrays(q, db.arrays(q))``.  The test suite checks it against
an independent backtracking join (``tests/reference/multiway_join.py``).
"""

from repro.join.vectorized import evaluate_arrays, join_arrays

__all__ = [
    "evaluate_arrays",
    "join_arrays",
]
