"""Tuple-at-a-time oracles for the ``random.Random`` generators.

These are the plain Python loops that :mod:`repro.data.generators`
replays in numpy: one ``rng.randrange`` per value, rows collected in a
set.  The library's generators must return the same rows and leave a
shared ``rng`` in the same state (``tests/data/test_generators.py``).
"""

from __future__ import annotations

import random

from repro.data.relation import Relation


def _rng(seed_or_rng: int | random.Random) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def uniform_relation(
    name: str, arity: int, m: int, n: int, seed: int | random.Random = 0
) -> Relation:
    """``m`` distinct tuples drawn uniformly from ``[n]^arity``."""
    if m > n**arity:
        raise ValueError(f"cannot draw {m} distinct tuples from [{n}]^{arity}")
    rng = _rng(seed)
    tuples: set[tuple[int, ...]] = set()
    while len(tuples) < m:
        tuples.add(tuple(rng.randrange(n) for _ in range(arity)))
    return Relation(name, arity, tuples)


def random_graph_edges(
    num_vertices: int, num_edges: int, seed: int | random.Random = 0
) -> set[tuple[int, int]]:
    """A simple undirected graph as a set of ``(u, v)`` pairs with u < v."""
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges > max_edges:
        raise ValueError(f"at most {max_edges} simple edges on {num_vertices} vertices")
    rng = _rng(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < num_edges:
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u == v:
            continue
        edges.add((min(u, v), max(u, v)))
    return edges
