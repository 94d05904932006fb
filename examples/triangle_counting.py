#!/usr/bin/env python
"""Triangle counting on social-graph-like data, with and without skew.

Social graphs have celebrity vertices: a hub whose degree is a constant
fraction of the edge count.  Vanilla HyperCube hashing then piles the
hub's edges onto a slice of the server grid (Section 4's motivation);
the Section 4.2.2 skew-aware algorithm restores the load balance by
giving each heavy hitter its own residual-query grid.

This example builds a hub-and-spokes graph, counts triangles three
ways -- sequentially, with vanilla HyperCube, and with the skew-aware
algorithm -- and prints the loads next to the paper's formulas.

Run:  python examples/triangle_counting.py
"""

import numpy as np

from repro import Session, triangle_query
from repro.data.generators import random_graph_edges, triangle_database_from_edges
from repro.join import evaluate_arrays
from repro.skew import triangle_skew_load_bound


def build_celebrity_graph(hub_degree: int, fan_edges: int, noise: int, seed: int):
    """A hub connected to everyone, some fan-fan edges, random noise."""
    vertices = hub_degree + 2
    edges = {(0, v) for v in range(1, hub_degree + 1)}
    edges |= {(v, v + 1) for v in range(1, fan_edges + 1)}
    # Noise among the fans only, so the hub stays the unique heavy value.
    edges |= {
        (min(u + 1, v + 1), max(u + 1, v + 1))
        for u, v in random_graph_edges(vertices - 2, noise, seed=seed)
        if u != v
    }
    return edges, vertices


def main() -> None:
    p = 27
    edges, vertices = build_celebrity_graph(
        hub_degree=600, fan_edges=100, noise=60, seed=3
    )
    db = triangle_database_from_edges(edges, vertices)
    query = triangle_query()
    stats = db.statistics(query)
    m = stats.tuples("S1")
    print(
        f"celebrity graph: {vertices} vertices, {len(edges)} edges "
        f"(symmetric closure: {m} tuples/relation)"
    )
    print(f"hub degree: 600 = {600 / m:.0%} of each relation")

    truth = evaluate_arrays(query, db.arrays(query))
    print(f"\ndirected triangles (sequential ground truth): {len(truth)}")
    print(f"undirected triangles: {len(truth) // 6}")

    session = Session(p=p, seed=1)
    vanilla = session.run(query, db, "hypercube")
    assert np.array_equal(vanilla.answers_array(), truth)
    print(f"\nvanilla HyperCube, p={p}, shares {vanilla.details['shares']}:")
    print(f"  max load {vanilla.max_load_bits:.0f} bits")
    print(f"  (skew-free prediction would be ~ M/p^(2/3) = "
          f"{stats.bits('S1') / p ** (2 / 3):.0f} bits)")

    skew_aware = session.run(query, db, "skew-triangle")
    assert np.array_equal(skew_aware.answers_array(), truth)
    print(f"\nskew-aware algorithm (Section 4.2.2), {skew_aware.servers_used} servers:")
    print(f"  max load {skew_aware.max_load_bits:.0f} bits")
    print(f"  paper formula bound: {triangle_skew_load_bound(db, p):.0f} bits")
    hitters = {v: len(s) for v, s in skew_aware.details["heavy2"].items()}
    print(f"  heavy hitters per variable (threshold m/p^(1/3)): {hitters}")

    ratio = vanilla.max_load_bits / skew_aware.max_load_bits
    print(f"\nskew-aware wins by {ratio:.1f}x on the maximum load")


if __name__ == "__main__":
    main()
