"""Theorem 5.20 of arXiv 1602.06236 (from arXiv 1306.5972) as an
experiment: connected-components rounds grow with path length.

On the theorem's family of layered matchings, hash-to-min needs
O(log k) rounds while label propagation pays the diameter k, which
brackets the Theta(log) frontier the theorem proves.  Label
propagation keeps each round's load at the fair share 2m/p;
hash-to-min gathers each component at its minimum vertex.
"""

from __future__ import annotations

import math

import networkx as nx

from repro.data.generators import layered_path_graph
from repro.multiround.connected import connected_components_mpc


def _components(result):
    return {frozenset(c) for c in result.components().values()}


def test_rounds_grow_with_path_length():
    p = 8
    h2m_rounds = []
    for k in (4, 8, 16, 32, 64):
        edges, n = layered_path_graph(k, 4, seed=73)
        h2m = connected_components_mpc(edges, n, p=p, seed=3)
        lp = connected_components_mpc(
            edges, n, p=p, seed=3, algorithm="label_propagation"
        )
        assert h2m.converged and lp.converged
        g = nx.Graph(edges)
        g.add_nodes_from(range(n))
        truth = {frozenset(c) for c in nx.connected_components(g)}
        assert _components(h2m) == truth
        assert _components(lp) == truth
        assert lp.rounds >= k
        assert h2m.rounds <= 4 * math.log2(k) + 4
        h2m_rounds.append(h2m.rounds)
    # Each doubling of k adds a few rounds at most.
    assert all(0 <= b - a <= 3 for a, b in zip(h2m_rounds, h2m_rounds[1:]))


def test_per_round_loads():
    k, layer, p = 16, 32, 8
    edges, n = layered_path_graph(k, layer, seed=79)
    fair = 2 * len(edges) / p
    lp = connected_components_mpc(edges, n, p=p, seed=5, algorithm="label_propagation")
    h2m = connected_components_mpc(edges, n, p=p, seed=5)
    assert lp.converged and h2m.converged
    assert max(r.max_tuples for r in lp.report.rounds) <= 3 * fair
    assert max(r.max_tuples for r in h2m.report.rounds) <= 2 * fair * (k + 1)
