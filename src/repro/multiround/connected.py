"""Tuple-based MPC connected components (Theorem 5.20's subject).

Theorem 5.20 proves that any tuple-based MPC algorithm computing
connected components at load ``O(m/p^{1-eps})`` needs ``Omega(log p)``
rounds, via layered path graphs that embed the chain query ``L_k``.
This module provides the algorithms to *run* on those instances:

* ``hash_to_min`` -- each vertex keeps a cluster ``C_v`` (initially its
  closed neighbourhood); per round it sends ``C_v`` to the smallest
  member and the smallest member to everyone in ``C_v``.  Converges in
  ``O(log n)`` rounds (matching the lower bound's ``Theta(log p)``
  shape on the layered family), every message a (vertex, vertex) tuple
  -- squarely inside the tuple-based model.
* ``label_propagation`` -- classic min-label flooding; one round per
  unit of graph diameter.  The contrast between the two
  (``tests/paper/test_sec5_connected_components.py``) shows why the
  logarithmic algorithm matters.

Unlike the query engines, this module drives the simulator itself
(``begin_round`` / ``send_array``) instead of handing a block list to
the round kernel (:mod:`repro.hypercube.blocks`), for two reasons:

* the number of rounds is not known up front: it is a fixpoint that
  depends on the data, decided after each round from what the servers
  received;
* its messages are (vertex, vertex) pairs that one home hash places on
  a single server, not atoms of a conjunctive query routed on a share
  grid, so there is no residual query to join and no share vector to
  route by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

import numpy as np

from repro.core.stats import bits_per_value
from repro.hashing.family import HashFamily
from repro.mpc.report import LoadReport
from repro.mpc.simulator import MPCSimulation


@dataclass
class ConnectedComponentsResult:
    """Labels (vertex -> component id) plus execution accounting."""

    labels: dict[int, int]
    rounds: int
    report: LoadReport
    converged: bool

    def components(self) -> dict[int, set[int]]:
        out: dict[int, set[int]] = {}
        for vertex, label in self.labels.items():
            out.setdefault(label, set()).add(vertex)
        return out


def connected_components_mpc(
    edges: Iterable[tuple[int, int]],
    num_vertices: int,
    p: int,
    seed: int = 0,
    algorithm: Literal["hash_to_min", "label_propagation"] = "hash_to_min",
    max_rounds: int = 200,
) -> ConnectedComponentsResult:
    """Compute connected components on the MPC simulator.

    Vertices are hash-partitioned onto the ``p`` servers; round 1
    distributes the edges (the partitioned input exchange), subsequent
    rounds run the chosen tuple-based iteration until a global
    fixpoint.  Isolated vertices label themselves.
    """
    if num_vertices < 1:
        raise ValueError("need at least one vertex")
    edge_list = [(int(u), int(v)) for u, v in edges]
    for u, v in edge_list:
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise ValueError(f"edge ({u}, {v}) outside vertex range")
    value_bits = bits_per_value(max(2, num_vertices))
    sim = MPCSimulation(p, value_bits=value_bits)
    home = HashFamily(seed).function(0, p)

    # Round 1: deliver each edge to both endpoints' home servers.
    sim.begin_round()
    batches: dict[int, list[tuple[int, int]]] = {}
    for u, v in edge_list:
        batches.setdefault(home(u), []).append((u, v))
        if home(v) != home(u):
            batches.setdefault(home(v), []).append((u, v))
        else:
            batches[home(u)].append((u, v))
    _send_batches(sim, "edges", batches)
    sim.end_round()

    # Local state: cluster (or label) per vertex, kept at its home server.
    clusters: dict[int, set[int]] = {v: {v} for v in range(num_vertices)}
    neighbours: dict[int, set[int]] = {v: set() for v in range(num_vertices)}
    for u, v in _received(sim, "edges"):
        neighbours[u].add(v)
        neighbours[v].add(u)
    for v in range(num_vertices):
        clusters[v] |= neighbours[v]

    if algorithm == "hash_to_min":
        converged = _hash_to_min(sim, home, clusters, max_rounds)
        labels = {v: min(c) for v, c in clusters.items()}
        # Propagate through the minimum's final cluster: the minimum
        # vertex of each component knows all members.
        for v, cluster in clusters.items():
            if min(cluster) == v:
                for w in cluster:
                    labels[w] = min(labels[w], v)
    elif algorithm == "label_propagation":
        converged = _label_propagation(sim, home, clusters, neighbours, max_rounds)
        labels = {v: min(c) for v, c in clusters.items()}
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")

    return ConnectedComponentsResult(
        labels=labels,
        rounds=sim.rounds_executed,
        report=sim.report,
        converged=converged,
    )


def _hash_to_min(sim, home, clusters, max_rounds) -> bool:
    """Rastogi et al.'s Hash-to-Min, on the simulator.

    Per round, vertex ``v`` with cluster ``C_v`` and ``m = min(C_v)``
    sends ``C_v`` to ``m`` and ``{m}`` to every member; the new ``C_v``
    is the union of everything received.
    """
    for _ in range(max_rounds):
        sim.begin_round()
        outbox: dict[int, list[tuple[int, int]]] = {}
        for v, cluster in clusters.items():
            if len(cluster) == 1:
                continue
            smallest = min(cluster)
            for w in cluster:
                # (target, member): target's cluster gains member.
                outbox.setdefault(home(smallest), []).append((smallest, w))
                outbox.setdefault(home(w), []).append((w, smallest))
        _send_batches(sim, "h2m", outbox)
        sim.end_round()

        incoming: dict[int, set[int]] = {}
        for target, member in _received(sim, "h2m"):
            incoming.setdefault(target, set()).add(member)
        sim.clear_all("h2m")

        changed = False
        for v in clusters:
            if v in incoming:
                new_cluster = incoming[v] | {v}
            else:
                new_cluster = {min(clusters[v]), v}
            if new_cluster != clusters[v]:
                changed = True
            clusters[v] = new_cluster
        if not changed:
            return True
    return False


def _label_propagation(sim, home, clusters, neighbours, max_rounds) -> bool:
    """Min-label flooding: one round per unit of component diameter."""
    labels = {v: min(c) for v, c in clusters.items()}
    for _ in range(max_rounds):
        sim.begin_round()
        outbox: dict[int, list[tuple[int, int]]] = {}
        for v, label in labels.items():
            for u in neighbours[v]:
                outbox.setdefault(home(u), []).append((u, label))
        _send_batches(sim, "lp", outbox)
        sim.end_round()

        changed = False
        for target, label in _received(sim, "lp"):
            if label < labels[target]:
                labels[target] = label
                changed = True
        sim.clear_all("lp")
        if not changed:
            for v in labels:
                clusters[v] = {labels[v]}
            return True
    for v in labels:
        clusters[v] = {labels[v]}
    return False


def _send_batches(
    sim: MPCSimulation, tag: str, batches: dict[int, list[tuple[int, int]]]
) -> None:
    """Deliver each server's ``(a, b)`` messages as one row batch."""
    for server, batch in batches.items():
        sim.send_array(server, tag, np.array(batch, dtype=np.int64))


def _received(sim: MPCSimulation, tag: str) -> Iterator[tuple[int, int]]:
    """Every distinct ``(a, b)`` message each server stores under ``tag``."""
    for server in range(sim.p):
        rows = sim.server(server).array_fragment(tag)
        if rows is not None:
            yield from map(tuple, rows.tolist())
