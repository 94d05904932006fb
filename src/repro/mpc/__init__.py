"""The Massively Parallel Communication (MPC) model as a simulator.

Section 2.1 defines the model: ``p`` servers connected by private
channels compute in synchronous rounds, each round consisting of a
communication phase followed by unlimited local computation.  An
algorithm is judged by two numbers only -- the number of rounds ``r``
and the *maximum load* ``L``, the largest number of bits any server
receives in any single round.

:class:`~repro.mpc.simulator.MPCSimulation` realizes exactly this
abstract machine: algorithms send routed partitions during a round,
the simulator accounts each server's share on receipt, and the round
barrier closes the bits received per (server, round).  Local computation is free (it happens in
plain Python between rounds), mirroring the model's "infinitely
powerful" servers.  A configurable per-round capacity lets experiments
abort or truncate on overload, which is how the load-capped
lower-bound experiments are run.
"""

from repro.mpc.report import LoadReport, RoundLoad
from repro.mpc.simulator import (
    LoadExceededError,
    MPCSimulation,
    Partition,
    ServerState,
)

__all__ = [
    "LoadExceededError",
    "LoadReport",
    "MPCSimulation",
    "Partition",
    "RoundLoad",
    "ServerState",
]
