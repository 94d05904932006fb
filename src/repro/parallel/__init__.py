"""Pluggable worker pools and picklable engine tasks.

The engines' fan-out seam: :mod:`repro.parallel.pool` provides the
``WorkerPool`` protocol (serial / thread / process, shared and cached),
:mod:`repro.parallel.tasks` the picklable per-server task bodies and
the drivers that replay their results in deterministic serial order.
Only a run's routing and local joins go through it; a
``Session.run_many`` batch runs its jobs on the session's own threads.
"""

from repro.parallel.pool import (
    POOL_KINDS,
    PoolKind,
    ProcessPool,
    SerialPool,
    ThreadPool,
    WorkerPool,
    default_max_workers,
    get_pool,
    shutdown_pools,
)
from repro.parallel.tasks import (
    ArraySource,
    JoinOrderError,
    JoinTask,
    RouteTask,
    iter_array_sources,
    join_over_pool,
    join_task,
    route_over_pool,
    route_task,
    server_join_task,
)

__all__ = [
    "POOL_KINDS",
    "PoolKind",
    "ProcessPool",
    "SerialPool",
    "ThreadPool",
    "WorkerPool",
    "default_max_workers",
    "get_pool",
    "shutdown_pools",
    "ArraySource",
    "JoinOrderError",
    "JoinTask",
    "RouteTask",
    "iter_array_sources",
    "join_over_pool",
    "join_task",
    "route_over_pool",
    "route_task",
    "server_join_task",
]
