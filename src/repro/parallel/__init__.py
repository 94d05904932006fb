"""Pluggable worker pools and picklable engine tasks.

The process-parallel seam: :mod:`repro.parallel.pool` provides the
``WorkerPool`` protocol (serial / thread / process, shared and cached),
:mod:`repro.parallel.tasks` the picklable per-server task bodies and
the drivers that replay their results in deterministic serial order.
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
    in_worker,
    shutdown_pools,
)
from repro.parallel.tasks import (
    ArraySource,
    JoinTask,
    RouteTask,
    RunJobTask,
    iter_array_sources,
    join_over_pool,
    join_task,
    route_over_pool,
    route_task,
    run_job_task,
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
    "in_worker",
    "shutdown_pools",
    "ArraySource",
    "JoinTask",
    "RouteTask",
    "RunJobTask",
    "iter_array_sources",
    "join_over_pool",
    "join_task",
    "route_over_pool",
    "route_task",
    "run_job_task",
    "server_join_task",
]
