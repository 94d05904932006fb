"""Worker pools: one fan-out seam for every per-server loop.

A :class:`WorkerPool` runs a stream of picklable tasks through a
module-level task function and hands the results back **in task
order** -- the only contract the executors need, because all simulator
accounting (bit counting, capacity truncation, output recording)
happens on the parent as results are merged.  Three implementations:

* :class:`SerialPool` -- runs each task inline at consumption time.
  The zero-overhead default; ``imap`` is fully lazy, so the streaming
  executors keep their one-chunk-resident memory profile.
* :class:`ThreadPool` -- a ``ThreadPoolExecutor``.  Worth it when the
  task bodies release the GIL (NumPy routing/joins on large arrays).
* :class:`ProcessPool` -- a spawn-context ``ProcessPoolExecutor``.
  True multicore for CPU-bound work; tasks and results cross a pickle
  boundary, so task dataclasses reference spilled rows by ``(path,
  offset, rows)`` segment slices (mapped read-only in the worker)
  instead of by value.

``imap`` keeps at most ``2 * max_workers`` tasks in flight (bounded
prefetch), so fanning a million-chunk stream over a pool never
materializes the stream.

Pools are cached per ``(kind, max_workers)`` and shut down at
interpreter exit: a workload of many small runs pays the process-spawn
cost once, not per run, and the job threads of a
``Session.run_many`` batch share one cached pool.  These pools carry
only the engines' fan-out -- a batch's jobs run on the session's own
threads -- and the task bodies never ask for a pool themselves, so no
fan-out nests inside a worker.

The spawn (not fork) context keeps workers safe in threaded parents
(``Session.run_many``'s job threads) and on every platform; worker
processes import task functions from their defining modules, which is
why every task function in :mod:`repro.parallel.tasks` is module-level
and every task argument a plain dataclass.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, TypeVar

from repro.config import POOL_KINDS, PoolKind

_T = TypeVar("_T")
_R = TypeVar("_R")


def default_max_workers() -> int:
    """The worker count used when the caller does not pick one."""
    return min(os.cpu_count() or 1, 8)


class WorkerPool:
    """The fan-out seam: ordered ``map``/``imap`` over picklable tasks.

    Subclasses implement :meth:`imap`; :meth:`map` is the eager form.
    Results always come back in task order, whatever the completion
    order -- the executors rely on it for deterministic merge.
    """

    kind: PoolKind = "serial"

    def __init__(self, max_workers: int = 1):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers

    def imap(
        self, fn: Callable[[_T], _R], tasks: Iterable[_T]
    ) -> Iterator[_R]:
        raise NotImplementedError

    def map(self, fn: Callable[[_T], _R], tasks: Iterable[_T]) -> list[_R]:
        return list(self.imap(fn, tasks))

    def close(self) -> None:
        """Release pool resources (idempotent; no-op for serial)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class SerialPool(WorkerPool):
    """Inline execution; ``imap`` is lazy (one task per ``next``)."""

    kind: PoolKind = "serial"

    def __init__(self, max_workers: int = 1):
        super().__init__(max_workers=1)

    def imap(self, fn, tasks):
        return (fn(task) for task in tasks)


class _ExecutorPool(WorkerPool):
    """Shared bounded-prefetch ``imap`` over a concurrent.futures executor."""

    def __init__(self, max_workers: int):
        super().__init__(max_workers)
        self._executor: Executor | None = None
        self._lock = threading.Lock()

    def _make_executor(self) -> Executor:
        raise NotImplementedError

    @property
    def executor(self) -> Executor:
        with self._lock:
            if self._executor is None:
                self._executor = self._make_executor()
            return self._executor

    def start(self) -> None:
        """Start all ``max_workers`` workers now and wait until each is up.

        Executors spawn workers one per submit, so without this the
        first tasks of a run would pay the spawn.  The no-ops are all
        submitted long before a new worker can finish one, so each
        submit starts its own worker.
        """
        executor = self.executor
        for future in [executor.submit(_ready) for _ in range(self.max_workers)]:
            future.result()

    def imap(self, fn, tasks):
        executor = self.executor
        prefetch = 2 * self.max_workers

        def results() -> Iterator:
            pending: deque = deque()
            iterator = iter(tasks)
            exhausted = False
            while True:
                while not exhausted and len(pending) < prefetch:
                    try:
                        task = next(iterator)
                    except StopIteration:
                        exhausted = True
                        break
                    pending.append(executor.submit(fn, task))
                if not pending:
                    return
                yield pending.popleft().result()

        return results()

    def close(self) -> None:
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None


class ThreadPool(_ExecutorPool):
    """GIL-sharing workers; effective when tasks release the GIL."""

    kind: PoolKind = "thread"

    def _make_executor(self) -> Executor:
        return ThreadPoolExecutor(
            max_workers=self.max_workers,
            thread_name_prefix="repro-pool",
        )


class ProcessPool(_ExecutorPool):
    """Spawn-context process workers for CPU-bound fan-out."""

    kind: PoolKind = "process"

    def _make_executor(self) -> Executor:
        return ProcessPoolExecutor(
            max_workers=self.max_workers,
            mp_context=multiprocessing.get_context("spawn"),
        )


def _ready() -> None:
    """The no-op task :meth:`_ExecutorPool.start` submits."""


_POOL_CLASSES = {
    "serial": SerialPool,
    "thread": ThreadPool,
    "process": ProcessPool,
}

_shared_pools: dict[tuple[str, int], WorkerPool] = {}
_shared_lock = threading.Lock()


def get_pool(kind: str | None, max_workers: int | None = None) -> WorkerPool:
    """A shared pool of the given kind (cached per worker count).

    ``kind=None`` means "no pool requested" and resolves to serial --
    engine cores pass ``ExecutionSettings.pool`` straight through
    without hand-rolling their own default.

    Shared pools amortize executor startup -- above all the process
    spawn cost -- across every run of a session or test suite; they
    are shut down at interpreter exit.  A new pool starts all its
    workers here, so an engine (which asks for its pool before its
    first phase) never bills the spawn to a routing or join phase.
    """
    if kind is None:
        kind = "serial"
    if kind not in _POOL_CLASSES:
        raise ValueError(
            f"unknown pool kind {kind!r} (expected one of {POOL_KINDS})"
        )
    if kind == "serial":
        return _SERIAL
    workers = max_workers if max_workers is not None else default_max_workers()
    if workers < 1:
        raise ValueError("max_workers must be >= 1")
    key = (kind, workers)
    with _shared_lock:
        pool = _shared_pools.get(key)
        if pool is None:
            pool = _POOL_CLASSES[kind](workers)
            pool.start()
            _shared_pools[key] = pool
        return pool


def shutdown_pools() -> None:
    """Close every cached pool (automatic at interpreter exit)."""
    with _shared_lock:
        pools = list(_shared_pools.values())
        _shared_pools.clear()
    for pool in pools:
        pool.close()


atexit.register(shutdown_pools)

_SERIAL = SerialPool()
