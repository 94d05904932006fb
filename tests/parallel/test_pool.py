"""The WorkerPool contract: ordered results, laziness, caching."""

from __future__ import annotations

import pytest

from repro.parallel import (
    POOL_KINDS,
    ProcessPool,
    SerialPool,
    ThreadPool,
    default_max_workers,
    get_pool,
)


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise RuntimeError(f"task {x} failed")


@pytest.mark.parametrize("kind", POOL_KINDS)
def test_map_preserves_task_order(kind):
    pool = get_pool(kind, 3)
    assert pool.map(_square, range(20)) == [x * x for x in range(20)]


@pytest.mark.parametrize("kind", POOL_KINDS)
def test_imap_preserves_task_order(kind):
    pool = get_pool(kind, 3)
    assert list(pool.imap(_square, range(20))) == [x * x for x in range(20)]


def test_serial_imap_is_lazy():
    consumed = []

    def tasks():
        for x in range(5):
            consumed.append(x)
            yield x

    it = SerialPool().imap(_square, tasks())
    assert consumed == []
    assert next(it) == 0
    assert consumed == [0]
    assert next(it) == 1
    assert consumed == [0, 1]


def test_executor_imap_bounds_prefetch():
    """imap keeps at most 2*max_workers tasks in flight."""
    pool = ThreadPool(max_workers=2)
    try:
        consumed = []

        def tasks():
            for x in range(100):
                consumed.append(x)
                yield x

        it = pool.imap(_square, tasks())
        assert next(it) == 0
        # One result consumed: at most prefetch + 1 tasks were pulled.
        assert len(consumed) <= 2 * pool.max_workers + 1
        assert list(it) == [x * x for x in range(1, 100)]
    finally:
        pool.close()


def test_get_pool_caches_by_kind_and_workers():
    a = get_pool("thread", 2)
    b = get_pool("thread", 2)
    c = get_pool("thread", 3)
    assert a is b
    assert a is not c


def test_get_pool_serial_is_shared_singleton():
    assert get_pool("serial") is get_pool("serial", 4)
    assert isinstance(get_pool("serial", 4), SerialPool)


def test_get_pool_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown pool kind"):
        get_pool("greenlet")


def test_get_pool_rejects_bad_worker_count():
    with pytest.raises(ValueError, match="max_workers"):
        get_pool("thread", 0)


def test_default_max_workers_positive():
    assert default_max_workers() >= 1


def test_task_exception_propagates_with_message():
    pool = get_pool("thread", 2)
    with pytest.raises(RuntimeError, match="task 0 failed"):
        pool.map(_boom, range(4))


def test_pool_repr_mentions_workers():
    assert "max_workers=3" in repr(ProcessPool(max_workers=3))
