"""The ``repro`` logging namespace and its silent-fallback warnings.

A process-pool worker degrading nested fan-out to serial execution
emits one ``logging`` warning on the ``repro.*`` namespace (never a
Python ``warnings`` warning, so ``filterwarnings = error`` test suites
stay quiet).  Resolving settings and planning never warn; a custom
strategy whose ``estimate()`` lacks the ``machines`` parameter raises
``TypeError`` under a machine spec.
"""

from __future__ import annotations

import logging

import pytest

import repro
from repro.config import ExecutionSettings, MachineSpec
from repro.core.families import triangle_query
from repro.core.stats import Statistics
from repro.parallel import pool as pool_module
from repro.parallel.pool import SerialPool, get_pool
from repro.planner import Strategy, plan
from repro.planner.cost import CostEstimate


def test_root_logger_has_null_handler():
    handlers = logging.getLogger("repro").handlers
    assert any(isinstance(h, logging.NullHandler) for h in handlers)
    # Importing repro must not configure real handlers for the caller.
    assert all(isinstance(h, logging.NullHandler) for h in handlers)


class TestForcedSerialWarning:
    def test_defaulted_pool_stays_silent(self, caplog, monkeypatch):
        monkeypatch.delenv("REPRO_DEFAULT_POOL", raising=False)
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert ExecutionSettings(pool=None).resolve().pool == "serial"
            # An explicit pool is honoured as given, silently.
            assert ExecutionSettings(pool="thread").resolve().pool == "thread"
        assert not caplog.records


class TestLegacyEstimateWarning:
    def test_three_arg_estimate_raises_under_a_machine_spec(self):
        class Legacy(Strategy):
            name = "legacy-test"
            summary = "pre-heterogeneity estimate() signature"

            def applicable(self, query, dstats, p):
                return None

            def estimate(self, query, dstats, p):
                return CostEstimate(1.0, 1, p, "legacy")

        q = triangle_query()
        stats = Statistics.uniform(q, m=100, domain_size=128)
        machines = MachineSpec((1.0, 2.0)).cycle_to(8)
        with pytest.raises(TypeError):
            plan(q, stats, 8, strategies=[Legacy()], machines=machines)

    def test_builtin_strategies_do_not_warn(self, caplog):
        q = triangle_query()
        stats = Statistics.uniform(q, m=100, domain_size=128)
        machines = MachineSpec((1.0, 2.0)).cycle_to(8)
        logger = "repro.planner.optimizer"
        with caplog.at_level(logging.WARNING, logger=logger):
            plan(q, stats, 8, machines=machines)
        assert not caplog.records


class TestNestedPoolWarning:
    def test_worker_degrades_to_serial_and_warns_once(
        self, caplog, monkeypatch
    ):
        monkeypatch.setattr(pool_module, "_IN_WORKER", True)
        monkeypatch.setattr(pool_module, "_NESTED_WARNED", False)
        logger = "repro.parallel.pool"
        with caplog.at_level(logging.WARNING, logger=logger):
            first = get_pool("thread")
            second = get_pool("process")
        assert isinstance(first, SerialPool)
        assert isinstance(second, SerialPool)
        warned = [
            rec for rec in caplog.records if "nested" in rec.message
        ]
        assert len(warned) == 1  # once per worker process

    def test_parent_process_is_unaffected(self, caplog):
        assert not pool_module._IN_WORKER
        with caplog.at_level(logging.WARNING, logger="repro.parallel.pool"):
            pool = get_pool("thread", max_workers=2)
            try:
                assert not isinstance(pool, SerialPool)
            finally:
                pool.close()
        assert not caplog.records
