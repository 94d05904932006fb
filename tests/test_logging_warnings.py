"""The ``repro`` logging namespace stays quiet.

Importing ``repro`` installs only a ``NullHandler``; resolving settings
and planning never warn; a custom strategy whose ``estimate()`` lacks
the ``machines`` parameter raises ``TypeError`` under a machine spec.
"""

from __future__ import annotations

import logging

import pytest

import repro
from repro.config import ExecutionSettings, MachineSpec
from repro.core.families import triangle_query
from repro.core.stats import Statistics
from repro.planner import Strategy, plan
from repro.planner.cost import CostEstimate


def test_root_logger_has_null_handler():
    handlers = logging.getLogger("repro").handlers
    assert any(isinstance(h, logging.NullHandler) for h in handlers)
    # Importing repro must not configure real handlers for the caller.
    assert all(isinstance(h, logging.NullHandler) for h in handlers)


class TestForcedSerialWarning:
    def test_defaulted_pool_stays_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert ExecutionSettings().resolve().pool == "serial"
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
        machines = MachineSpec((1.0, 2.0) * 4)
        with pytest.raises(TypeError):
            plan(q, stats, 8, strategies=[Legacy()], machines=machines)

    def test_builtin_strategies_do_not_warn(self, caplog):
        q = triangle_query()
        stats = Statistics.uniform(q, m=100, domain_size=128)
        machines = MachineSpec((1.0, 2.0) * 4)
        logger = "repro.planner.optimizer"
        with caplog.at_level(logging.WARNING, logger=logger):
            plan(q, stats, 8, machines=machines)
        assert not caplog.records
