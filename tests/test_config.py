"""One execution path: `repro.config` resolves knobs, never an engine."""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro import ClusterConfig, Session
from repro.config import ExecutionSettings, MachineSpec
from repro.core.families import triangle_query
from repro.data.generators import matching_database
from repro.hypercube import blocks
from repro.mpc.timing import PhaseTimer
from repro.multiround.plans import generic_plan
from repro.multiround.executor import multiround_core
from repro.run import dispatch_run

from tests.reference.tuple_kernel import TupleKernel, kernel, tuple_kernel

#: The process-global surfaces deleted with the backend knob.
REMOVED = (
    "default_backend", "set_default_backend", "use_backend",
    "set_default_pool", "use_pool", "set_default_machines", "use_machines",
)


class TestSwitch:
    def test_ships_with_numpy_default(self):
        # Every run gets the array kernel; no field can pick another.
        resolved = ExecutionSettings().resolve()
        sim_kernel = blocks.round_kernel(4, 8, resolved, None, PhaseTimer())
        assert type(sim_kernel) is blocks._ArrayKernel
        names = {f.name for f in dataclasses.fields(ExecutionSettings)}
        assert "backend" not in names
        assert "backend" not in {f.name for f in dataclasses.fields(ClusterConfig)}

    def test_rejects_unknown(self):
        with pytest.raises(TypeError, match="backend"):
            ExecutionSettings(backend="numpy")
        with pytest.raises(TypeError, match="backend"):
            Session(p=4, backend="tuples")

    def test_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEFAULT_POOL", raising=False)
        monkeypatch.delenv("REPRO_DEFAULT_MACHINES", raising=False)
        plain = ExecutionSettings().resolve(p=4)
        assert (plain.pool, plain.machines) == ("serial", None)
        # The environment is read when a run resolves, not at import.
        monkeypatch.setenv("REPRO_DEFAULT_POOL", "thread")
        monkeypatch.setenv("REPRO_DEFAULT_MACHINES", "1,2")
        from_env = ExecutionSettings().resolve(p=4)
        assert from_env.pool == "thread"
        assert from_env.machines == MachineSpec.parse("1,2,1,2")
        # An explicit value beats the environment.
        explicit = ExecutionSettings(pool="serial").resolve(p=4)
        assert explicit.pool == "serial"
        monkeypatch.setenv("REPRO_DEFAULT_POOL", "cluster")
        with pytest.raises(ValueError, match="REPRO_DEFAULT_POOL"):
            ExecutionSettings().resolve()

    def test_generators_invariant_under_execution_switch(self, monkeypatch):
        # Generators draw the same data whatever the run environment.
        q = triangle_query()
        a = matching_database(q, m=20, n=100, seed=7)
        monkeypatch.setenv("REPRO_DEFAULT_POOL", "process")
        monkeypatch.setenv("REPRO_DEFAULT_MACHINES", "1,4")
        b = matching_database(q, m=20, n=100, seed=7)
        assert all(a[r] == b[r] for r in q.relation_names)

    def test_exported_at_package_level(self):
        assert repro.default_pool is repro.config.default_pool
        assert repro.default_machines is repro.config.default_machines
        for name in REMOVED:
            assert name not in repro.__all__
            assert not hasattr(repro, name)
            assert not hasattr(repro.config, name)
        assert len(repro.__all__) <= 41


class TestUseBackendContextManager:
    """The oracle swap that replaced ``use_backend`` in the tests."""

    def test_restores_on_exit(self):
        with tuple_kernel():
            assert blocks._ArrayKernel is TupleKernel
        assert blocks._ArrayKernel is not TupleKernel

    def test_restores_on_exception(self):
        original = blocks._ArrayKernel
        with pytest.raises(RuntimeError, match="boom"):
            with tuple_kernel():
                raise RuntimeError("boom")
        assert blocks._ArrayKernel is original

    def test_nests(self):
        original = blocks._ArrayKernel
        with tuple_kernel():
            with kernel("numpy"):
                assert blocks._ArrayKernel is TupleKernel
            with tuple_kernel():
                assert blocks._ArrayKernel is TupleKernel
            assert blocks._ArrayKernel is TupleKernel
        assert blocks._ArrayKernel is original

    def test_rejects_unknown_without_clobbering(self):
        original = blocks._ArrayKernel
        with pytest.raises(ValueError, match="unknown kernel"):
            with kernel("pandas"):
                pass  # pragma: no cover
        assert blocks._ArrayKernel is original

    def test_governs_executors_in_scope(self, monkeypatch):
        q = triangle_query()
        db = matching_database(q, m=30, n=150, seed=1)
        kinds = []
        real = blocks.round_kernel

        def spy(*args, **kwargs):
            opened = real(*args, **kwargs)
            kinds.append(type(opened))
            return opened

        monkeypatch.setattr(blocks, "round_kernel", spy)
        with tuple_kernel():
            reference = Session(p=4, seed=0).run(q, db, "hypercube")
        fast = Session(p=4, seed=0).run(q, db, "hypercube")
        assert kinds == [TupleKernel, blocks._ArrayKernel]
        assert reference.answers == fast.answers
        assert reference.report.rounds[0].bits == fast.report.rounds[0].bits


class TestSwitchGovernsExecutors:
    def test_hypercube_default_equals_explicit_numpy(self):
        q = triangle_query()
        db = matching_database(q, m=80, n=400, seed=0)
        implicit = Session(p=8, seed=1).run(q, db, "hypercube")
        explicit = Session(p=8, seed=1, pool="serial").run(q, db, "hypercube")
        assert implicit.answers == explicit.answers
        assert implicit.report.total_bits == explicit.report.total_bits
        assert any(
            implicit.simulation.server(s).array_fragments for s in range(8)
        )
        with tuple_kernel():
            reference = Session(p=8, seed=1).run(q, db, "hypercube")
        assert reference.answers == implicit.answers
        assert reference.report.total_bits == implicit.report.total_bits

    def test_multiround_default_follows_switch(self):
        import numpy as np

        q = triangle_query()
        plan = generic_plan(q)
        db = matching_database(q, m=60, n=300, seed=2)
        runs = {}
        for name in ("numpy", "tuples"):
            with kernel(name):
                runs[name] = dispatch_run(
                    multiround_core, q, db, 8, seed=0,
                    settings=ExecutionSettings(), plan=plan,
                    keep_view_fragments=True,
                )
        for run in runs.values():
            assert all(
                isinstance(c, np.ndarray)
                for c in run.details["view_fragments"]["V1"]
            )
        assert runs["tuples"].answers == runs["numpy"].answers
        assert runs["tuples"].report.total_bits == runs["numpy"].report.total_bits


class TestCapacityValidation:
    @pytest.mark.parametrize("cap", [-5.0, float("nan")])
    def test_negative_or_nan_capacity_rejected(self, cap):
        with pytest.raises(ValueError, match="capacity_bits"):
            ExecutionSettings(capacity_bits=cap)
        with pytest.raises(ValueError, match="capacity_bits"):
            Session(p=4, capacity_bits=cap)
