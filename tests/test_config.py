"""The system-wide backend switch (`repro.config`)."""

from __future__ import annotations

import pytest

import repro
from repro import Session
from repro.config import (
    ExecutionSettings,
    default_backend,
    resolve_backend,
    resolve_generator_backend,
    set_default_backend,
    use_backend,
)
from repro.core.families import triangle_query
from repro.data.generators import matching_database
from repro.multiround.plans import generic_plan
from repro.run import dispatch_run


@pytest.fixture
def restore_backend():
    previous = default_backend()
    yield
    set_default_backend(previous)


class TestSwitch:
    def test_ships_with_numpy_default(self):
        assert default_backend() == "numpy"

    def test_set_returns_previous(self, restore_backend):
        assert set_default_backend("tuples") == "numpy"
        assert default_backend() == "tuples"
        assert set_default_backend("numpy") == "tuples"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            set_default_backend("pandas")
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("pandas")
        with pytest.raises(ValueError, match="unknown generator backend"):
            resolve_generator_backend("tuples")

    def test_resolution(self, restore_backend):
        assert resolve_backend(None) == "numpy"
        assert resolve_backend("tuples") == "tuples"
        assert resolve_generator_backend(None) == "numpy"
        set_default_backend("tuples")
        assert resolve_backend(None) == "tuples"
        # Generators stay on their own default: switching execution
        # engines must never change the data a seed produces.
        assert resolve_generator_backend(None) == "numpy"
        assert resolve_generator_backend("python") == "python"

    def test_generators_invariant_under_execution_switch(
        self, restore_backend
    ):
        q = triangle_query()
        a = matching_database(q, m=20, n=100, seed=7)
        set_default_backend("tuples")
        b = matching_database(q, m=20, n=100, seed=7)
        assert all(a[r] == b[r] for r in q.relation_names)

    def test_exported_at_package_level(self):
        assert repro.default_backend is default_backend
        assert repro.set_default_backend is set_default_backend
        assert repro.use_backend is use_backend


class TestUseBackendContextManager:
    def test_restores_on_exit(self):
        assert default_backend() == "numpy"
        with use_backend("tuples") as active:
            assert active == "tuples"
            assert default_backend() == "tuples"
        assert default_backend() == "numpy"

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with use_backend("tuples"):
                assert default_backend() == "tuples"
                raise RuntimeError("boom")
        assert default_backend() == "numpy"

    def test_nests(self):
        with use_backend("tuples"):
            with use_backend("numpy"):
                assert default_backend() == "numpy"
            assert default_backend() == "tuples"
        assert default_backend() == "numpy"

    def test_rejects_unknown_without_clobbering(self):
        with pytest.raises(ValueError, match="unknown backend"):
            with use_backend("pandas"):
                pass  # pragma: no cover
        assert default_backend() == "numpy"

    def test_governs_executors_in_scope(self):
        q = triangle_query()
        db = matching_database(q, m=30, n=150, seed=1)
        with use_backend("tuples"):
            reference = Session(p=4, seed=0).run(q, db, "hypercube")
        columnar = Session(p=4, seed=0).run(q, db, "hypercube")
        assert reference.answers == columnar.answers
        assert all(
            not reference.simulation.server(s).array_fragments
            for s in range(4)
        )
        assert any(
            columnar.simulation.server(s).array_fragments for s in range(4)
        )


class TestSwitchGovernsExecutors:
    def test_hypercube_default_equals_explicit_numpy(self, restore_backend):
        q = triangle_query()
        db = matching_database(q, m=80, n=400, seed=0)
        implicit = Session(p=8, seed=1).run(q, db, "hypercube")
        explicit = Session(p=8, seed=1, backend="numpy").run(q, db, "hypercube")
        assert implicit.answers == explicit.answers
        assert implicit.report.total_bits == explicit.report.total_bits
        # Default runs store array fragments, the tuple path would not.
        assert any(
            implicit.simulation.server(s).array_fragments for s in range(8)
        )
        set_default_backend("tuples")
        reference = Session(p=8, seed=1).run(q, db, "hypercube")
        assert reference.answers == implicit.answers
        assert all(
            not reference.simulation.server(s).array_fragments
            for s in range(8)
        )

    def test_multiround_default_follows_switch(self, restore_backend):
        q = triangle_query()
        plan = generic_plan(q)
        db = matching_database(q, m=60, n=300, seed=2)
        settings = ExecutionSettings()  # the backend resolves per run
        columnar = dispatch_run(
            "multiround", q, db, 8, seed=0, settings=settings, plan=plan,
            keep_view_fragments=True,
        )
        import numpy as np

        assert all(
            isinstance(c, np.ndarray) for c in columnar.details["view_fragments"]["V1"]
        )
        set_default_backend("tuples")
        tuple_run = dispatch_run(
            "multiround", q, db, 8, seed=0, settings=settings, plan=plan,
            keep_view_fragments=True,
        )
        assert all(
            isinstance(c, set) for c in tuple_run.details["view_fragments"]["V1"]
        )
        assert tuple_run.answers == columnar.answers
        assert tuple_run.report.total_bits == columnar.report.total_bits
