"""Shared pytest fixtures and hypothesis strategies.

The random-query strategy generates small full conjunctive queries
without self-joins (arities 1-3, up to 6 variables / 6 atoms), which is
the regime all of the paper's worked examples live in.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.core.query import Atom, ConjunctiveQuery

from tests.reference.tuple_kernel import kernel

#: The two round kernels a kernel-parametrized test runs on.
KERNELS = ("tuples", "numpy")


@st.composite
def random_queries(
    draw,
    max_variables: int = 6,
    max_atoms: int = 6,
    max_arity: int = 3,
    connected_only: bool = False,
):
    """Hypothesis strategy producing small valid conjunctive queries."""
    k = draw(st.integers(min_value=1, max_value=max_variables))
    variables = [f"x{i}" for i in range(k)]
    ell = draw(st.integers(min_value=1, max_value=max_atoms))
    atoms = []
    used: set[str] = set()
    for j in range(ell):
        arity = draw(st.integers(min_value=1, max_value=max_arity))
        vs = draw(
            st.lists(
                st.sampled_from(variables), min_size=arity, max_size=arity
            )
        )
        atoms.append(Atom(f"S{j}", tuple(vs)))
        used.update(vs)
    # Make sure every variable occurs somewhere (full query over k vars).
    missing = [v for v in variables if v not in used]
    for i, v in enumerate(missing):
        atoms.append(Atom(f"S{ell + i}", (v,)))
    query = ConjunctiveQuery(tuple(atoms))
    if connected_only and not query.is_connected:
        components = query.connected_components()
        query = components[0]
    return query


@pytest.fixture
def kernel_name(request):
    """Run the test on the array kernel or, for ``"tuples"``, the oracle.

    Parametrize indirectly::

        @pytest.mark.parametrize("kernel_name", KERNELS, indirect=True)
    """
    with kernel(request.param):
        yield request.param


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xBEA3E)
