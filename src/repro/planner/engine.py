"""The memory-budget rule a :class:`repro.session.Session` applies.

:meth:`repro.session.Session._storage_for` is the one place that
compares a database's assumed in-memory footprint against
``ClusterConfig.memory_budget_bytes``; the factor lives here so the
layered benchmark can replay the same decision.
"""

#: How many times the input's bytes an in-memory columnar execution is
#: assumed to touch at peak (input + routed replicas + fragments +
#: join intermediates).  A memory budget below this footprint selects
#: chunked execution.
IN_MEMORY_FOOTPRINT_FACTOR = 4
