"""A free run wrapper beside the session: a second entry point."""

from repro import run
from repro.config import ExecutionSettings
from repro.run import dispatch_run


def quick_hypercube(query, database, p, seed=0, pool=None):
    return dispatch_run(  # line 9: run-path
        "hypercube", query, database, p, seed=seed,
        settings=ExecutionSettings(pool=pool),
    )


def quick_plan(plan, database, p, seed=0):
    return run.dispatch_run(  # line 16: run-path
        "multiround", plan.query, database, p, seed=seed,
        settings=ExecutionSettings(), plan=plan,
    )


def dispatch_label(name):
    return f"dispatch_run:{name}"  # a string, not a call
