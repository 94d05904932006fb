"""Set-up, the closed measurement loop, the oracle and failure accounting.

One *operation* is ``Session.run`` on the workload's query (or one whole
``run_many`` batch).  The loop is closed with one client.  Every
operation is verified outside the timer: it fails if it raises, if its
``answers_array()`` differs from the single-server oracle, or if its
``max_load_bits``/``total_bits`` differ from the warm-up operation's.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro import Job, Session
from repro.join.vectorized import evaluate_arrays
from repro.parallel import get_pool, shutdown_pools

from workloads import Workload, pool_workers

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest timed operations in an end-to-end run, whatever ``--seconds`` says.
MIN_OPS = 3


def canonical(rows: np.ndarray) -> np.ndarray:
    """Rows in lexicographic order, so two answer sets compare by value."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or len(rows) == 0:
        return rows.reshape(0, rows.shape[1] if rows.ndim == 2 else 0)
    return rows[np.lexsort(rows.T[::-1])]


def quartiles(samples: list[float]) -> dict:
    """Median, quartiles and count of a sample list (``n`` beside the median)."""
    out = {"value": statistics.median(samples), "n": len(samples)}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    return out


@dataclass
class Tally:
    """Operations attempted, and why some -- or all -- of them failed."""

    attempted: int = 0
    #: One reason per failed operation.
    failures: list[str] = field(default_factory=list)
    #: Reasons the whole run is void: a wrong warm-up, a broken ``hc_*``
    #: identity or a count that moved fails every operation.
    void: list[str] = field(default_factory=list)

    def result(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.attempted if self.void else len(self.failures),
            "failures": self.void + self.failures,
        }


@dataclass
class Prepared:
    """A workload after set-up: inputs, oracle, open session, reference loads."""

    workload: Workload
    tally: Tally
    jobs: list[Job]
    oracles: list[np.ndarray]
    session: Session
    input_tuples: int
    generate_seconds: float
    pool_start_seconds: float
    #: ``(max_load_bits, total_bits)`` per job, from the warm-up operation.
    reference: list[tuple[float, float]] = field(default_factory=list)
    strategies: list[str] = field(default_factory=list)
    setup_seconds: float = 0.0

    @property
    def max_load_bits(self) -> float:
        return max(bits for bits, _ in self.reference)

    def describe(self) -> dict:
        """What the run was, beside its numbers: plans, sizes, exact loads."""
        return {
            "strategies": self.strategies,
            "input_tuples": self.input_tuples,
            "answer_rows": [len(oracle) for oracle in self.oracles],
            "max_load_bits": self.max_load_bits,
            "total_bits": sum(total for _, total in self.reference),
        }

    def close(self) -> None:
        self.session.close()


def open_session(workload: Workload, scale: float, **overrides) -> Session:
    """A session configured as the workload prescribes (plus overrides)."""
    return Session(**{**workload.session_kwargs(scale), **overrides})


def run_op(prepared: Prepared, session: Session | None = None, **run_many_kwargs):
    """One timed operation: ``(seconds, results)``; verification is separate."""
    session = session or prepared.session
    started = time.perf_counter()
    if prepared.workload.batch:
        kwargs = {"max_workers": pool_workers(), **run_many_kwargs}
        results = session.run_many(prepared.jobs, **kwargs)
    else:
        job = prepared.jobs[0]
        results = [session.run(job.query, job.database, job.strategy)]
    return time.perf_counter() - started, results


def check_op(prepared: Prepared, results) -> str | None:
    """Why this operation counts as failed, or None when it is right."""
    for job, result, oracle, reference in zip(
        prepared.jobs, results, prepared.oracles, prepared.reference
    ):
        answers = canonical(result.answers_array())
        if answers.shape != oracle.shape or not np.array_equal(answers, oracle):
            return f"{job.label}: answers differ from the single-server oracle"
        report = result.load_report
        if (report.max_load_bits, report.total_bits) != reference:
            return (
                f"{job.label}: loads {report.max_load_bits, report.total_bits} "
                f"differ from the warm-up's {reference}"
            )
    return None


def attempt(prepared: Prepared, session: Session | None = None, **kwargs):
    """Run, count and verify one operation: ``(seconds | None, results | None)``.

    A failed operation leaves its reason in the tally; one that raised
    has no timing sample.
    """
    prepared.tally.attempted += 1
    try:
        seconds, results = run_op(prepared, session, **kwargs)
    except Exception:  # the loop must survive one bad operation to count it
        traceback.print_exc(file=sys.stderr)
        prepared.tally.failures.append("operation raised")
        return None, None
    reason = check_op(prepared, results)
    if reason is not None:
        prepared.tally.failures.append(reason)
    return seconds, results


def prepare(workload: Workload, seed: int, scale: float, tally: Tally) -> Prepared:
    """Timed set-up: generate, oracle, open the session, spawn pools, warm up."""
    started = time.perf_counter()
    jobs = workload.build(seed, scale)
    generate_seconds = time.perf_counter() - started
    oracles = [
        canonical(evaluate_arrays(job.query, job.database.arrays(job.query)))
        for job in jobs
    ]
    kwargs = workload.session_kwargs(scale)
    pool_start_seconds = 0.0
    if kwargs.get("pool") == "process":
        if kwargs["max_workers"] == 1:
            print("note: one CPU -- the process pool runs with a single worker",
                  file=sys.stderr)
        pool_started = time.perf_counter()
        # Executors spawn on first submit; a trivial map forces the
        # workers up (and their import of repro) inside the measurement.
        get_pool("process", kwargs["max_workers"]).map(abs, range(kwargs["max_workers"]))
        pool_start_seconds = time.perf_counter() - pool_started
    prepared = Prepared(
        workload, tally, jobs, oracles, open_session(workload, scale),
        input_tuples=sum(job.database.total_tuples() for job in jobs),
        generate_seconds=generate_seconds,
        pool_start_seconds=pool_start_seconds,
    )
    try:
        _, warm = run_op(prepared)
        prepared.reference = [
            (r.load_report.max_load_bits, r.load_report.total_bits) for r in warm
        ]
        prepared.strategies = [r.strategy for r in warm]
        reason = check_op(prepared, warm)
        if reason is not None:
            tally.void.append(f"warm-up: {reason}")
    except BaseException:
        prepared.close()
        raise
    prepared.setup_seconds = time.perf_counter() - started
    return prepared


def identity_failure(prepared: Prepared) -> str | None:
    """The ``hc_*`` contract: same loads as a plain serial in-memory session."""
    job = prepared.jobs[0]
    with Session(p=prepared.session.config.p) as plain:
        report = plain.run(job.query, job.database, job.strategy).load_report
    if (report.max_load_bits, report.total_bits) != prepared.reference[0]:
        return (
            f"loads {prepared.reference[0]} differ from the serial in-memory "
            f"run's {report.max_load_bits, report.total_bits}"
        )
    return None


def peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest reaped child.

    Call after ``shutdown_pools()``: pool workers only count once reaped.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def untraced_pass(
    workload: Workload, seed: int, seconds: float, scale: float, ops: int | None
) -> dict:
    """The end-to-end pass: tracing off, every metric a user would see.

    Set-up runs :data:`SETUP_REPEATS` times and the timed operations are
    dealt out between the set-ups -- a third of the budget after each --
    so the samples span the whole run instead of its last seconds: the
    host's speed drifts over tens of seconds, and a median over a longer
    window repeats better at no extra cost.
    """
    tally = Tally()
    setups: list[float] = []
    samples: list[float] = []
    loop_seconds = 0.0  # wall time in the loop so far, verification included
    for block in range(1, SETUP_REPEATS + 1):
        share = block / SETUP_REPEATS
        prepared = prepare(workload, seed, scale, tally)
        setups.append(prepared.setup_seconds)
        with contextlib.closing(prepared):
            block_started = time.perf_counter()
            while (
                tally.attempted < ops * share
                if ops is not None
                else tally.attempted < MIN_OPS * share
                or loop_seconds + time.perf_counter() - block_started < seconds * share
            ):
                elapsed = attempt(prepared)[0]  # results are freed right here
                if elapsed is not None:
                    samples.append(elapsed)
            loop_seconds += time.perf_counter() - block_started
            if block == SETUP_REPEATS and workload.identity_check:
                reason = identity_failure(prepared)
                if reason is not None:
                    tally.void.append(f"identity: {reason}")
        shutdown_pools()  # so the next set-up pays the spawn again
        context = prepared.describe()
        del prepared  # free the inputs before generating them again
    if not samples:
        raise RuntimeError(f"{workload.name}: every operation raised")
    return {
        **tally.result(),
        "context": {**context, "op_seconds": samples, "setup_seconds": setups},
        "metrics": {
            "run_s_p50": quartiles(samples),
            "input_tuples_per_s": {
                "value": context["input_tuples"] * len(samples) / sum(samples)
            },
            "max_load_bits": {"value": context["max_load_bits"]},
            "peak_rss_mb": {"value": peak_rss_mib()},
            "setup_s": quartiles(setups),
        },
    }
