"""``python -m repro``: a 30-second tour, plus the planner/session CLI.

Without arguments, the tour prints the paper's headline numbers live
(Table 2 rows, the tight one-round bound for the triangle query, a real
HyperCube run, the cost-based planner's EXPLAIN table, a Session
workload, the multi-round tradeoff for L16) and **exits nonzero if any
check fails**, so CI can smoke-run it.

``python -m repro plan QUERY`` prints the planner's EXPLAIN cost table
for a named query (``triangle``, ``L5``, ``T3``, ``C4``, ``SP2``,
``K4``, ``join``) on a generated database; ``run`` executes the winner.

``python -m repro run QUERY`` runs a workload on a configured
:class:`repro.Session`: ``--repeat K`` executes K seed-derived jobs
(``--max-workers`` of them concurrently), ``--strategy`` pins an
algorithm instead of the planner's winner, and the accumulated
``session.history`` percentiles print at the end.  Answers are checked
against the sequential join (``evaluate_arrays`` over the whole
database on one server), so the command exits nonzero on any mismatch.

``python -m repro trace PATH`` summarizes recorded communication-trace
artifacts (one ``.jsonl`` file or a directory of them): top-k heaviest
servers, per-round bytes, hottest tags, per-phase bytes/seconds, spill
I/O, predicted-vs-measured deltas.  Record traces with ``--trace-dir``
(the tour, ``run``) or ``ClusterConfig(trace=...)``.

``python -m repro metrics PATH`` renders a :mod:`repro.metrics`
snapshot artifact as Prometheus-style text (``--json`` for the raw
snapshot, ``--diff OTHER`` for per-series deltas).  Record snapshots
with ``run --metrics --metrics-out FILE`` -- which also self-checks
that the registry's totals reconcile exactly with the runs'
``LoadReport`` counters -- or :func:`repro.metrics.write_snapshot`.

Every paper table is a tier-1 test: run ``pytest tests/paper``.
"""

from __future__ import annotations

import argparse
import re
import sys
import tempfile

import numpy as np

from repro import (
    ClusterConfig,
    DataStatistics,
    Job,
    MachineSpec,
    Session,
    matching_database,
    triangle_query,
    zipf_database,
)
from repro.bounds import lower_bound, upper_bound
from repro.config import POOL_KINDS
from repro.core.families import (
    binom_query,
    chain_query,
    cycle_query,
    k4_query,
    simple_join_query,
    spk_query,
    star_query,
)
from repro.core.packing import fractional_vertex_cover_number
from repro.core.query import ConjunctiveQuery
from repro.core.shares import space_exponent_bound
from repro.join import evaluate_arrays
from repro.metrics import render_text, write_snapshot
from repro.metrics.cli import render_snapshot_path
from repro.mpc.simulator import LoadExceededError
from repro.multiround.gamma import chain_rounds_upper_bound
from repro.multiround.lowerbounds import chain_round_lower_bound
from repro.planner import plan as planner_plan
from repro.trace import TraceQuery
from repro.trace.cli import render_path


class TourCheckFailed(SystemExit):
    """A tour invariant failed; carries exit status 1."""

    def __init__(self, message: str):
        super().__init__(1)
        self.message = message


def _check(condition: bool, message: str) -> None:
    """Fail the run (exit status 1) when a tour invariant breaks.

    Explicit instead of ``assert`` so the smoke tour still guards the
    invariants under ``python -O``.
    """
    if not condition:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
        raise TourCheckFailed(message)


def parse_query(name: str) -> ConjunctiveQuery:
    """Resolve a query name: a family shorthand or a named example.

    Accepted: ``triangle``, ``join``, ``K4``, and the parameterized
    families ``L<k>`` (chains), ``C<k>`` (cycles), ``T<k>`` (stars),
    ``SP<k>`` and ``B<k>_<m>``.
    """
    flat = name.strip()
    lowered = flat.lower()
    if lowered in ("triangle", "c3"):
        return triangle_query()
    if lowered == "join":
        return simple_join_query()
    if lowered == "k4":
        return k4_query()
    match = re.fullmatch(r"(?i)(L|C|T|SP)(\d+)", flat)
    if match:
        kind, k = match.group(1).upper(), int(match.group(2))
        builder = {
            "L": chain_query,
            "C": cycle_query,
            "T": star_query,
            "SP": spk_query,
        }[kind]
        return builder(k)
    match = re.fullmatch(r"(?i)B(\d+)_(\d+)", flat)
    if match:
        return binom_query(int(match.group(1)), int(match.group(2)))
    raise argparse.ArgumentTypeError(
        f"unknown query {name!r} (try triangle, join, K4, L5, C4, T3, "
        "SP2, B4_2)"
    )


def run_tour(trace_dir: str | None = None) -> None:
    print("repro: Beame-Koutris-Suciu, Communication Cost in Parallel")
    print("Query Processing (EDBT 2015) -- reproduction smoke tour")
    print("worker pool: serial (pick another with `run --pool`; "
          "serial, thread and process pools are bit-identical)\n")

    print("Table 2 (tau*, one-round space exponent):")
    for query in (cycle_query(3), cycle_query(6), star_query(3),
                  chain_query(5), binom_query(4, 2)):
        tau = fractional_vertex_cover_number(query)
        eps = space_exponent_bound(query)
        print(f"  {query.name:>5}: tau* = {tau:4.2f}, eps = {eps:5.3f}")

    q = triangle_query()
    p, m = 64, 1000
    db = matching_database(q, m=m, n=2**14, seed=0)
    stats = db.statistics(q)
    lo, hi = lower_bound(q, stats, p), upper_bound(q, stats, p)
    print(f"\nTriangle query, p={p}, m={m} (skew-free):")
    print(f"  L_lower = {lo:.0f} bits = L_upper = {hi:.0f} bits (Thm 3.15)")
    _check(abs(lo - hi) <= 1e-6 * max(lo, 1.0),
           "Theorem 3.15 tightness: L_lower == L_upper")
    expected = evaluate_arrays(q, db.arrays(q))
    result = Session(p=p, seed=0).run(q, db, "hypercube")
    _check(np.array_equal(result.answers_array(), expected),
           "HyperCube answers equal the sequential join")
    print(f"  HyperCube shares {result.details['shares']}: measured "
          f"L = {result.max_load_bits:.0f} bits, "
          f"{len(result.answers_array())} answers (= sequential join)")
    pct = result.report.load_percentiles()
    print(f"  {result.report.percentile_line()}")
    _check(pct["max"] == result.max_load_bits,
           "percentile summary max equals L")

    print(f"\nCost-based planner, same triangle at p={p}:")
    explained = planner_plan(q, db, p)
    print(explained.table())
    _check(len(explained.ranked) >= 5,
           "planner ranks at least 5 strategies for the triangle")
    planned = Session(p=p, seed=0).run(q, db, stats=explained.statistics)
    ratio = planned.report.prediction_ratio()
    print(f"  executed {planned.strategy}: measured "
          f"L = {planned.max_load_bits:.0f} bits "
          f"(predicted {planned.predicted_bits:.0f}, "
          f"measured/predicted = {ratio:.2f})")
    _check(np.array_equal(planned.answers_array(), expected),
           "planner-chosen execution equals the sequential join")
    _check(planned.predicted_bits <= hi * len(q.atoms) + 1e-6,
           "planner winner predicted within the one-round envelope")

    zq = star_query(2)
    zdb = zipf_database(zq, m=2000, n=2000, skew=1.0, seed=2)
    zplanned = Session(p=16, seed=0).run(zq, zdb)
    print("\nZipf-skewed star join T2 (m=2000, skew=1.0, p=16): planner "
          f"picks {zplanned.strategy}, measured "
          f"L = {zplanned.max_load_bits:.0f} bits")
    zexpected = evaluate_arrays(zq, zdb.arrays(zq))
    _check(np.array_equal(zplanned.answers_array(), zexpected),
           "skewed star execution equals the sequential join")

    print("\nHeterogeneous cluster (p=8: 4 machines at 1x + 4 at 4x):")
    het_spec = MachineSpec.parse("4x1+4x4")
    het_plan = planner_plan(q, db, 8, machines=het_spec)
    _check(het_plan.machines is het_spec,
           "EXPLAIN carries the machine spec")
    winner = het_plan.winner
    print(f"  planner winner {winner.name}: predicted makespan "
          f"{winner.estimate.load_bits:.0f} bits/unit speed "
          "(see `python -m repro plan triangle --p 8 "
          "--machines 4x1,4x4`)")
    with Session(p=8, seed=0, machines=het_spec) as het_session:
        het_result = het_session.run(q, db, label="triangle-hetero")
        _check(np.array_equal(het_result.answers_array(), expected),
               "heterogeneous run equals the sequential join")
        het_record = het_session.history[-1]
        _check(het_record.makespan_bits is not None,
               "heterogeneous run records its measured makespan")
        print(f"  {het_record.line()}")
        print("  (speed-weighted shares: fast servers take more bits; "
              f"makespan {het_record.makespan_bits:.0f} <= "
              f"L {het_result.max_load_bits:.0f})")
        _check(het_record.makespan_bits <= het_result.max_load_bits + 1e-9,
               "makespan never exceeds the raw max load")

    print("\nSession workload (one configured cluster, many queries,")
    print("traced -- every run records a queryable JSONL artifact):")
    # Always trace the session segment: into --trace-dir when given
    # (the artifact survives for `python -m repro trace` / CI upload),
    # else into a throwaway directory so the checks still run.
    tmp_trace = (
        tempfile.TemporaryDirectory(prefix="repro-trace-")
        if trace_dir is None
        else None
    )
    effective_trace_dir = trace_dir if trace_dir is not None else tmp_trace.name
    try:
        with Session(p=16, seed=0, trace=effective_trace_dir) as session:
            batch = session.run_many(
                [Job(q, db, label="triangle"), Job(zq, zdb, label="T2-zipf")],
                max_workers=2,
            )
            _check(np.array_equal(batch[0].answers_array(), expected),
                   "session triangle job equals the sequential join")
            _check(np.array_equal(batch[1].answers_array(), zexpected),
                   "session star job equals the sequential join")
            for line in session.workload_summary().splitlines():
                print(f"  {line}")
            records = session.history
            _check(
                all(r.trace_path is not None for r in records),
                "every traced run records a trace artifact",
            )
            query_view = TraceQuery(records[0].trace_path)
            _check(
                query_view.reconcile(batch[0].load_report) == {},
                "trace per-server bits reconcile with the LoadReport",
            )
            top = query_view.top_servers(k=3)
            print("  triangle trace: "
                  + ", ".join(f"#{s} {bits:.0f}b" for s, bits in top)
                  + f" (top 3 of {len(query_view.server_bits())} servers; "
                  "see `python -m repro trace`)")
    finally:
        if tmp_trace is not None:
            tmp_trace.cleanup()

    print("\nMulti-round tradeoff for L16 (Cor 5.15, tight):")
    for eps in (0.0, 0.5):
        lo_r = chain_round_lower_bound(16, eps)
        hi_r = chain_rounds_upper_bound(16, eps)
        _check(lo_r == hi_r, f"L16 round bound tight at eps={eps}")
        print(f"  eps = {eps}: {lo_r} rounds (lower = upper = {hi_r})")
    print("\nAll tour checks passed.  Run `pytest tests/paper` for "
          "all reproduction tables.")


def _machine_spec(text: str) -> MachineSpec:
    """argparse type for ``--machines``: a ``MachineSpec.parse`` spec."""
    try:
        return MachineSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive_mb(text: str) -> float:
    """argparse type for ``--memory-budget-mb``: a positive float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"memory budget must be positive, got {value:g}"
        )
    return value


def _positive_int(text: str) -> int:
    """argparse type for counts (``--p``, ``--m``, ``--repeat``, ...)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    """argparse type for ``--skew`` and ``--capacity-bits``: a float >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return value


def run_plan_command(args: argparse.Namespace) -> None:
    """``python -m repro plan QUERY``: the EXPLAIN table, nothing run."""
    db = _generate_database(args)
    print(planner_plan(args.query, db, args.p, machines=args.machines).table())


def _generate_database(args: argparse.Namespace):
    """The plan/run subcommands' shared database generation."""
    if args.skew > 0:
        db = zipf_database(
            args.query, m=args.m, n=args.n, skew=args.skew, seed=args.seed,
        )
        flavour = f"zipf(skew={args.skew:g})"
    else:
        db = matching_database(
            args.query, m=args.m, n=args.n, seed=args.seed
        )
        flavour = "matching"
    print(f"{flavour} database: m={args.m}, n={args.n}, seed={args.seed}\n")
    return db


def run_run_command(args: argparse.Namespace) -> None:
    """``python -m repro run QUERY``: a Session workload, checked."""
    db = _generate_database(args)
    budget_bytes = (
        int(args.memory_budget_mb * 2**20)
        if args.memory_budget_mb is not None
        else None
    )
    config = ClusterConfig(
        p=args.p,
        seed=args.seed,
        capacity_bits=args.capacity_bits,
        on_overflow=args.on_overflow,
        memory_budget_bytes=budget_bytes,
        pool=args.pool,
        max_workers=args.max_workers,
        trace=args.trace_dir,
        machines=args.machines,
        metrics=args.metrics or args.metrics_out is not None,
    )
    expected = evaluate_arrays(args.query, db.arrays(args.query))
    # One statistics collection feeds every job: the repeats run over
    # the same database, so re-scanning per job would only add noise.
    stats = DataStatistics.from_database(args.query, db, args.p)
    with Session(config) as session:
        jobs = [
            Job(args.query, db, strategy=args.strategy, stats=stats,
                label=f"job-{i}")
            for i in range(args.repeat)
        ]
        try:
            results = session.run_many(
                jobs,
                max_workers=args.max_workers,
                metrics_every=args.metrics_every,
            )
        except (KeyError, ValueError, LoadExceededError) as exc:
            # Unknown/inapplicable strategy, a breached capacity in
            # fail mode etc.: a clean nonzero exit.
            print(f"CHECK FAILED: {exc}", file=sys.stderr)
            raise TourCheckFailed(str(exc)) from exc
        for index, result in enumerate(results):
            dropped = result.load_report.dropped_bits
            _check(
                dropped > 0 or np.array_equal(result.answers_array(), expected),
                f"job-{index} answers equal the sequential join",
            )
        print(session.workload_summary())
        if args.trace_dir is not None:
            traced = [
                record.trace_path
                for record in session.history
                if record.trace_path
            ]
            print(
                f"traced {len(traced)} run(s) -> {args.trace_dir} "
                f"(summarize with `python -m repro trace {args.trace_dir}`)"
            )
        if session.storage is not None:
            print(
                "out-of-core: spilled "
                f"{session.storage.bytes_spilled / 2**20:.1f} MiB in "
                f"{session.storage.files_created} spill files "
                f"(chunk_rows={session.storage.chunk_rows})"
            )
        if session.metrics is not None:
            registry = session.metrics
            # Self-check: the registry's totals must reconcile
            # *exactly* (float ==) with the runs' LoadReport counters
            # -- bit counts are integer-valued doubles, so the sums are
            # order-independent and exact.
            _check(
                registry.total("repro_runs_total") == float(len(results)),
                "metrics run count equals the batch size",
            )
            _check(
                registry.value("repro_sim_bits_total")
                == sum(r.load_report.total_bits for r in results),
                "metrics bits total reconciles with the LoadReports",
            )
            _check(
                registry.value("repro_sim_dropped_bits_total")
                == sum(r.load_report.dropped_bits for r in results),
                "metrics dropped-bits total reconciles with the "
                "LoadReports",
            )
            # The spill totals reconcile against the shared manager's
            # own counters (not summed per-run deltas, which overlap
            # under thread concurrency).  Process-mode batches spill
            # into worker-side managers that die with their process,
            # so there is nothing to reconcile against here.
            if session.storage is not None:
                _check(
                    registry.value("repro_spill_bytes_written_total")
                    == float(session.storage.bytes_spilled),
                    "metrics spill bytes reconcile with the storage "
                    "manager",
                )
            print("\nmetrics (totals reconcile with the LoadReports):")
            print(render_text(registry.snapshot()), end="")
            if args.metrics_out is not None:
                write_snapshot(registry.snapshot(), args.metrics_out)
                print(
                    f"metrics snapshot -> {args.metrics_out} (render with "
                    f"`python -m repro metrics {args.metrics_out}`)"
                )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction smoke tour and cost-based planner CLI.",
    )
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="record communication traces as JSONL artifacts under DIR "
             "(tour: the Session segment; run: every job); summarize "
             "them with `python -m repro trace DIR`",
    )
    # The workload flags ``plan`` and ``run`` share.
    workload = argparse.ArgumentParser(add_help=False)
    workload.add_argument("query", type=parse_query,
                          help="triangle, join, K4, L5, C4, T3, SP2, ...")
    workload.add_argument("--p", type=_positive_int, default=64,
                          help="number of servers (default 64)")
    workload.add_argument("--m", type=_positive_int, default=2000,
                          help="tuples per relation (default 2000)")
    workload.add_argument("--n", type=_positive_int, default=None,
                          help="domain size (default 4*m; at least m "
                               "for a matching database)")
    workload.add_argument("--skew", type=_non_negative_float, default=0.0,
                          help="zipf skew; 0 generates a matching "
                               "database (default 0)")
    workload.add_argument("--seed", type=int, default=0)
    workload.add_argument(
        "--machines", type=_machine_spec, default=None, metavar="SPEC",
        help="heterogeneous machine spec, e.g. 4x1,4x2 (4 machines at "
             "speed 1 + 4 at speed 2; must match --p); estimates switch "
             "to the speed-normalized makespan objective, shares and "
             "routing become speed-weighted",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser(
        "plan", parents=[workload],
        help="print the planner's EXPLAIN cost table for a query",
    )
    run_parser = sub.add_parser(
        "run", parents=[workload],
        help="run a Session workload for a query (checked answers)",
    )
    run_parser.add_argument("--strategy", default=None,
                            help="pin a strategy by name instead of the "
                                 "planner's winner (e.g. hypercube, "
                                 "skew-star, multiround)")
    run_parser.add_argument("--repeat", type=_positive_int, default=1,
                            help="number of seed-derived jobs (default 1)")
    run_parser.add_argument("--max-workers", type=_positive_int, default=None,
                            help="run_many's job threads and each "
                                 "engine pool's workers (default: "
                                 "min(cpus, 8); the batch also caps it "
                                 "at the job count)")
    run_parser.add_argument(
        "--pool", choices=POOL_KINDS, default="serial",
        help="worker pool for each run's per-server routing/join fan-out; "
             "the jobs themselves always run on threads (default serial; "
             "results are bit-identical across pools)",
    )
    run_parser.add_argument("--capacity-bits", type=_non_negative_float, default=None,
                            help="per-server per-round load cap L")
    run_parser.add_argument("--on-overflow", choices=("fail", "drop"),
                            default="fail",
                            help="what a binding capacity cap does "
                                 "(default fail)")
    run_parser.add_argument(
        "--memory-budget-mb", type=_positive_mb, default=None, metavar="MB",
        help="resident-set budget; over-budget runs stream through the "
             "session's shared spill directory (identical results)",
    )
    run_parser.add_argument(
        "--metrics", action="store_true",
        help="collect telemetry (repro.metrics) for the workload, "
             "print the Prometheus-style exposition, and self-check "
             "that the totals reconcile exactly with the LoadReports",
    )
    run_parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="also write the registry snapshot as JSON to FILE "
             "(render or diff it with `python -m repro metrics`); "
             "implies --metrics",
    )
    run_parser.add_argument(
        "--metrics-every", type=_positive_int, default=None, metavar="N",
        help="print a progress line every N completed jobs "
             "(works with or without --metrics)",
    )
    # Accept the global flag after the subcommand too; SUPPRESS keeps a
    # pre-subcommand value from being clobbered by a subparser default.
    run_parser.add_argument(
        "--trace-dir", default=argparse.SUPPRESS, metavar="DIR",
        help=argparse.SUPPRESS,
    )
    trace_parser = sub.add_parser(
        "trace",
        help="summarize recorded trace artifacts (a .jsonl file or a "
             "directory of them)",
    )
    trace_parser.add_argument(
        "path",
        help="a trace .jsonl file, or a directory whose *.jsonl traces "
             "are all summarized",
    )
    trace_parser.add_argument(
        "--top", type=_positive_int, default=5, metavar="K",
        help="entries in the top-servers / hottest-tags tables "
             "(default 5)",
    )
    metrics_parser = sub.add_parser(
        "metrics",
        help="render or diff a metrics snapshot artifact "
             "(from `run --metrics-out` or repro.metrics.write_snapshot)",
    )
    metrics_parser.add_argument(
        "path", help="a snapshot JSON file (schema repro.metrics/1)"
    )
    metrics_parser.add_argument(
        "--json", action="store_true",
        help="print the raw snapshot JSON instead of the "
             "Prometheus-style text",
    )
    metrics_parser.add_argument(
        "--diff", default=None, metavar="OTHER",
        help="print per-series deltas from PATH to OTHER",
    )
    # ``check`` declares nothing itself: every argument after it,
    # ``--help`` included, belongs to the analyzer's own parser.
    sub.add_parser(
        "check", add_help=False,
        help="statically check source for determinism / parallel-safety "
             "/ hook-hygiene invariants (repro.checks)",
    )
    args, extra = parser.parse_known_args(argv)
    if args.command == "check":
        from repro.checks import cli as checks_cli

        code = checks_cli.main(extra)
        if code:
            raise SystemExit(code)
        return
    if extra:
        (sub.choices[args.command] if args.command else parser).error(
            f"unrecognized arguments: {' '.join(extra)}"
        )
    if args.command in ("plan", "run"):
        if args.n is None:
            args.n = 4 * args.m
        elif args.skew <= 0 and args.m > args.n:
            sub.choices[args.command].error(
                f"argument --m: a matching database needs --m <= --n "
                f"(got --m {args.m}, --n {args.n}); raise --n or pass --skew"
            )
        if args.machines is not None:
            try:
                args.machines.require_p(args.p)
            except ValueError as exc:
                sub.choices[args.command].error(f"argument --machines: {exc}")
    if args.command == "plan":
        run_plan_command(args)
    elif args.command == "run":
        run_run_command(args)
    elif args.command == "trace":
        try:
            print(render_path(args.path, top=args.top))
        except FileNotFoundError as exc:
            print(f"CHECK FAILED: {exc}", file=sys.stderr)
            raise TourCheckFailed(str(exc)) from exc
    elif args.command == "metrics":
        try:
            print(
                render_snapshot_path(
                    args.path, as_json=args.json, diff=args.diff
                ),
                end="",
            )
        except (FileNotFoundError, ValueError) as exc:
            print(f"CHECK FAILED: {exc}", file=sys.stderr)
            raise TourCheckFailed(str(exc)) from exc
    else:
        run_tour(trace_dir=args.trace_dir)


if __name__ == "__main__":
    main()
