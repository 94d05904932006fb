"""The traced pass: benchmark-side spans around each layer's public calls.

The program is not instrumented (that is a later change), so the layer
split is a *replay decomposition*: each cycle times one whole operation,
then calls the public functions the operation is made of, one by one, on
the workload's own inputs -- statistics scan, strategy ranking, the
chosen strategy's executor, and for HyperCube its share LP, routing,
simulator delivery and local join.  Every span names its parent, so a
layer's *self* time is its span minus its children's, and the self times
of the tree under ``session.run`` account for the whole operation; what
is left at the root is ``session.overhead_s``.

Probes that are not part of an operation (set-up, pool transport,
storage round-trip, the traced run itself) are recorded with parent
:data:`OUTSIDE` and listed below the table without a share.

Counts are exact and must repeat from cycle to cycle; a count that
moves voids the run.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import pickle
import statistics
import time

from repro import Session, TraceQuery
from repro.core.query import ConjunctiveQuery
from repro.data.database import Database
from repro.hashing.family import GridPartitioner, HashFamily, derive_seed
from repro.hypercube.algorithm import (
    local_join_fragments,
    resolve_shares,
    route_relation_arrays,
)
from repro.mpc.simulator import MPCSimulation
from repro.multiround.plans import candidate_plans
from repro.parallel import ArraySource, RouteTask, get_pool, route_task, shutdown_pools
from repro.planner import DataStatistics, plan
from repro.planner.engine import IN_MEMORY_FOOTPRINT_FACTOR
from repro.skew.heavy_hitters import HitterStatistics
from repro.skew.star import star_center
from repro.storage.chunked import ChunkedRelation, iter_array_chunks
from repro.storage.manager import StorageManager

from harness import Prepared, Tally, attempt, open_session, prepare
from workloads import Workload

ROOT = "session.run"
#: Parent of spans that are not part of one operation.
OUTSIDE = "-"
PHASES = ("generate", "route", "ship", "join", "merge")
#: Fewest cycles in a traced pass, whatever ``--seconds`` says (a cycle
#: is 2-4 operations plus every probe, so it costs 4-9 s at full size).
MIN_CYCLES = 2
#: Counts that legitimately differ between cycles (float text in the JSONL).
VARYING = {"trace.bytes"}


class Spans:
    """In-memory span log: name, parent, cycle, start and end in ns."""

    def __init__(self) -> None:
        self.events: list[dict] = []
        self.cycle = 0

    def add(self, name: str, parent: str | None, start_ns: int, end_ns: int) -> None:
        self.events.append({
            "name": name, "parent": parent, "cycle": self.cycle,
            "start_ns": start_ns, "end_ns": end_ns,
        })

    @contextlib.contextmanager
    def span(self, name: str, parent: str | None):
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.add(name, parent, start, time.perf_counter_ns())

    def add_seconds(self, name: str, parent: str | None, seconds: float) -> None:
        """Log an interval that was timed elsewhere (an operation's wall time)."""
        end = time.perf_counter_ns()
        self.add(name, parent, end - int(seconds * 1e9), end)

    def per_cycle_seconds(self, name: str) -> list[float]:
        """Per cycle, the summed duration of every ``name`` span in it."""
        totals: dict[int, int] = {}
        for e in self.events:
            if e["name"] == name:
                totals[e["cycle"]] = totals.get(e["cycle"], 0) + e["end_ns"] - e["start_ns"]
        return [ns / 1e9 for ns in totals.values()]

    def median_s(self, name: str) -> float:
        samples = self.per_cycle_seconds(name)
        return statistics.median(samples) if samples else 0.0

    def table(self) -> tuple[list[dict], list[dict]]:
        """``(in-operation rows with shares, stand-alone rows)``.

        Shaped like an NVTX range summary: name, share of time %, total
        ns, instances.  In-operation rows carry *self* time (span total
        minus children's totals, floored at zero -- a pooled parent can
        be shorter than its serially replayed children), so their shares
        sum to 100.
        """
        total: dict[str, int] = {}
        count: dict[str, int] = {}
        parent: dict[str, str | None] = {}
        for e in self.events:
            total[e["name"]] = total.get(e["name"], 0) + e["end_ns"] - e["start_ns"]
            count[e["name"]] = count.get(e["name"], 0) + 1
            parent[e["name"]] = e["parent"]
        in_tree = {n for n in total if _reaches_root(n, parent)}
        self_ns = {
            n: max(0, total[n] - sum(total[c] for c in in_tree if parent[c] == n))
            for n in in_tree
        }
        whole = sum(self_ns.values()) or 1
        rows = [
            {"name": n, "share_pct": 100.0 * self_ns[n] / whole,
             "total_ns": self_ns[n], "instances": count[n], "parent": parent[n]}
            for n in sorted(in_tree, key=lambda n: -self_ns[n])
        ]
        outside = [
            {"name": n, "total_ns": total[n], "instances": count[n]}
            for n in sorted(total) if n not in in_tree
        ]
        return rows, outside


def _reaches_root(name: str, parent: dict[str, str | None]) -> bool:
    while name in parent:
        if name == ROOT:
            return True
        name = parent[name]
    return False


def _job_storage(stack: contextlib.ExitStack, session: Session, database: Database,
                 tmp: pathlib.Path) -> StorageManager | None:
    """The manager a session with this budget would open for ``database``."""
    budget = session.config.memory_budget_bytes
    if budget is None or database.total_bytes() * IN_MEMORY_FOOTPRINT_FACTOR <= budget:
        return None
    return stack.enter_context(StorageManager.from_budget(budget, root=tmp / "probe-spill"))


def probe_planning(spans: Spans, prepared: Prepared, tmp: pathlib.Path, counts: dict) -> None:
    """Statistics scan, ranking, share LP and the chosen executor, per job."""
    config = prepared.session.config
    floor_ratio = prediction_ratio = 0.0
    batch = prepared.workload.batch
    for index, (job, reference) in enumerate(zip(prepared.jobs, prepared.reference)):
        query, database = job.query, job.database
        # run_many derives job i's seed from the session's; run uses it as is.
        seed = derive_seed(config.seed, index) if batch else config.seed
        with spans.span("planner.stats", ROOT):
            dstats = DataStatistics.from_database(query, database, config.p)
        with spans.span("planner.rank", ROOT):
            explained = plan(query, dstats, config.p)
        counts["planner.candidates"] = counts.get("planner.candidates", 0) + len(explained.ranked)
        candidate = explained.candidate(job.strategy) if job.strategy else explained.winner
        in_engine = candidate.name == "hypercube" and not batch
        with spans.span("core.share_lp", "session.engine" if in_engine else OUTSIDE):
            resolve_shares(query, dstats.stats, config.p)
        with contextlib.ExitStack() as stack:
            storage = _job_storage(stack, prepared.session, database, tmp)
            with spans.span("session.engine", ROOT):
                ran = candidate.strategy.run(
                    query, database, config.p, seed=seed, dstats=dstats,
                    storage=storage, settings=config.settings(),
                )
            loads = (ran.report.max_load_bits, ran.report.total_bits)
            rounds = ran.report.num_rounds
            # Free the result here, outside every span: tearing down a
            # large answer set must not be billed to the next probe.
            del ran
        if loads != reference:
            prepared.tally.void.append(f"{job.label}: replayed executor loads differ from the run's")
        if reference[0] == prepared.max_load_bits:
            floor_ratio = reference[0] / explained.lower_bound_bits
            prediction_ratio = reference[0] / candidate.estimate.load_bits
        if candidate.name == "skew-star":
            center = star_center(query)
            with spans.span("skew.hitter_scan", "planner.stats"):
                hitters = HitterStatistics.from_database(query, database, center, 1.0, config.p)
            counts["skew.heavy_hitters"] = len(hitters.hitters)
        if candidate.name == "multiround":
            with spans.span("multiround.plan_enum", "planner.rank"):
                candidate_plans(query)
            counts["multiround.rounds"] = rounds
    counts["planner.load_over_floor"] = floor_ratio
    counts["planner.prediction_ratio"] = prediction_ratio


def probe_hypercube(spans: Spans, prepared: Prepared, tmp: pathlib.Path, counts: dict) -> None:
    """HyperCube's own steps: hash, route, deliver, join -- on the real inputs."""
    job, config = prepared.jobs[0], prepared.session.config
    query: ConjunctiveQuery = job.query
    stats = job.database.statistics(query)
    shares = resolve_shares(query, stats, config.p)
    grid = GridPartitioner(
        [shares[v] for v in query.variables],
        HashFamily(config.seed, method=config.hash_method),
    )
    axis_of = {v: i for i, v in enumerate(query.variables)}
    with spans.span("hashing.hash", "hypercube.route"):
        for atom in query.atoms:
            rows = job.database[atom.relation].to_array()
            for position, variable in enumerate(atom.variables):
                grid.functions[axis_of[variable]].hash_array(rows[:, position])
    with contextlib.ExitStack() as stack:
        storage = _job_storage(stack, prepared.session, job.database, tmp)
        chunk_rows = storage.chunk_rows if storage is not None else config.chunk_rows
        with spans.span("hypercube.route", "session.engine"):
            routed = [
                (atom.relation, list(route_relation_arrays(
                    grid, query.variables, atom.variables, chunk)))
                for atom in query.atoms
                for chunk in iter_array_chunks(job.database[atom.relation], chunk_rows)
            ]
        sim = MPCSimulation(config.p, value_bits=stats.value_bits, storage=storage)
        sends = routed_rows = 0
        with spans.span("mpc.deliver", "session.engine"):
            sim.begin_round()
            for tag, groups in routed:
                for server, batch in groups:
                    sim.send_array(server, tag, batch)
                    sends += 1
                    routed_rows += len(batch)
            sim.end_round()
        del routed
        output_rows = 0
        with spans.span("join.local", "session.engine"):
            for server in range(config.p):
                fragments = sim.array_state(server)
                if fragments:
                    output_rows += len(local_join_fragments(query, fragments))
    counts.update({
        "hypercube.routed_rows": routed_rows,
        "hypercube.replication": routed_rows / prepared.input_tuples,
        "mpc.sends": sends,
        "mpc.total_bits": sim.report.total_bits,
        "join.output_rows": output_rows,
    })
    if (sim.report.max_load_bits, sim.report.total_bits) != prepared.reference[0]:
        prepared.tally.void.append("replayed routing delivers different loads than the run")
    if output_rows != len(prepared.oracles[0]):
        prepared.tally.void.append("replayed local joins disagree with the oracle's row count")


def probe_storage(spans: Spans, prepared: Prepared, tmp: pathlib.Path) -> None:
    """Write the input relations through the chunk store and read them back."""
    database = prepared.jobs[0].database
    budget = prepared.session.config.memory_budget_bytes
    with StorageManager.from_budget(budget, root=tmp / "probe-chunks") as storage:
        with spans.span("storage.write", OUTSIDE):
            chunked = [
                ChunkedRelation.from_array(relation.name, relation.to_array(), storage=storage)
                for relation in database
            ]
        with spans.span("storage.read", OUTSIDE):
            for relation in chunked:
                for chunk in relation.chunks():
                    int(chunk.sum())  # touch every page of the memmap


def probe_parallel(spans: Spans, prepared: Prepared, counts: dict) -> None:
    """The same route tasks through the process pool and inline."""
    job, config = prepared.jobs[0], prepared.session.config
    query = job.query
    shares = resolve_shares(query, job.database.statistics(query), config.p)
    tasks = [
        RouteTask(
            tag=atom.relation,
            source=ArraySource(rows=job.database[atom.relation].to_array()),
            dimension_variables=tuple(query.variables),
            atom_variables=tuple(atom.variables),
            shares=tuple(shares[v] for v in query.variables),
            family_seed=config.seed,
            hash_method=config.hash_method,
        )
        for atom in query.atoms
    ]
    with spans.span("parallel.pool_map", OUTSIDE):
        results = get_pool("process", config.max_workers).map(route_task, tasks)
    with spans.span("parallel.serial_map", OUTSIDE):
        get_pool("serial").map(route_task, tasks)
    counts["parallel.task_pickle_bytes"] = sum(len(pickle.dumps(t)) for t in tasks)
    # The trailing float is the worker's own wall time: fixed width once pickled.
    counts["parallel.result_pickle_bytes"] = sum(len(pickle.dumps(r)) for r in results)


def timed_op(spans: Spans, name: str, parent: str | None, prepared: Prepared,
             session: Session | None = None, **kwargs):
    """Run and verify one operation and log its wall time as a span."""
    seconds, results = attempt(prepared, session, **kwargs)
    if seconds is not None:
        spans.add_seconds(name, parent, seconds)
    return seconds, results


def traced_op(spans: Spans, prepared: Prepared, traced: Session, counts: dict) -> None:
    """One operation on the traced session; reconcile its trace with its report."""
    seconds, results = timed_op(spans, "session.run.traced", OUTSIDE, prepared, traced)
    if seconds is None:
        return
    events = size = 0
    for record, result in zip(traced.history[-len(results):], results):
        trace = TraceQuery(record.trace_path)
        events += len(trace.events)
        size += os.path.getsize(record.trace_path)
        if trace.reconcile(result.load_report):
            prepared.tally.failures.append(f"{record.label}: trace does not reconcile with the report")
    counts["trace.events"] = events
    counts["trace.bytes"] = size


def plain_op(spans: Spans, prepared: Prepared, counts: dict, phases: dict) -> None:
    """One untraced operation: the root span, plus what the program reports."""
    seconds, results = timed_op(spans, ROOT, None, prepared)
    if seconds is None:
        return
    with spans.span("session.materialize", OUTSIDE):
        for result in results:
            result.answers_array()
    records = prepared.session.history[-len(results):]
    for phase in PHASES:
        phases[phase] = sum(r.phase_seconds.get(phase, 0.0) for r in records)
    phases["unattributed"] = seconds - sum(phases.values())
    spill = results[0].load_report.spill_stats
    if spill is not None:
        counts.update({f"storage.{key}": spill[key]
                       for key in ("bytes_written", "files_created", "bytes_read")})


def cycle(spans: Spans, prepared: Prepared, sessions: dict, tmp: pathlib.Path) -> tuple[dict, dict]:
    """One untraced operation, one traced one, and every layer probe."""
    counts: dict = {}
    phases: dict = {}
    pair = [
        lambda: plain_op(spans, prepared, counts, phases),
        lambda: traced_op(spans, prepared, sessions["traced"], counts),
    ]
    # Alternate which side goes first, so neither always inherits the
    # other's warm caches or garbage.
    for op in pair[::-1] if spans.cycle % 2 else pair:
        op()
    if "serial" in sessions:
        timed_op(spans, "session.run.serial", OUTSIDE, prepared, sessions["serial"])
    if prepared.workload.batch:
        timed_op(spans, "session.run.sequential", OUTSIDE, prepared, max_workers=1)
    probe_planning(spans, prepared, tmp, counts)
    if not prepared.workload.batch and prepared.strategies[0] == "hypercube":
        probe_hypercube(spans, prepared, tmp, counts)
    if prepared.session.config.memory_budget_bytes is not None:
        probe_storage(spans, prepared, tmp)
    if prepared.session.config.pool == "process":
        probe_parallel(spans, prepared, counts)
    return counts, phases


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced_pass(
    workload: Workload, seed: int, seconds: float, scale: float, ops: int | None,
    tmp: pathlib.Path,
) -> dict:
    """The per-layer pass: one set-up, then cycles of operation + probes."""
    spans = Spans()
    with contextlib.ExitStack() as stack:
        prepared = prepare(workload, seed, scale, Tally())
        stack.callback(prepared.close)
        spans.add_seconds("setup", OUTSIDE, prepared.setup_seconds)
        spans.add_seconds("data.generate", OUTSIDE, prepared.generate_seconds)
        if prepared.pool_start_seconds:
            spans.add_seconds("parallel.pool_start", OUTSIDE, prepared.pool_start_seconds)
        sessions = {"traced": stack.enter_context(
            open_session(workload, scale, trace=tmp / "traces", metrics=True))}
        if prepared.session.config.pool == "process":
            sessions["serial"] = stack.enter_context(
                open_session(workload, scale, pool="serial", max_workers=None))
        cycles: list[tuple[dict, dict]] = []
        started = time.perf_counter()
        while (
            len(cycles) < ops
            if ops is not None
            else len(cycles) < MIN_CYCLES or time.perf_counter() - started < seconds
        ):
            spans.cycle = len(cycles)
            cycles.append(cycle(spans, prepared, sessions, tmp))
    shutdown_pools()

    counts = cycles[-1][0]
    exact = [{k: v for k, v in c.items() if k not in VARYING} for c, _ in cycles]
    if any(c != exact[-1] for c in exact):
        prepared.tally.void.append("a count changed between cycles")
    phases = [p for _, p in cycles if p] or [dict.fromkeys((*PHASES, "unattributed"), 0.0)]
    run_s = spans.median_s(ROOT)
    stats_s, rank_s = spans.median_s("planner.stats"), spans.median_s("planner.rank")
    engine_s = spans.median_s("session.engine")
    strategy = prepared.strategies[0] if not workload.batch else None
    values = {
        "planner.stats_s": stats_s,
        "planner.rank_s": rank_s,
        "core.share_lp_s": spans.median_s("core.share_lp"),
        # The hash probe hashes every column of every atom of the (single) query.
        "hashing.hash_ns_per_value": spans.median_s("hashing.hash") * 1e9 / sum(
            len(job.database[atom.relation]) * atom.arity
            for job in prepared.jobs for atom in job.query.atoms),
        "hypercube.route_s": spans.median_s("hypercube.route"),
        "mpc.deliver_s": spans.median_s("mpc.deliver"),
        "join.local_s": spans.median_s("join.local"),
        "skew.hitter_scan_s": spans.median_s("skew.hitter_scan"),
        "skew.engine_s": engine_s if strategy == "skew-star" else 0.0,
        "multiround.plan_enum_s": spans.median_s("multiround.plan_enum"),
        "multiround.engine_s": engine_s if strategy == "multiround" else 0.0,
        "storage.write_s": spans.median_s("storage.write"),
        "storage.read_s": spans.median_s("storage.read"),
        "storage.write_amp": _ratio(
            counts.get("storage.bytes_written", 0),
            sum(job.database.total_bytes() for job in prepared.jobs)),
        "parallel.pool_start_s": spans.median_s("parallel.pool_start"),
        "parallel.transport_s": (
            spans.median_s("parallel.pool_map") - spans.median_s("parallel.serial_map")),
        "parallel.speedup": _ratio(spans.median_s("session.run.serial"), run_s),
        "session.engine_s": engine_s,
        "session.overhead_s": run_s - stats_s - rank_s - engine_s,
        "session.batch_speedup": _ratio(spans.median_s("session.run.sequential"), run_s),
        "session.materialize_s": spans.median_s("session.materialize"),
        "data.generate_s": prepared.generate_seconds,
        "trace.overhead_ratio": _ratio(spans.median_s("session.run.traced"), run_s),
        **{f"run.phase.{phase}_s": statistics.median(p[phase] for p in phases)
           for phase in PHASES},
        "run.unattributed_s": statistics.median(p["unattributed"] for p in phases),
        **counts,
    }
    rows, outside = spans.table()
    return {
        **prepared.tally.result(),
        "context": {**prepared.describe(), "cycles": len(cycles), "run_s_p50": run_s},
        "metrics": {name: {"value": value} for name, value in values.items()},
        "layer_table": rows,
        "standalone_spans": outside,
        "spans": spans.events,
    }
