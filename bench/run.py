#!/usr/bin/env python3
"""The repo's benchmark: six workloads, end-to-end and per-layer metrics.

Two ways in, one measurement path:

* ``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
  runs **one pass of one workload** and prints, as the last line of
  stdout, one JSON object ``{"correct", "attempted", "failed",
  "metrics"}`` -- the end-to-end metrics with ``--trace 0`` (tracing
  off), the per-layer metrics with ``--trace 1`` (traced session plus
  benchmark-side spans).  This is the form the driver calls.
* ``python3 bench/run.py [--seed 1] [--workload NAME]... [--out FILE]``
  (no ``--trace``) runs **the suite**: every named workload, one after
  another, both passes; checks the ``hc_*`` bit-identity across
  workloads; prints every metric by name with its unit and the per-layer
  table; writes one JSON document.

Either way a pass is measured in a fresh worker process (this script with
``--inner``), and :func:`contained` returns only once that worker and
every process it started have been waited for: the program's pools and
``multiprocessing``'s resource tracker -- which outlives the process
that spawned it -- are all gone before the next run starts.

Metric names, units, directions and bounds live in ``BENCHMARK.json`` at
the repo root; this script reads them from there.  ``bench/README.md``
documents workloads, metrics and how they interact.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys
import tempfile
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
HC_TRIO = ("hc_inmem", "hc_process", "hc_spill")
#: How long a worker's descendants get to exit by themselves once it has.
REAP_GRACE_SECONDS = 10.0


def bootstrap() -> None:
    """Make ``repro`` importable from the checkout's own ``src/``."""
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"bench: {src}/repro not found -- the benchmark measures the "
            "program in this checkout and cannot run without it"
        )
    sys.path.insert(0, str(src))


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def host_context() -> dict:
    """Where the numbers come from; recorded in every output."""
    import numpy
    import repro

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "version": repro.__version__,
        "git_sha": sha,
    }


# ------------------------------------------------------- process containment


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    A process whose parent has exited is then re-parented here instead
    of to init, so ``waitpid`` sees it -- however deep it was started.
    """
    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def live_children() -> list[int]:
    """Direct children of this process that are still running, from /proc."""
    me, found = str(os.getpid()), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                # "pid (comm) state ppid ..."; comm may hold spaces.
                state, ppid = handle.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue  # gone between listdir and open
        if ppid == me and state != "Z":
            found.append(int(entry))
    return found


def reap_descendants(grace: float = REAP_GRACE_SECONDS) -> None:
    """Wait until no descendant is left; kill what outstays ``grace``.

    With :func:`adopt_orphans` in force every live descendant hangs off
    a chain of live ancestors that ends here, so "no child left to wait
    for" means "no descendant left".
    """
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in live_children():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
            deadline = time.monotonic() + grace
        time.sleep(0.01)


def contained(command: list[str], **popen_kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run`` that also waits for everything the child started.

    On every path out -- normal exit, exception, SIGTERM or Ctrl-C --
    the child and all its descendants have ended before this returns.
    """
    adopt_orphans()
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    child = subprocess.Popen(command, **popen_kwargs)
    grace = REAP_GRACE_SECONDS
    try:
        stdout, stderr = child.communicate()
    except BaseException:
        # Interrupted: do not wait out the worker, ask it to stop (it
        # removes its scratch directory) and kill what is slow to.
        child.terminate()
        grace = 3.0
        raise
    finally:
        signal.signal(signal.SIGTERM, previous)
        try:
            child.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        reap_descendants(grace)
    return subprocess.CompletedProcess(command, child.returncode, stdout, stderr)


def inner_command(argv: list[str]) -> list[str]:
    """This script again, as the worker that measures one pass in-process."""
    return [sys.executable, str(BENCH_DIR / "run.py"), *argv, "--inner"]


# ------------------------------------------------------------------ one pass


def run_pass(args: argparse.Namespace, spec: dict, tmp: pathlib.Path) -> dict:
    """One workload, one pass, in this process; metrics annotated with units."""
    from harness import untraced_pass
    from layers import traced_pass
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload[0]]
    if args.trace:
        result = traced_pass(workload, args.seed, args.seconds, args.scale, args.ops, tmp)
    else:
        result = untraced_pass(workload, args.seed, args.seconds, args.scale, args.ops)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    measured = result["metrics"]
    names = {m["name"] for m in declared}
    # A per-layer metric of a layer this workload never enters reads 0;
    # an end-to-end metric has no such default.
    absent = set() if args.trace else names - set(measured)
    if absent or set(measured) - names:
        raise RuntimeError(
            "measured metrics and BENCHMARK.json disagree: "
            f"undeclared {sorted(set(measured) - names)}, unmeasured {sorted(absent)}"
        )
    result["metrics"] = {
        m["name"]: {**measured.get(m["name"], {"value": 0.0}), "unit": m["unit"]}
        for m in declared
    }
    result.update(
        workload=workload.name, seed=args.seed, trace=args.trace,
        scale=args.scale, host=host_context(),
    )
    return result


def print_pass(result: dict) -> None:
    """Every metric by name with its unit; then the layer table, if any."""
    context = result["context"]
    print(
        f"== {result['workload']} [{'per-layer' if result['trace'] else 'end-to-end'}] "
        f"seed {result['seed']}, {result['attempted']} op(s), "
        f"strategies {','.join(dict.fromkeys(context['strategies']))}, "
        f"{context['input_tuples']} input tuples, {sum(context['answer_rows'])} answers"
    )
    for name, metric in result["metrics"].items():
        spread = (
            f"  (n={metric['n']}, q1={metric['q1']:.6g}, q3={metric['q3']:.6g})"
            if "q1" in metric else ""
        )
        print(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}{spread}")
    print(f"  {'failed_frac':<32} {result['failed'] / result['attempted']:>16.6g} ratio"
          f"  ({result['failed']}/{result['attempted']})")
    for reason in result["failures"]:
        print(f"  FAILED: {reason}")
    if result.get("layer_table"):
        print(f"  {'layer (self time)':<32} {'share %':>8} {'total ns':>16} {'instances':>10}")
        for row in result["layer_table"]:
            print(f"  {row['name']:<32} {row['share_pct']:>8.1f} "
                  f"{row['total_ns']:>16d} {row['instances']:>10d}")
        print(f"  {'outside the operation':<32} {'':>8} {'total ns':>16} {'instances':>10}")
        for row in result["standalone_spans"]:
            print(f"  {row['name']:<32} {'':>8} {row['total_ns']:>16d} {row['instances']:>10d}")


def driver_line(result: dict) -> str:
    """The contract's last line: correct, attempted, failed, metrics."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in result["metrics"].items()
        },
    })


# ----------------------------------------------------------------- the suite


def run_suite(args: argparse.Namespace, tmp: pathlib.Path) -> dict:
    """Each workload's two passes in fresh worker processes, one after another."""
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    document = {
        "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "ops": args.ops, "host": host_context(), "workloads": {},
    }
    for name in names:
        passes = {}
        for trace in (0, 1):
            detail = tmp / f"{name}-{trace}.json"
            argv = [
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--scale", str(args.scale),
                "--trace", str(trace), "--detail", str(detail),
            ]
            if args.ops is not None:
                argv += ["--ops", str(args.ops)]
            child = contained(inner_command(argv), stdout=subprocess.PIPE, text=True)
            child.check_returncode()
            # Everything but the driver's machine-readable last line.
            print(child.stdout.rsplit("\n", 2)[0])
            passes["per_layer" if trace else "end_to_end"] = json.loads(detail.read_text())
        document["workloads"][name] = passes
    check_identity(document["workloads"])
    for name, passes in document["workloads"].items():
        run = passes["end_to_end"]
        run["metrics"]["failed_frac"] = {
            "value": run["failed"] / run["attempted"], "unit": "ratio",
        }
        print(f"{name}: failed_frac = {run['metrics']['failed_frac']['value']:g} "
              f"({run['failed']}/{run['attempted']})")
    return document


def check_identity(workloads: dict) -> None:
    """``hc_*`` must agree on loads and answers; a mismatch fails all three."""
    present = [name for name in HC_TRIO if name in workloads]
    seen = {
        name: json.dumps([workloads[name]["end_to_end"]["context"][key]
                          for key in ("max_load_bits", "total_bits", "answer_rows")])
        for name in present
    }
    if len(set(seen.values())) > 1:
        for name in present:
            run = workloads[name]["end_to_end"]
            run["failed"] = run["attempted"]
            run["failures"].append(f"hc_* bit-identity broken: {seen}")
        print(f"CROSS-WORKLOAD CHECK FAILED: {seen}")
    elif len(present) > 1:
        print(f"cross-workload check: {', '.join(present)} agree on "
              "max_load_bits, total_bits and answer count")


# ----------------------------------------------------------------------- CLI


def parse_args(spec: dict) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all six)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the data generators (and of nothing else)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long one pass measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one pass of one workload here: 0 end-to-end, 1 per-layer")
    parser.add_argument("--ops", type=int, default=None,
                        help="fixed operation (cycle) count instead of --seconds")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the inputs (smoke tests only; numbers are at 1.0)")
    parser.add_argument("--out", type=pathlib.Path, help="suite: write the JSON document here")
    parser.add_argument("--detail", type=pathlib.Path,
                        help="one pass: also write the full result (spans, quartiles) here")
    parser.add_argument("--inner", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.trace is not None and (not args.workload or len(args.workload) != 1):
        parser.error("--trace runs one pass and needs exactly one --workload")
    return args


def main() -> int:
    bootstrap()
    spec = load_spec()
    args = parse_args(spec)
    if args.trace is not None and not args.inner:
        return contained(inner_command(sys.argv[1:])).returncode
    # Spill files, traces and pool temporaries stay inside the checkout
    # and vanish with this one directory -- also when asked to stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parent = REPO_ROOT / ".bench_tmp"
    parent.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=parent) as scratch:
            tempfile.tempdir = os.environ["TMPDIR"] = scratch
            tmp = pathlib.Path(scratch)
            if args.trace is None:
                document = run_suite(args, tmp)
                if args.out is not None:
                    args.out.write_text(json.dumps(document, indent=1) + "\n")
                return 1 if any(
                    passes[kind]["failed"]
                    for passes in document["workloads"].values() for kind in passes
                ) else 0
            result = run_pass(args, spec, tmp)
            print_pass(result)
            if args.detail is not None:
                args.detail.write_text(json.dumps(result) + "\n")
            print(driver_line(result))
            return 0
    finally:
        tempfile.tempdir = None
        with contextlib.suppress(OSError):
            parent.rmdir()  # succeeds only when no other run is using it


if __name__ == "__main__":
    # The guard matters: the process pool spawns workers that re-import
    # this module, and an unguarded script would recurse into main().
    sys.exit(main())
