#!/usr/bin/env python3
"""Compare two suite documents written by ``bench/run.py --out``.

``python3 bench/compare.py BASE.json NEW.json`` prints one row per
workload and end-to-end metric -- both values, the ratio with its base,
the bound from ``BENCHMARK.json`` and a verdict -- and exits non-zero on
any breach:

* ``REGRESSION``: NEW is worse than BASE by more than the metric's bound;
* ``unresolved``: the quartile spread of either side is wider than the
  bound, so the pair cannot show the metric unchanged (not a breach);
* ``MISMATCH``: ``max_load_bits``, ``failed_frac`` or a per-layer count
  differs.  They are deterministic in the seed, so with equal seeds and
  scales they must be exactly equal.

Per-layer timings are listed with their ratio for orientation; they have
no bound and never fail the comparison.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

SPEC_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: Per-layer metrics that are exact although their unit is not ``count``.
EXACT_LAYER = {"mpc.total_bits", "storage.bytes_written", "storage.bytes_read"}


def spread(metric: dict) -> float:
    """``(q3 - q1) / median`` when the metric carries quartiles, else 0."""
    if "q1" not in metric or not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def judge(declared: dict, base: dict, new: dict, exact: bool) -> tuple[float, str]:
    """``(share by which NEW is worse, verdict)`` for one metric."""
    a, b = base["value"], new["value"]
    if exact:
        return 0.0, "ok" if a == b else "MISMATCH"
    worse = (b - a) / abs(a) if a else float(b != a)
    if declared["better"] == "higher":
        worse = -worse
    bound = declared["bound"]
    if max(spread(base), spread(new)) > bound:
        return worse, "unresolved"
    return worse, "REGRESSION" if worse > bound else "ok"


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], int]:
    """The report lines and the number of breaches."""
    same_inputs = (base["seed"], base["scale"]) == (new["seed"], new["scale"])
    lines = [] if same_inputs else [
        "seeds or scales differ: exact-equality checks are skipped"]
    breaches = 0
    end_to_end = spec["end_to_end"] + [
        {"name": "failed_frac", "unit": "ratio", "better": "lower", "bound": 0.0}]
    for name in base["workloads"]:
        if name not in new["workloads"]:
            lines.append(f"{name}: missing from NEW")
            breaches += 1
            continue
        old_run, new_run = (doc["workloads"][name]["end_to_end"]["metrics"] for doc in (base, new))
        lines.append(f"{name}")
        lines.append(f"  {'metric':<28} {'base':>14} {'new':>14} {'new/base':>9} "
                     f"{'worse by':>9} {'bound':>6}  verdict")
        for declared in end_to_end:
            metric = declared["name"]
            exact = same_inputs and metric in ("max_load_bits", "failed_frac")
            a, b = old_run[metric], new_run[metric]
            worse, verdict = judge(declared, a, b, exact)
            breaches += verdict in ("REGRESSION", "MISMATCH")
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            lines.append(
                f"  {metric:<28} {a['value']:>14.6g} {b['value']:>14.6g} {ratio:>9.3f} "
                f"{worse:>+9.3f} {declared['bound']:>6.2f}  {verdict} "
                f"(base {a['value']:.6g} {declared['unit']})"
            )
        old_layers, new_layers = (doc["workloads"][name]["per_layer"]["metrics"] for doc in (base, new))
        for declared in spec["per_layer"]:
            metric = declared["name"]
            a, b = old_layers[metric]["value"], new_layers[metric]["value"]
            if declared["unit"] == "count" or metric in EXACT_LAYER:
                if same_inputs and a != b:
                    breaches += 1
                    lines.append(f"  {metric:<28} {a:>14.6g} {b:>14.6g}  MISMATCH (exact count)")
            elif a or b:
                ratio = b / a if a else float("nan")
                lines.append(f"  {metric:<28} {a:>14.6g} {b:>14.6g} {ratio:>9.3f}  "
                             f"(per-layer, no bound; base {a:.6g} {declared['unit']})")
    return lines, breaches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    args = parser.parse_args()
    spec = json.loads(SPEC_PATH.read_text())
    lines, breaches = compare(
        json.loads(args.base.read_text()), json.loads(args.new.read_text()), spec)
    print("\n".join(lines))
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
