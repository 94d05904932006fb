"""One run fingerprint: everything a knob that must not matter must keep.

Two runs of one query on one database at one seed agree exactly when
their fingerprints are equal: the same answers, the same bits, tuples
and dropped bits on every server of every round, the same number of
servers used, and the same maximum and total loads.  Wall-clock and
phase seconds are not part of it.

    assert fingerprint(Session(p=8, pool="thread").run(q, db)) == (
        fingerprint(Session(p=8).run(q, db))
    )
"""

from __future__ import annotations

from repro.run import RunResult


def fingerprint(result: RunResult) -> tuple:
    """The bit-identity digest of one run."""
    report = result.report
    return (
        result.answers_array().tolist(),
        [sorted(r.bits.items()) for r in report.rounds],
        [sorted(r.tuples.items()) for r in report.rounds],
        [sorted(r.dropped_bits.items()) for r in report.rounds],
        result.servers_used,
        report.max_load_bits,
        report.total_bits,
    )
