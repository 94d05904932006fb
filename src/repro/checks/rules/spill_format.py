"""Spill-format ownership.

Spilled rows live in one append-only raw int64 segment file per spool;
``repro.storage`` writes them and ``SegmentSlice.load`` is their one
reader.  A ``np.save`` / ``np.load`` / ``np.memmap`` / ``np.fromfile``
/ ``.tofile(`` elsewhere in the package is a second owner of the
on-disk format -- the per-chunk ``.npy`` files it replaced paid four
file opens per chunk -- and drifts from the segment layout (offsets,
dtype, no header) that the handles encode.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.checks.engine import Finding, Module, Rule

#: Modules of the package itself; tests, the bench and examples may
#: build files on disk.
_PACKAGE_PATH = re.compile(r"(?:^|/)repro/(?!(?:tests|bench|examples)/)")

#: The storage subsystem owns the format.
_OWNER_PATH = re.compile(r"(?:^|/)repro/storage/")

_FILE_IO = {
    "numpy.save": "np.save",
    "numpy.load": "np.load",
    "numpy.memmap": "np.memmap",
    "numpy.fromfile": "np.fromfile",
}


class SpillFormatRule(Rule):
    id = "spill-format"
    description = (
        "np.save/np.load/np.memmap/np.fromfile and .tofile( live only in "
        "repro/storage/; read spilled rows through SegmentSlice.load"
    )

    def check(self, module: Module) -> Iterable[Finding]:
        if not _PACKAGE_PATH.search(module.posix):
            return
        if _OWNER_PATH.search(module.posix):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            use = _FILE_IO.get(module.dotted(node.func) or "")
            if use is None and (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "tofile"
            ):
                use = ".tofile()"
            if use is None:
                continue
            yield self.finding(
                module,
                node,
                f"{use} outside repro.storage; the spill segment format "
                "has one owner (use ChunkedRelation / SegmentSlice.load)",
            )
