"""Spill files read and written beside the storage subsystem."""

import numpy as np
from numpy import memmap


def private_format(path, rows, handle):
    np.save(path, rows)  # line 8: spill-format
    loaded = np.load(path, mmap_mode="r")  # line 9: spill-format
    mapped = memmap(path, dtype=np.int64, mode="r")  # line 10: spill-format
    raw = np.fromfile(path, dtype=np.int64)  # line 11: spill-format
    rows.tofile(path)  # line 12: spill-format
    return loaded, mapped, raw, handle.load()
