"""The kernel module is where the fallbacks live: nothing here is a finding."""

import numpy as np


def fallback_order(rows, keys):
    return np.lexsort(rows.T[::-1]), np.argsort(keys, kind="stable")
