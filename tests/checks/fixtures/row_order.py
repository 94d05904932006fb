"""Private row orders beside the packed-key kernel (repro.data.arrays)."""

import numpy as np
from repro.data.arrays import group_order, unique_rows


def hand_rolled(rows, servers):
    canonical = rows[np.lexsort(rows.T[::-1])]  # line 8: row-order
    distinct = np.unique(rows, axis=0)  # line 9: row-order
    order = np.argsort(servers, kind="stable")  # line 10: row-order
    grouped = servers.argsort(kind="stable")  # line 11: row-order
    return canonical, distinct, order, grouped


def through_the_kernel(rows, servers):
    order, starts = group_order(servers)
    values = np.unique(rows[:, 0])  # 1-D unique is not a row order
    fast = np.argsort(servers)  # unstable argsort makes no order promise
    return unique_rows(rows), order, starts, values, fast
