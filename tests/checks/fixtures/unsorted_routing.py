"""Reconstruction of the PR 3 unsorted-fragment-routing bug.

Servers come out of a set union, so the send order -- and with it the
per-server accounting sequence -- depends on hash randomization.
"""


def route_fragments(sim, pending, fragments):
    for server in pending | {0}:  # line 9: sorted-iteration
        sim.send_array(server, "R/input", fragments[server])
    targets = list({s + 1 for s in pending})  # line 11: sorted-iteration
    return targets
