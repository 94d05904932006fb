"""Entry points hand-rolling pool/machines defaults around repro.config."""


def run(query, machines=None, pool=None):
    machines = machines or "4x1"  # line 5: settings-resolution
    if pool is None:
        pool = "serial"  # line 7: settings-resolution
    return query, machines, pool
