"""A worker task body delivering its routed partition itself.

The partition delivery mutates accounting exactly like ``send_array``:
done in a worker it is lost (processes) or interleaved (threads).
"""


def route_partition_task(task):
    partition = task.route(task.source.load())
    task.sim.send_partition(task.tag, partition)  # line 10: parent-accounting
    return task.tag
