"""Host speed: a fixed reference job timed next to every measured call.

The benchmark runs on shared hosts whose speed drifts by up to about 2x
over minutes (other tenants on the same cores), which moves every wall and
CPU time alike.  :func:`reference_s` times a fixed piece of pure-Python
work, independent of the program under test, in as many forked processes
at once as the workload keeps busy, so it sees the cores they use.  Times
measured around it are scaled by ``NOMINAL_S / reference``: they read as
they would on a host where the reference job takes ``NOMINAL_S``.
A faster program still reads faster by the same factor; a slower host no
longer does.
"""

from __future__ import annotations

import gc
import heapq
import math
import os
import struct
import time
from typing import Tuple

#: Seconds the reference job is taken to last on the nominal host (about
#: its time on an idle 2-vCPU machine of the kind the benchmark was sized on).
NOMINAL_S = 0.25

#: Iterations of the reference loop (about ``NOMINAL_S`` on that machine).
REFERENCE_STEPS = 350_000


def reference_work(steps: int = REFERENCE_STEPS) -> float:
    """Interpreter-bound work in the mix a discrete-event simulator does.

    A small event heap, float math and dict updates; it allocates little
    and reads nothing from the caller.
    """
    heap = []
    table = {}
    total = 0.0
    for step in range(steps):
        heapq.heappush(heap, ((step * 7919) % 1009, step))
        if len(heap) > 64:
            key, value = heapq.heappop(heap)
            total += math.sqrt(key + 1.0) * 1.0001 - math.log1p(value)
        table[step & 511] = total
        total = table.get((step * 31) & 511, 0.0) * 0.5 + total * 0.5
    return total


def reference_s(processes: int) -> Tuple[float, float]:
    """Mean wall and CPU seconds of the reference job over ``processes``
    forked copies run at once; every copy has ended when this returns.

    Wall time slows both when another tenant holds the host's cores and
    when other processes share this machine's; CPU time only in the first
    case (where the host does not report it as steal time).
    """
    children = []
    try:
        for _ in range(processes):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # child: time the job, report, leave without cleanup
                os.close(read_end)
                code = 1
                try:
                    gc.disable()
                    wall, cpu = time.perf_counter(), time.process_time()
                    reference_work()
                    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
                    os.write(write_end, struct.pack("dd", wall, cpu))
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            children.append((pid, read_end))
        walls, cpus = [], []
        for _, read_end in children:
            data = os.read(read_end, 16)
            if len(data) != 16:
                raise RuntimeError("reference job ended without its times")
            wall, cpu = struct.unpack("dd", data)
            walls.append(wall)
            cpus.append(cpu)
        return sum(walls) / len(walls), sum(cpus) / len(cpus)
    finally:
        for pid, read_end in children:
            os.close(read_end)
            os.waitpid(pid, 0)


def scale(before_s: float, after_s: float) -> float:
    """Factor that turns a time measured between two reference timings
    (both wall or both CPU) into the time it would take on the nominal host."""
    return NOMINAL_S / ((before_s + after_s) / 2.0)
