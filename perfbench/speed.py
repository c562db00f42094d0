"""CPU speed probe: scales measured times to one reference CPU speed.

On a small shared machine a CPU's speed swings by up to 1.8× within
seconds, as other tenants come and go on the physical core behind it.  A
command's raw time then says more about its neighbours than about loopfold.
So each timed child is pinned to one CPU, and a probe thread on the same CPU
times a fixed unit of interpreter work (dictionary inserts of byte keys and
integer arithmetic, like loopfold's own inner loops) every ``PERIOD_S``
while the child runs.  The child's times are scaled by
``REFERENCE_UNIT_S / mean unit time``: the time the command would take on a
CPU that runs the unit in ``REFERENCE_UNIT_S``.

The probe measures its own thread CPU time, so the time slices it yields to
the child do not count as slowness.  It takes about 1% of the child's CPU.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

# An uncontended CPU of the 2-core machine the reference figures come from
# runs one unit in 0.45-0.5 ms.
REFERENCE_UNIT_S = 0.0005
PERIOD_S = 0.05


def unit() -> float:
    """Thread CPU seconds of one fixed unit of interpreter work."""
    start = time.thread_time()
    table = {}
    for i in range(1500):
        table[i.to_bytes(4, "little")] = i
    x = 0
    for i in range(3000):
        x = (x * 31 + i) & 0xFFFF
    return time.thread_time() - start


def pin_to_fastest_cpu() -> int:
    """Move the calling thread to the CPU that runs a unit fastest now;
    processes and threads it starts afterwards inherit the choice."""
    timings = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = min(unit() for _ in range(2))
    best = min(timings, key=timings.get)
    os.sched_setaffinity(0, {best})
    return best


def stolen_s(cpu: int) -> float:
    """Seconds the hypervisor has kept ``cpu`` from running this guest
    (the steal column of /proc/stat, in clock ticks)."""
    with open("/proc/stat", encoding="ascii") as stat:
        for line in stat:
            if line.startswith(f"cpu{cpu} "):
                return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    return 0.0


class SpeedProbe:
    """Samples the unit on the calling thread's CPU until :meth:`stop`."""

    def __init__(self):
        self._stop = threading.Event()
        self._samples: list[float] = []
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        self._samples.append(unit())
        while not self._stop.wait(PERIOD_S):
            self._samples.append(unit())

    def stop(self) -> float:
        """The scale factor from measured to reference time."""
        self._stop.set()
        self._thread.join()
        return REFERENCE_UNIT_S / statistics.mean(self._samples)
