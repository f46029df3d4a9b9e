"""The calibration kernel (kept import-light: it runs before ``repro`` loads).

What it measures is how fast this CPU runs *interpreter work of the kind
the proxy does* right now: packing and slicing small byte strings, taking a
lock, pushing through a deque, a dict store, a method call.  On a shared
host that speed moves by a factor of 1.7 for seconds or minutes at a time,
and every timing in the benchmark is read against it.  A bare counting
loop moves by 1.8-2.0 under the same disturbance (it is all ALU), the
proxy's own workloads by 1.5-1.7; this mix was chosen to move like them.
"""

from __future__ import annotations

import os
import statistics
import struct
import sys
import threading
import time
from collections import deque

ITERATIONS = 400
SLICES = 15
_STAMP = struct.Struct(">QQ")


class _Cell:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, amount: int) -> int:
        self.total += amount
        return self.total


def _slice_ns() -> float:
    lock = threading.Lock()
    queue: deque = deque()
    table = {}
    cell = _Cell()
    tail = bytes(304)
    start = time.perf_counter_ns()
    for i in range(ITERATIONS):
        packet = _STAMP.pack(i, i * 3) + tail
        with lock:
            queue.append(packet)
        table[i & 63] = packet
        head = queue.popleft()
        seq, _stamp = _STAMP.unpack_from(head)
        cell.add(seq + len(head[16:48]))
        cell.add(sum(map(len, [head] * 8)))
    return (time.perf_counter_ns() - start) / ITERATIONS


def spin_ns_per_iter() -> float:
    """ns per iteration of the calibration kernel, median of several slices.

    Slices are short (~0.5 ms) with a yield between them, so a proxy thread
    waiting for the interpreter lock gets it within one slice; the median
    ignores a slice that was preempted.
    """
    readings = []
    for _ in range(SLICES):
        readings.append(_slice_ns())
        time.sleep(0)
    return statistics.median(readings)


def idle_filler(cpu: int) -> None:
    """Spin at the lowest priority on ``cpu`` until terminated."""
    if cpu >= 0 and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})
    os.nice(19)
    while True:
        spin_ns_per_iter()


if __name__ == "__main__" and sys.argv[1:2] == ["--idle-filler"]:
    idle_filler(int(sys.argv[2]))
