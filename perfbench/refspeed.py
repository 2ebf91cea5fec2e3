"""Reference-speed probe that shares a CPU with the timed commands.

On a shared host the speed of one CPU changes by up to 2x within
seconds, as other tenants come and go, and the two CPUs of a small VM
change independently.  This probe runs a fixed pure-Python loop at low
priority on the same CPU as the commands (the runner pins itself, and
so every child, to one CPU).  The scheduler interleaves it with the
command every few milliseconds, so both see the same host speed.  For
each chunk of the loop it logs when the chunk ended and the CPU time it
took; a command's CPU time divided by the mean chunk CPU time over the
command's interval is the command's cost in chunks, which the host's
speed does not change.

Run as a script, it loops until SIGTERM, then writes its log to the
file named by its one argument as native float64 pairs
``(monotonic end, CPU seconds)``:

    python3 perfbench/refspeed.py chunks.bin
"""

from __future__ import annotations

import os
import signal
import sys
import time
from array import array

# Added to the probe's nice value: at nice 10 the scheduler gives it
# about a tenth of a CPU that a command at nice 0 also wants.
NICE = 10


def chunk() -> int:
    """About a millisecond of dict, tuple-hash and int work, the mix of
    the cotor hot loops."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(2000):
        k = (i * 2654435761) & 0xFFF
        table[k] = table.get(k, 0) + (i ^ (i >> 3))
        acc ^= hash((k, i & 7))
    return acc


def spin(out: str) -> None:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    os.nice(NICE)
    log = array("d")
    while not stop:
        c0 = time.thread_time()
        chunk()
        c1 = time.thread_time()
        log.append(time.monotonic())
        log.append(c1 - c0)
    with open(out, "wb") as fh:
        log.tofile(fh)


def load(path: str) -> list[tuple[float, float]]:
    """The ``(end, cpu_s)`` pairs written by ``spin``."""
    log = array("d")
    with open(path, "rb") as fh:
        log.frombytes(fh.read())
    return list(zip(log[0::2], log[1::2]))


if __name__ == "__main__":
    spin(sys.argv[1])
