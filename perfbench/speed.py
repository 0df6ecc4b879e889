"""How fast this machine runs right now, against its nominal speed.

The machine's speed drifts by a third or more over tens of seconds
(README.md), so the benchmark scales every time it reports to nominal
speed: it multiplies the time by NOMINAL_S / t, t being the mean time of a
fixed kernel timed before and after the measured stretch (a timing is
reused while it is less than SPEED_EVERY_S old).

The kernel runs in a small sibling process, this file run as a script.
The measuring process asks it for one timing at a time and waits for the
answer, so the two never run at once.  For each timing the sibling pins
itself to the CPU that the measuring process is on, since the two vCPUs of
the machine in README.md drift apart at times.  The program's memory,
caches and allocator state cannot reach the kernel, and the kernel's
arrays stay out of the measuring process's peak RSS.  The "python" kernel
sums Fractions as the searches and torsion do (median of three timings);
the "numpy" kernel does int64 products, remainders and a nonzero over
16 MB arrays, as the tile filter does (one timing).

    python3 perfbench/speed.py numpy      # reads CPU numbers, prints timings
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

SPEED_EVERY_S = 0.5
STOP_TIMEOUT_S = 10
# fixed scales near each kernel's time on the machine in README.md; only
# their constancy matters, since figures are compared between runs
NOMINAL_S = {"python": 0.010, "numpy": 0.055}


class Speed:
    """Speed factors from a sibling kernel process; use as a context
    manager, so that the sibling is stopped and waited for."""

    def __init__(self, kind: str):
        self.kind = kind
        self.samples: list[float] = []
        self._taken = float("-inf")
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), kind],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        # the sibling has built its kernel and sits idle from here on
        if self._proc.stdout.readline() != "ready\n":
            self.close()
            raise RuntimeError("speed kernel process did not start")

    def sample(self, max_age: float = SPEED_EVERY_S) -> float:
        """The kernel's latest time, timed anew once max_age old."""
        if perf_counter() - self._taken >= max_age:
            self._proc.stdin.write("%d\n" % current_cpu())
            self._proc.stdin.flush()
            line = self._proc.stdout.readline()
            if not line:
                raise RuntimeError("speed kernel process ended")
            self.samples.append(float(line))
            self._taken = perf_counter()
        return self.samples[-1]

    def factor(self, before: float, after: float) -> float:
        """The scale for a stretch with kernel times `before` and `after`."""
        return NOMINAL_S[self.kind] / ((before + after) / 2)

    def close(self):
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def current_cpu() -> int:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def _kernel(kind: str):
    if kind == "numpy":
        import numpy
        array = numpy.arange(1 << 21, dtype=numpy.int64)

        def run():
            b = (array * 7919 + 13) % 65521
            numpy.nonzero(b * b % 4099 < 2048)
        return run, 1

    def run():
        total = Fraction(0)
        for k in range(1, 2000):
            total += Fraction(1, k)
    return run, 3


def serve(kind: str):
    """Answer each CPU number on stdin with one kernel time on that CPU,
    until stdin closes."""
    run, reps = _kernel(kind)
    print("ready", flush=True)
    for line in sys.stdin:
        os.sched_setaffinity(0, {int(line)})
        times = []
        for _ in range(reps):
            start = perf_counter()
            run()
            times.append(perf_counter() - start)
        print(repr(statistics.median(times)), flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in NOMINAL_S:
        raise SystemExit("usage: speed.py {%s}" % ",".join(NOMINAL_S))
    serve(sys.argv[1])
