"""Timings normalised to a reference machine speed.

The benchmark runs on shared two-CPU machines whose speed drifts by up to
2x for seconds to minutes at a time, as neighbours load the host: the same
interpreter start-up measured 68 ms, then 97 ms a few seconds later, in CPU
time as well as in wall time.  A fixed pure-Python loop, timed next to the
work, measures that drift; dividing by it leaves the cost of the work
itself.  Every timing the benchmark reports is

    raw seconds * NOMINAL_S / (loop seconds measured at that moment)

that is, the time the work would take on a machine where the loop takes
NOMINAL_S.  The loop never calls the package, so a change to the package
moves the normalised numbers as it moves the raw ones.

Whole processes (a CLI call, a set-up child) spend much of their time in
exec, page faults and imports, which drift differently from a Python loop;
they are normalised instead by a bare interpreter (`python -c pass`)
started next to them, with NOMINAL_SPAWN_S as its reference time.

`Calibrator.mark()` times the probe.  The stretch between two marks is
normalised by the mean probe time at its two ends, and `norm()` adds up the
normalised stretches an interval covers, leaving the marks' own time out.
In a process that runs the work itself, `sampling()` also marks every
INTERVAL_S from a timer signal, so that a drift inside one long call (a
derivation can take 15 s) is followed too.
"""
import bisect
import contextlib
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction

NOMINAL_S = 0.0015       # the loop's time at the reference speed (Xeon, CPython 3.11)
NOMINAL_SPAWN_S = 0.050  # a bare interpreter's start-to-exit time at that speed
INTERVAL_S = 0.2         # timer-driven marks this often while sampling
REPEATS = 3              # a loop mark is the fastest of this many loops, to drop interrupts


def loop():
    """Fixed work in the library's style: tuples, dicts, ints and Fractions."""
    d = {}
    for i in range(500):
        k = (i % 37, i % 11)
        d[k] = d.get(k, Fraction(0)) + Fraction(i, 7)
    s = 0
    for i in range(2000):
        s += (i * i) % 97
    return s


def _best_loop():
    best = None
    for _ in range(REPEATS):
        t = time.perf_counter()
        loop()
        dt = time.perf_counter() - t
        best = dt if best is None else min(best, dt)
    return best


def _bare_spawn():
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONHASHSEED": "0",
           "LC_ALL": "C.UTF-8"}
    t = time.perf_counter()
    # a blocking wait: Popen.wait with a timeout polls, in steps of up to 50 ms
    if subprocess.Popen([sys.executable, "-c", "pass"], env=env).wait() != 0:
        raise RuntimeError("a bare interpreter failed to start")
    return time.perf_counter() - t


class Calibrator:
    """Marks for in-process work (the loop) or, with `spawns=True`, for
    whole processes (a bare interpreter)."""

    def __init__(self, spawns=False):
        self.probe, self.nominal = (_bare_spawn, NOMINAL_SPAWN_S) if spawns else (_best_loop, NOMINAL_S)
        self.starts, self.ends, self.loops = [], [], []

    def mark(self):
        start = time.perf_counter()
        took = self.probe()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.loops.append(took)

    @contextlib.contextmanager
    def sampling(self):
        """Mark before, every INTERVAL_S during, and after the block."""
        self.mark()
        old = signal.signal(signal.SIGALRM, lambda signum, frame: self.mark())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            self.mark()

    def _factor(self, g):
        """Normalising factor of gap g (between marks g and g + 1)."""
        return 2 * self.nominal / (self.loops[g] + self.loops[g + 1])

    def norm(self, t0, t1):
        """Normalised length of the interval t0 .. t1, without marks in it."""
        total = 0.0
        g = max(0, bisect.bisect_right(self.ends, t0) - 1)
        while g + 1 < len(self.starts) and self.ends[g] < t1:
            lo, hi = max(t0, self.ends[g]), min(t1, self.starts[g + 1])
            if hi > lo:
                total += (hi - lo) * self._factor(g)
            g += 1
        return total

    def raw_loop_s(self):
        return sorted(self.loops)[len(self.loops) // 2]
