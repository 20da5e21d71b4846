"""CPU time scaled by the machine's momentary speed.

On a machine that shares its cores the same code runs faster or slower
from one moment to the next: the host gives the virtual CPU away (steal
time), and when it runs, other tenants share its core and caches.  A
wall-clock time follows both.  The benchmark therefore times work in CPU
time, which leaves steal time out, and scales each stretch of it by the
speed of a fixed reference kernel timed right next to it:

    scaled = cpu_seconds * REFERENCE_S / (mean CPU time of the kernel
                                          calls around that stretch)

A scaled time is what the work would take at the speed where one kernel
call takes ``REFERENCE_S``.  The kernel is plain Python in this file, so a
change to the package cannot change it.  Its time is bimodal on a shared
core (about 0.25 ms and 0.45 ms here) and the share of each mode drifts; a
mean follows that share where a median would jump between the modes.

While work runs, an interval timer closes the current stretch every
``INTERVAL_S`` and times one kernel call in a signal handler; the call's
time is left out of the work.  The timer runs on wall-clock time: while a
timer on process CPU time runs, Linux reads the process CPU clock only at
scheduler ticks, 4 ms apart.  A child process runs the same timer
(``cli_launch.py``) and hands its kernel timings to :meth:`Meter.add_child`.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

#: CPU seconds of one kernel call at the reference speed, near its median
#: on a 2-CPU shared Xeon virtual machine under Python 3.11.7.
REFERENCE_S = 0.0004
#: Wall-clock time between two kernel calls.
INTERVAL_S = 0.02
#: Kernel calls taken on each side of a stretch to judge the speed there.
SIDE = 4

_TABLE = [(k * 2654435761) % 65521 for k in range(1024)]


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


def kernel() -> int:
    """A fixed mix of what pure-Python code spends its time on."""
    seen: set[int] = set()
    counts: dict[int, int] = {}
    acc = 0
    for v in _TABLE:
        acc = _mix(acc, v)
        if v & 1:
            seen.add(v >> 4)
        counts[v & 255] = counts.get(v & 255, 0) + 1
    return acc + len(seen) + len(counts)


def _speed_of(refs: list[float]) -> float:
    """Mean kernel time, leaving out the slowest call when there are three.

    A single call can catch an interrupt or a page fault; that is noise
    of the call, not a speed of the machine.
    """
    if len(refs) >= 3:
        refs = sorted(refs)[:-1]
    return sum(refs) / len(refs)


class Meter:
    """Stretches of work and kernel timings, in the order they happened."""

    def __init__(self):
        #: ("ref", None, seconds) or ("work", key, seconds)
        self.events: list[tuple[str, object, float]] = []
        self._key = None
        self._mark = 0.0
        self._in_tick = False

    def sample(self) -> None:
        start = time.thread_time()
        kernel()
        self.events.append(("ref", None, time.thread_time() - start))

    def samples(self) -> None:
        """The kernel calls that open or close a run of work."""
        for _ in range(SIDE):
            self.sample()

    def add_child(self, key, cpu_seconds: float, refs: list[float]) -> None:
        """Work of a child process that timed ``refs`` while it ran.

        ``cpu_seconds`` is all of the child's CPU time; the kernel calls are
        taken out of it and the rest is spread evenly between them.
        """
        work = (cpu_seconds - sum(refs)) / (len(refs) + 1)
        for ref in refs:
            self.events.append(("work", key, work))
            self.events.append(("ref", None, ref))
        self.events.append(("work", key, work))

    def refs(self) -> list[float]:
        return [s for kind, _, s in self.events if kind == "ref"]

    def _tick(self, signum, frame) -> None:
        if self._in_tick:
            return
        self._in_tick = True
        if self._key is not None:
            self.events.append(("work", self._key, time.process_time() - self._mark))
        self.sample()
        self._mark = time.process_time()
        self._in_tick = False

    @contextmanager
    def probing(self):
        """Time a kernel call every ``INTERVAL_S`` in this process's main thread."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def work(self, key):
        """Count the CPU time of the block, less kernel calls, as work ``key``."""
        if self._key is not None:  # nested in a stretch that is counted already
            yield
            return
        self._mark = time.process_time()
        self._key = key
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
            try:
                self.events.append(("work", key, time.process_time() - self._mark))
                self._key = None
            finally:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def scaled(self) -> dict:
        """Scaled CPU seconds of each work key, summed over its stretches.

        A stretch is judged by the ``SIDE`` kernel calls before it and the
        ``SIDE`` after it.
        """
        refs = self.refs()
        if not refs:
            raise ValueError("no kernel call was timed")
        out: dict = {}
        before = 0
        for kind, key, seconds in self.events:
            if kind == "ref":
                before += 1
                continue
            around = refs[max(0, before - SIDE) : before + SIDE]
            out[key] = out.get(key, 0.0) + seconds * REFERENCE_S / _speed_of(around)
        return out

    def speed(self) -> float:
        """REFERENCE_S over the mean kernel time, for the run's details."""
        return REFERENCE_S / _speed_of(self.refs())
