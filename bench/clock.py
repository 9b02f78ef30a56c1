"""A clock that runs at the host's speed.

The benchmark's host is a shared VM whose speed drifts by tens of percent
over a minute (every core together, as other tenants come and go), so
wall times of the same work differ from run to run by more than any
useful bound.  HostClock keeps the runner and every command it starts on
one core and runs fixed reference work on the other, counting units done.
A command's time on this clock is the number of units the other core did
while it ran, times UNIT_S: when the host slows, both slow, and the count
stays.  The two swap cores several times a second, so a slow spell of
one core alone slows both alike.  UNIT_S is one unit's wall time on the
host at a typical moment, so clock seconds read close to wall seconds.

The reference work uses mpmath and plain Python ints, like the CLI, and
nothing under src/, so no change to the program moves it.  Each command
gets one core, and never the one the clock runs on, so a program that ran
work on two cores would not gain from it here, nor slow the clock.

With fewer than two cores, the clock is the wall clock.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time

import mpmath

UNIT_S = 0.00045  # one reference unit's wall time at the host's typical speed
WARM_UP_S = 0.3


def _unit(ctx) -> int:
    """One unit of reference work (about half a millisecond)."""
    x = ctx.mpf(1) / 7
    s = ctx.mpf(0)
    for i in range(1, 11):
        s += ctx.exp(x * i) / i - ctx.sqrt(s + i)
    acc = 0
    for i in range(200):
        acc = (acc * 31 + i) % 1000003
    return acc


def _tick(ticks, core) -> None:
    gc.disable()  # the forked runner's heap is not the host's speed
    ctx = mpmath.MPContext()
    ctx.prec = 320
    runner = os.getppid()
    cpu = None
    while os.getppid() == runner:  # never outlive a runner that was killed
        if core.value != cpu:
            cpu = core.value
            os.sched_setaffinity(0, {cpu})
        _unit(ctx)
        ticks.value += 1


class HostClock:
    """Use as a context manager; read() gives seconds on the host clock."""

    def __init__(self):
        cpus = sorted(os.sched_getaffinity(0))
        self._proc = None
        self._t0 = time.perf_counter()
        if len(cpus) < 2:
            return
        self._cores = (cpus[0], cpus[-1])
        # the runner and, by inheritance, every command it starts
        os.sched_setaffinity(0, {self._cores[0]})
        ctx = multiprocessing.get_context("fork")
        self._ticks = ctx.RawValue("q", 0)
        self._core = ctx.RawValue("i", self._cores[1])
        self._proc = ctx.Process(target=_tick, args=(self._ticks, self._core), daemon=True)
        self._proc.start()
        time.sleep(WARM_UP_S)
        self._t0 = time.perf_counter()
        self._ticks0 = self._ticks.value

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    @property
    def ticking(self) -> bool:
        return self._proc is not None

    def swap(self, pid: int = 0) -> None:
        """Give the clock the other core and process `pid` (0: the runner,
        whose new children inherit it) the clock's old one.  The runner
        swaps before each command and then every fraction of a second
        while it runs, so the command and the clock each spend half their
        time on either core: a core that runs slower than the other for a
        while slows both alike."""
        if self._proc is None:
            return
        self._cores = self._cores[::-1]
        self._core.value = self._cores[1]
        try:
            os.sched_setaffinity(pid, {self._cores[0]})
        except ProcessLookupError:
            pass  # the command has just ended

    def read(self) -> float:
        if self._proc is None:
            return time.perf_counter()
        return self._ticks.value * UNIT_S

    def speed(self) -> float:
        """Host clock seconds per wall second since the warm-up: above 1
        when the host ran faster than UNIT_S assumes."""
        if self._proc is None:
            return 1.0
        return (self._ticks.value - self._ticks0) * UNIT_S / (time.perf_counter() - self._t0)

    def close(self) -> None:
        if self._proc is not None:
            self._proc.terminate()
            self._proc.join()
            self._proc = None
