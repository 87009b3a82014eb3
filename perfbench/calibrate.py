"""Host-speed reference: a fixed kernel sampled all through each pass.

The benchmark runs on shared machines whose speed changes with the load
of other tenants, by up to a factor of two, over seconds and over
minutes.  Wall time alone then measures the neighbours as much as the
simulator.  So while a pass runs, :class:`SpeedProbe` interrupts it
every :data:`PERIOD_S` and runs one :meth:`SpeedProbe.slice_`, a fixed
piece of work that does not use the simulator and does the two kinds of
work whose speed the neighbours move most: lookups in a table too large
for the private caches beside an event heap and small numpy reductions
(the storms slow down like this part), and pure-Python object
arithmetic, with allocation and method dispatch (the service and
switch models slow down like this part).  The slices' own time is taken
out of the pass, and the ratio of their mean time to :data:`NOMINAL_S`
is the pass's slowdown; run.py divides the pass's host times by it.
The figures then read as seconds on a host that runs a slice in
:data:`NOMINAL_S`.

A change to the simulator cannot change the slices' work, so a real
speed-up or slow-down of the program shows in full.  The cyclic
collector is off during a slice, so the size of the program's heap
does not reach the slice's time through a collection; the program's
cache footprint still can, a little.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import signal
from fractions import Fraction
from time import perf_counter

import numpy as np

#: Nominal seconds of one slice.  A constant that only sets the scale of
#: the normalized figures: interleaved with the passes, a slice took
#: 2.8-4.3 ms on the 2-CPU Xeon VM (Python 3.11) the benchmark was tuned on.
NOMINAL_S = 0.004
#: Wall time between two slices.
PERIOD_S = 0.05
#: Slices on each side of a region sampled without interrupts.
BRACKET = 20

_TABLE_KEYS = 1 << 17
_PROBES_PER_SLICE = 512
_FRACTION_TERMS = 240


class _Node:
    __slots__ = ("key", "load")

    def __init__(self, key: int) -> None:
        self.key = key
        self.load = 0

    def bump(self, amount: int) -> int:
        self.load = (self.load + amount) & 0xFFFF
        return self.load


class SpeedProbe:
    """Samples the host's speed with :meth:`slice_` calls.

    ``with probe.sampling():`` around a timed region runs one slice
    every :data:`PERIOD_S` of wall time (a ``SIGALRM`` interval timer;
    the handler runs between two bytecodes of the main thread).  With
    ``interrupt=False`` it runs :data:`BRACKET` slices before and after
    the region instead, leaving the region itself untouched (the traced
    run uses this, so no slice lands inside a layer's span).  Each
    slice's start and end are kept in ``spans``.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._table = {int(k): _Node(int(k)) for k in rng.permutation(_TABLE_KEYS)}
        self._probes = rng.integers(0, _TABLE_KEYS, size=(64, _PROBES_PER_SLICE)).tolist()
        self._vectors = rng.integers(0, 1 << 20, size=(16, 256), dtype=np.int64)
        self._next = 0
        self.spans: list[tuple[float, float]] = []

    def slice_(self) -> int:
        """One fixed unit of memory, numpy and interpreter work."""
        probes = self._probes[self._next % len(self._probes)]
        self._next += 1
        table, heap, total = self._table, [], 0
        push, pop = heapq.heappush, heapq.heappop
        for i, key in enumerate(probes):
            node = table[key]
            total += node.bump(i & 7)
            push(heap, (key ^ i, i, node))
            if len(heap) > 64:
                total ^= pop(heap)[1]
        acc = np.zeros(256, dtype=np.int64)
        for row in self._vectors:
            acc += row
            total += int(acc[:8].sum())
        x, frac = Fraction(1, 3), Fraction(0)
        for i in range(1, _FRACTION_TERMS):
            frac += x * Fraction(i, 7) - Fraction(i, 11)
        return total + frac.denominator

    def tick(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            self.slice_()
            self.spans.append((t0, perf_counter()))
        finally:
            if collecting:
                gc.enable()

    def _on_alarm(self, signum, frame) -> None:
        self.tick()

    @contextlib.contextmanager
    def sampling(self, interrupt: bool = True):
        if not interrupt:
            for _ in range(BRACKET):
                self.tick()
            yield self
            for _ in range(BRACKET):
                self.tick()
            return
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.spans = []

    def slice_s(self) -> float:
        """Total seconds spent in slices since :meth:`reset`."""
        return sum(b - a for a, b in self.spans)

    def factor(self) -> float:
        """Mean slice time over :data:`NOMINAL_S` since :meth:`reset`."""
        if not self.spans:
            raise RuntimeError("no speed samples were taken")
        return self.slice_s() / len(self.spans) / NOMINAL_S

    def program_s(self, start: float, end: float) -> float:
        """Seconds in ``[start, end]`` outside the slices."""
        return end - start - sum(b - a for a, b in self.spans if a >= start and b <= end)

    def nominal_s(self, start: float, end: float) -> float:
        """Program seconds in ``[start, end]`` at the reference host's
        speed: :meth:`program_s` divided by :meth:`factor`."""
        return self.program_s(start, end) / self.factor()

