"""A fixed reference workload that tracks the host's current speed.

The benchmark's host is a shared virtual machine whose speed changes
by up to 2x over seconds to minutes, in CPU time as much as in wall
time (the core itself runs slower, so ``process_time`` does not help).
To cancel that, every timed cell is bracketed by short runs of this
reference -- written only against the standard library, so that no
change to the program can make it faster -- and the cell's CPU time is
divided by the mean speed of the reference around it.  Times scaled
this way read as CPU time on a host where one reference unit takes
:data:`UNIT_S` seconds.

A unit has two parts, in four quarters of about equal cost: a
dependent pointer chase through a 4 MB array, which slows down with
the memory system (other tenants' cache and memory traffic), and an
event loop over ``heapq`` and generators, which slows down with the
interpreter's core.  Different cells feel the two kinds of slowdown
in different proportions, so each workload picks how many of the four
quarters are chase (:data:`MIXES`), from a fit of its cells' times
against the two parts measured separately.
"""

from __future__ import annotations

import array
import gc
import heapq
import random
import time

_cpu = time.process_time

#: Nominal CPU seconds of one reference unit: the scale of every
#: rescaled time (about what one unit takes on the 2.1 GHz Xeon vCPU
#: the baselines in README.md were taken on).
UNIT_S = 0.001
#: Reference time run after a cell, as a share of the cell's CPU time.
SHARE = 0.1
#: Never sample the reference for less than this many CPU seconds.
FLOOR_S = 0.002

#: Chase quarters (of four) per unit, by what the reference stands in
#: for.  The compiled and pure sweep cells followed the chase best
#: (fitted weights about 0.25 loop / 0.7 chase), the fuzz cells the
#: loop (0.7 / 0.2), single runs both (0.3 / 0.4); a set-up gets the
#: even mix.
MIXES = {"sweep": 3, "single-run": 2, "setup": 2, "fuzz": 1}

#: Entries in the chase array (4 bytes each), and reads per quarter.
CHASE_N = 1 << 20
CHASE_QUARTER = 2000
_chase = None
_cursor = 0


def _chain() -> array.array:
    """A full-period linear congruential walk over CHASE_N slots:
    each slot holds the index of the next, so every read depends on
    the one before and the prefetcher cannot run ahead."""
    global _chase
    if _chase is None:
        n = CHASE_N
        _chase = array.array(
            "i", ((i * 2862933555777941757 + 3037000493) % n
                  for i in range(n)))
    return _chase


def _arrivals(rng: random.Random, n: int):
    t = 0.0
    for i in range(n):
        t += rng.random()
        yield t, i


def _merge() -> int:
    """One loop quarter: 8 generators of 30 arrivals merged by a heap."""
    rng = random.Random(7)
    gens = [_arrivals(rng, 30) for _ in range(8)]
    heap = []
    for k, g in enumerate(gens):
        heapq.heappush(heap, (next(g), k))
    acc = 0
    while heap:
        (_t, i), k = heapq.heappop(heap)
        acc = (acc * 31 + i + k) & 0xFFFF
        try:
            heapq.heappush(heap, (next(gens[k]), k))
        except StopIteration:
            pass
    return acc


def unit(chase: int = 2) -> int:
    """One reference unit: ``chase`` quarters of reads along the chain,
    resuming where the previous unit stopped so that the reads keep
    missing the small caches, then ``4 - chase`` loop quarters."""
    global _cursor
    chain = _chain()
    x = _cursor
    for _ in range(chase * CHASE_QUARTER):
        x = chain[x]
    _cursor = x
    acc = 0
    for _ in range(4 - chase):
        acc ^= _merge()
    return acc


def sample(work_s: float = 0.0, chase: int = 2) -> float:
    """Run whole units for ``max(FLOOR_S, SHARE * work_s)`` CPU seconds;
    return the CPU seconds one unit took.  The garbage collector is
    off meanwhile, so the program's heap does not slow the reference."""
    budget = max(FLOOR_S, SHARE * work_s)
    _chain()
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = _cpu()
        n = 0
        while True:
            unit(chase)
            n += 1
            spent = _cpu() - c0
            if spent >= budget:
                return spent / n
    finally:
        if enabled:
            gc.enable()


class CellClock:
    """Times cells in CPU ms, raw and rescaled to the reference speed.

    ``start()`` and ``stop()`` bracket one cell; ``stop()`` samples the
    reference, so cell ``i`` lies between samples ``i`` and ``i + 1``,
    and its speed is their mean.  With ``rescale=False`` (traced
    batches) no reference runs and ``scaled`` is empty.
    """

    def __init__(self, rescale: bool = True, chase: int = 2) -> None:
        self.rescale = rescale
        self.chase = chase
        self.raw = []
        self.units = [sample(0.0, chase)] if rescale else []
        self._c0 = 0.0

    def start(self) -> None:
        self._c0 = _cpu()

    def stop(self) -> None:
        """End the cell and sample the reference after it."""
        ms = 1e3 * (_cpu() - self._c0)
        self.raw.append(ms)
        if self.rescale:
            self.units.append(sample(ms / 1e3, self.chase))

    def split(self) -> None:
        """End one cell and start the next (a progress callback)."""
        self.stop()
        self.start()

    @property
    def scaled(self) -> list:
        u = self.units
        return [ms * UNIT_S / (0.5 * (u[i] + u[i + 1]))
                for i, ms in enumerate(self.raw)] if self.rescale else []
