"""Host-speed calibration: a fixed loop that says how fast the box is now.

The reference box (2 shared vCPUs) flips between a fast and a ~20 % slower
state every few seconds, which is as long as one repeat and a fifth of one
run, so neither more repeats nor medians average it out: ten 5-repeat
medians of one workload spread 12 % raw.  The state slows everything alike,
so each timed region is bracketed by this loop and divided by the mean of the
two readings over :data:`REFERENCE_S`; the same medians then spread 4 %.
Host times are therefore reported in *reference-host seconds*; the raw wall
time and the factor are kept as ``host.raw_wall_s_per_sim_s`` and
``host.speed_factor``.

The loop is the simulator's instruction mix in miniature — heap pushes and
pops of tuples, dict stores, a slotted method call, SHA-256 of a short
buffer — and nothing in it calls the program, so no program change moves it.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import time

#: Loop time on the reference box in its fast state.
REFERENCE_S = 0.15
_ITERATIONS = 120_000


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> int:
        self.value += 1
        return self.value


def calibration_s() -> float:
    """Seconds the fixed loop takes right now (cyclic GC paused)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        heap: list = []
        table: dict = {}
        push, pop, sha256 = heapq.heappush, heapq.heappop, hashlib.sha256
        cell = _Cell()
        digest = b"x" * 64
        started = time.perf_counter()
        for i in range(_ITERATIONS):
            push(heap, ((i * 7919) % 1009 * 1e-3, i, cell))
            table[i & 1023] = (i, cell.bump())
            if i & 7 == 0:
                digest = sha256(digest).digest()
            if i & 1:
                pop(heap)
        while heap:
            pop(heap)
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


def speed_factor(before_s: float, after_s: float) -> float:
    """How much slower than the reference the host ran between two readings."""
    return (before_s + after_s) / 2.0 / REFERENCE_S
