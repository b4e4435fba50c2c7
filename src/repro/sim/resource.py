"""Counted resources, used to model bounded CPU cores and network links."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment


class Resource:
    """A resource with ``capacity`` concurrent slots.

    ``hold(duration, then)`` takes a free slot and arms one pooled timer
    that releases it and calls ``then(None)`` (if given); with every slot
    busy the hold queues, and ``release`` starts the next one from a
    zero-delay timer.  The library uses this to model a node's CPU
    (capacity = number of cores), so that signature generation throughput
    saturates at the core count exactly as in Figure 5 of the paper.

    The quorum drain (``core/context.py::_QuorumDrain.step``) takes and
    frees a free slot for its holds itself, with this bookkeeping inline;
    a hold it queues goes through ``_waiters`` and ``_start`` unchanged.
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[tuple] = deque()  # (duration, then)

    def hold(self, duration: float,
             then: Optional[Callable[[Any], None]] = None) -> None:
        """Hold one slot for ``duration`` seconds, free it, call ``then``."""
        if self._in_use < self.capacity:
            self._in_use += 1
            self.env.call_later(duration, self.release, then)
        else:
            self._waiters.append((duration, then))

    def release(self, then: Optional[Callable[[Any], None]] = None) -> None:
        """Free a slot taken by :meth:`hold` — its timer calls this with the
        hold's ``then`` — passing it straight to the longest-waiting hold,
        if any; then call ``then(None)``."""
        if self._in_use <= 0:
            raise RuntimeError("release() without a matching hold()")
        if self._waiters:
            self.env.call_later(0.0, self._start, self._waiters.popleft())
        else:
            self._in_use -= 1
        if then is not None:
            then(None)

    def _start(self, waiter: tuple) -> None:
        self.env.call_later(waiter[0], self.release, waiter[1])
