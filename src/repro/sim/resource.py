"""Counted resources, used to model bounded CPU cores and network links."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment


class Resource:
    """A resource with ``capacity`` concurrent slots.

    ``acquire`` returns an event that fires when a slot becomes available;
    ``release`` frees a slot and wakes the longest-waiting acquirer.  The
    library uses this to model a node's CPU (capacity = number of cores), so
    that signature generation throughput saturates at the core count exactly
    as in Figure 5 of the paper.
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of slots currently held."""
        return self._in_use

    @property
    def available(self) -> int:
        """Number of free slots."""
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        """Number of acquirers waiting for a slot."""
        return len(self._waiters)

    def try_acquire(self) -> bool:
        """Take a slot if one is free right now: no event, no queueing."""
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            return True
        return False

    def acquire(self) -> Event:
        """Request a slot; the returned event fires once the slot is granted."""
        event = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Free a slot previously granted by :meth:`acquire`."""
        if self._in_use <= 0:
            raise RuntimeError("release() without matching acquire()")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed()
        else:
            self._in_use -= 1

    def use(self, duration: float):
        """Process helper: hold one slot for ``duration`` simulated seconds.

        Usage inside a process::

            yield from cpu.use(t_sign)
        """
        if not self.try_acquire():
            # No slot free right now: queue through the scheduler.
            yield self.acquire()
        try:
            yield self.env.timeout(duration)
        finally:
            self.release()
