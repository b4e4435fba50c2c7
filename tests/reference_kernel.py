"""The pre-batching simulation kernel, kept as a test oracle.

:class:`ReferenceEnvironment` schedules every entry — zero-delay timers,
same-instant events, each copy of a broadcast, a ``Wait`` deadline — as
its own heap slot keyed ``(time, sequence)``.  That is the plain-heap order
the shipped :class:`~repro.sim.environment.Environment` promises its
same-instant bucket and delivery trains reproduce, so running the same
scenario under both and comparing every field exactly is the correctness
argument for both specialisations.  A withdrawn deadline is *left to fire*
here, into a no-op, as the ``Timeout`` child a condition used to carry did —
the shipped kernel drops it instead, and the differential suite proves the
difference unobservable.  Tests select it by substituting the class
:func:`repro.core.cluster.run_cluster` instantiates (:func:`use_reference`).

:class:`ReferenceResource` and :func:`reference_use` are the counted resource
as it was before ``Resource.hold``: a grant ``Event`` per queued acquirer,
a ``Timeout`` per hold, a process helper to yield from.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.sim.environment import Environment
from repro.sim.events import Deadline, Event, ScheduledCallback


def _fire_unless_withdrawn(deadline: Deadline) -> None:
    if deadline.fn is not None:
        deadline.fn()


class ReferenceEnvironment(Environment):
    """Per-entry heap scheduling: no bucket, no trains, no timer pool, no
    withdrawal."""

    __slots__ = ()

    def _push(self, when, entry) -> None:
        self._sequence += 1
        heapq.heappush(self._queue, (when, self._sequence, entry))

    def call_later(self, delay, fn, arg=None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._push(self.now + delay, ScheduledCallback(fn, arg))

    def schedule_event(self, event, delay=0.0) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._push(self.now + delay, event)

    def schedule_batch(self, times, args, fn) -> None:
        for when, arg in zip(times, args):
            self._push(when, ScheduledCallback(fn, arg))

    def _arm_deadline(self, delay, fn) -> Deadline:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        deadline = Deadline(fn)
        self._push(self.now + delay,
                   ScheduledCallback(_fire_unless_withdrawn, deadline))
        return deadline

    def _withdraw(self, deadline) -> None:
        deadline.fn = None  # stays queued and fires into nothing


def use_reference(monkeypatch) -> None:
    """Make ``run_cluster`` build the oracle kernel for the rest of a test."""
    monkeypatch.setattr("repro.core.cluster.Environment", ReferenceEnvironment)


class ReferenceResource:
    """The counted resource before ``hold``: ``acquire`` returns an event that
    fires when a slot is granted, ``release`` hands the slot to the
    longest-waiting acquirer through that event."""

    def __init__(self, env, capacity: int = 1) -> None:
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    def try_acquire(self) -> bool:
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            return True
        return False

    def acquire(self) -> Event:
        event = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1

    def hold(self, duration: float, then) -> None:
        """A callback holder as the quorum drain wrote one: a free slot arms
        a timer, a busy one waits for its grant event first."""
        def held(_arg):
            self.release()
            then(None)

        if self.try_acquire():
            self.env.call_later(duration, held)
        else:
            self.acquire().add_callback(
                lambda _event: self.env.call_later(duration, held))


def reference_use(resource: ReferenceResource, duration: float):
    """Process helper: hold one slot for ``duration`` simulated seconds."""
    if not resource.try_acquire():
        yield resource.acquire()
    try:
        yield resource.env.timeout(duration)
    finally:
        resource.release()
