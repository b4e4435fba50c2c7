"""The pre-batching simulation kernel, kept as a test oracle.

:class:`ReferenceEnvironment` schedules every entry — zero-delay timers,
same-instant events, each copy of a broadcast — as its own heap slot keyed
``(time, sequence)``.  That is the plain-heap order the shipped
:class:`~repro.sim.environment.Environment` promises its same-instant bucket
and delivery trains reproduce, so running the same scenario under both and
comparing every field exactly is the correctness argument for both
specialisations.  Tests select it by substituting the class
:func:`repro.core.cluster.run_cluster` instantiates (:func:`use_reference`).
"""

from __future__ import annotations

import heapq

from repro.sim.environment import Environment
from repro.sim.events import ScheduledCallback


class ReferenceEnvironment(Environment):
    """Per-entry heap scheduling: no bucket, no trains, no timer pool."""

    __slots__ = ()

    def _push(self, when, entry) -> None:
        self._sequence += 1
        heapq.heappush(self._queue, (when, self._sequence, entry))

    def call_later(self, delay, fn, arg=None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._push(self._now + delay, ScheduledCallback(fn, arg))

    def schedule_event(self, event, delay=0.0) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._push(self._now + delay, event)

    def schedule_batch(self, times, args, fn) -> None:
        for when, arg in zip(times, args):
            self._push(when, ScheduledCallback(fn, arg))


def use_reference(monkeypatch) -> None:
    """Make ``run_cluster`` build the oracle kernel for the rest of a test."""
    monkeypatch.setattr("repro.core.cluster.Environment", ReferenceEnvironment)
