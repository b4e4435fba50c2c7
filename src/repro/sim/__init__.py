"""Deterministic discrete-event simulation kernel.

This subpackage provides the minimal process-based simulation machinery that
the rest of the library is built on: an :class:`~repro.sim.environment.Environment`
that advances virtual time, generator-based processes, triggerable events,
timeouts, the one blocked-wait object (:class:`Wait`) and counted resources
(:class:`~repro.sim.resource.Resource`).

Protocol code reads like straight-line pseudo-code ("wait until a valid
message has been received or the timer has expired"), in the style of SimPy's
small core, but the contract is only what the program calls: a queue entry
carries no rank beside its time and insertion sequence, an event has no
failure channel (an exception propagates out of ``Environment.run``), a
process cannot be interrupted from outside (the paper's panic thread is
:class:`~repro.core.context.PanicInterrupt`, raised by the waiting code
itself), and ``Environment.run`` is the one dispatch loop — so the realtime
backend implements the same members.  Runs are fully deterministic: all
randomness is injected through explicit :class:`random.Random` instances and
events are ordered by ``(time, insertion sequence)``.
"""

from repro.sim.environment import Environment
from repro.sim.events import Event, Timeout, Wait
from repro.sim.process import Process
from repro.sim.resource import Resource

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Wait",
    "Process",
    "Resource",
]
