"""Deterministic discrete-event simulation kernel.

This subpackage provides the minimal process-based simulation machinery that
the rest of the library is built on: an :class:`~repro.sim.environment.Environment`
that advances virtual time, generator-based processes, triggerable events,
timeouts, composite wait conditions and counted resources
(:class:`~repro.sim.resource.Resource`).

The design intentionally mirrors the small core of SimPy so that protocol code
reads like straight-line pseudo-code ("wait until a valid message has been
received or the timer has expired") while remaining fully deterministic: all
randomness is injected through explicit :class:`random.Random` instances and
event ordering is tie-broken by insertion sequence numbers.
"""

from repro.sim.environment import Environment
from repro.sim.events import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.sim.process import Process
from repro.sim.resource import Resource

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "Process",
    "Resource",
]
