"""Generator-based processes for the discrete-event kernel.

A :class:`Process` wraps a Python generator.  The generator ``yield``s
:class:`~repro.sim.events.Event` instances; the process is suspended until the
yielded event fires, at which point the generator is resumed with the event's
value.  A process is itself an event, so processes can wait for each other.
An exception escaping the generator propagates out of ``Environment.run``.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import TYPE_CHECKING, Generator

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment


#: What a new process is resumed with: a generator starts on ``None``.
_START = SimpleNamespace(_value=None)


class Process(Event):
    """A running simulation process."""

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator")
        super().__init__(env)
        self._generator = generator
        # Kick the process off at the current simulation time.
        env.call_later(0.0, self._resume, _START)

    def _resume(self, event: Event) -> None:
        try:
            next_event = self._generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(next_event, Event):
            raise TypeError(
                f"process yielded {next_event!r}, expected an Event"
            )
        next_event.add_callback(self._resume)
