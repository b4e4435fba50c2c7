"""Generator-based processes for the discrete-event kernel.

A :class:`Process` wraps a Python generator.  The generator ``yield``s
:class:`~repro.sim.events.Event` instances; the process is suspended until the
yielded event fires, at which point the generator is resumed with the event's
value (or the event's exception is thrown into it).  A process is itself an
event, so processes can wait for each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.sim.events import Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment


class Process(Event):
    """A running simulation process."""

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError("Process requires a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self._interrupted_with: Optional[Interrupt] = None
        # Kick the process off at the current simulation time.
        init = Event(env)
        init.succeed()
        init.add_callback(self._resume)

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting on, if any."""
        return self._target

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            return
        interrupt_event = Event(self.env)
        interrupt_event._ok = False  # noqa: SLF001 - internal wiring
        interrupt_event._value = Interrupt(cause)  # noqa: SLF001
        self.env.schedule_event(interrupt_event, priority=0)
        interrupt_event.callbacks = []
        interrupt_event.add_callback(self._resume)

    def _resume(self, event: Event) -> None:
        if self.triggered:
            return
        self._target = None
        try:
            if event.ok:
                next_event = self._generator.send(event.value)
            else:
                next_event = self._generator.throw(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as interrupt:
            # Uncaught interrupt terminates the process quietly.
            self.succeed(interrupt.cause)
            return
        except Exception as exc:
            if self.env.strict_errors:
                raise
            self.fail(exc)
            return
        if not isinstance(next_event, Event):
            raise TypeError(
                f"process yielded {next_event!r}, expected an Event"
            )
        self._target = next_event
        next_event.add_callback(self._resume)
