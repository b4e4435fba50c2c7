"""The event-per-wait machinery ``sim.events.Wait`` replaced, kept as a test
oracle.

Until a blocked wait was one object, it was built from parts:

* **``AnyOf``** — the kernel's composite condition: an event firing with
  ``{child: value}`` for every child already fired once any child fires, or
  ``{}`` once its own deadline elapses.  :class:`AnyOf` is that class,
  verbatim (with ``Event.discard_callback``, which only it called, as
  :func:`_discard`), *including* its leak: a child already fired at
  construction fires the condition, and the loop then still registers
  ``_child_fired`` on every later pending child (see
  ``tests/test_sim_kernel.py::test_fired_condition_detaches_from_pending_children``).
* **The mailbox's waiter event** — ``Mailbox.wait`` returned an ``Event``
  the next matching message succeeded, and ``Mailbox.cancel`` withdrew it,
  re-filing a message that had raced the cancel: :func:`mailbox_wait` and
  :func:`mailbox_cancel`, on the mailbox's hand-off slot.
* **The blocked ``wait_message``** — per wait a mailbox event, an ``AnyOf``
  over it and the context's wake event, a ``woken`` event and a
  ``partial`` for the condition's callback: :func:`reference_wait_message`.

:func:`use_reference` swaps them back in for the rest of a test — the
context's ``wait_message`` and ``Environment.wait`` (FireLedger's body and
version waits) — so a whole cluster can run the old way.  A ``Wait`` takes
the same-instant slots the mailbox event and the condition took, so the
replacement claims to be unobservable: same rows, same ``state_root``, same
``Environment._sequence``, same resume trace.
"""

from __future__ import annotations

from functools import partial

from repro.core.context import PanicInterrupt
from repro.sim.events import PENDING, Event


class AnyOf(Event):
    """Composite event that fires when *any* child event fires, or once its
    own ``timeout`` elapses."""

    def __init__(self, env, events, timeout=None) -> None:
        super().__init__(env)
        self.events = list(events)
        self._deadline = (None if timeout is None
                          else env._arm_deadline(timeout, self._expire))
        if not self.events and timeout is None:
            self.succeed({})
            return
        for event in self.events:
            if event.triggered:
                self._child_fired(event)
            else:
                event.add_callback(self._child_fired)

    def _expire(self) -> None:
        self._deadline = None
        self._child_fired(None)

    def _child_fired(self, _event) -> None:
        if self._value is not PENDING:
            return
        self.succeed({e: e._value for e in self.events
                      if e._value is not PENDING})
        deadline = self._deadline
        if deadline is not None:
            self._deadline = None
            self.env._withdraw(deadline)
        for event in self.events:
            if event._value is PENDING:
                _discard(event, self._child_fired)


def _discard(event, callback) -> None:
    """``Event.discard_callback``, which only the condition needed."""
    if event.callbacks is not None:
        try:
            event.callbacks.remove(callback)
        except ValueError:
            pass


def mailbox_wait(env, inbox, keys, sender=None) -> Event:
    """``Mailbox.wait``: an event firing with the next message under any
    of ``keys``."""
    event = Event(env)
    message = inbox.take(keys, sender)
    if message is not None:
        event.succeed(message)
    else:
        inbox.expect(keys, sender, event.succeed)
    return event


def mailbox_cancel(inbox, event) -> None:
    """``Mailbox.cancel``: withdraw an abandoned wait, re-filing a message
    that raced the cancel."""
    inbox.withdraw(event.value if event.triggered else None)


def reference_wait_message(context, kind, key, sender=None, timeout=None,
                           alt=None):
    """``ProtocolContext.wait_message`` as it was before a blocked wait was
    one object."""
    panic = context._pending_interrupt()
    if panic:
        raise PanicInterrupt(panic)
    keys = ((kind, key),) if alt is None else ((kind, key), alt)
    inbox = context.inbox
    message = inbox.take(keys, sender)
    if message is not None:
        yield from context.use_cpu(context._message_cpu)
        return message
    env = context.env
    deadline = None if timeout is None else env.now + timeout
    while True:
        get_event = mailbox_wait(env, inbox, keys, sender)
        remaining = (None if deadline is None
                     else max(0.0, deadline - env.now))
        condition = AnyOf(env, [get_event, context._wake_event], remaining)
        woken = Event(env)
        condition.add_callback(partial(_wait_over, context, get_event, woken))
        yield woken
        result = condition.value
        if get_event in result:
            return result[get_event]
        mailbox_cancel(inbox, get_event)
        panic = context._pending_interrupt()
        if panic:
            raise PanicInterrupt(panic)
        if deadline is not None and env.now >= deadline:
            return None


def _wait_over(context, get_event, woken, condition) -> None:
    """The condition fired: a winning message's CPU hold, else wake now."""
    hold = context._message_cpu
    if hold > 0 and get_event in condition.value:
        context._endpoint.cpu.hold(hold, woken.succeed_now)
    else:
        woken.succeed_now()


def any_of_wait(env, event=None, timeout=None) -> AnyOf:
    """``Environment.wait`` as the one-child ``any_of`` it replaced."""
    return AnyOf(env, [] if event is None else [event], timeout)


def use_reference(monkeypatch) -> None:
    """Wait the old way for the rest of a test: every blocked
    ``wait_message`` and every ``Environment.wait`` (on either backend)."""
    monkeypatch.setattr("repro.core.context.ProtocolContext.wait_message",
                        reference_wait_message)
    monkeypatch.setattr("repro.sim.environment.Environment.wait", any_of_wait)
