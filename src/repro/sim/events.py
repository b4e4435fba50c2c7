"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot object that is *pending* until it *succeeds*
(carrying a value).  Processes wait on events by ``yield``-ing them; when the
event fires the process is resumed with the event's value.  There is no
failure channel: an exception raised by a callback or a process propagates
out of ``Environment.run``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.environment import Environment

PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait for."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING

    @property
    def triggered(self) -> bool:
        """Whether the event has fired."""
        return self._value is not PENDING

    @property
    def value(self) -> Any:
        """The value the event fired with."""
        if self._value is PENDING:
            raise RuntimeError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event with ``value``."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        self._value = value
        self.env.schedule_event(self)
        return self

    def succeed_now(self, value: Any = None) -> None:
        """Fire and run the callbacks before returning.

        :meth:`succeed` queues the event, so its waiters run behind everything
        already queued for this instant.  A timer callback standing in for a
        process's own timeout (the quorum drain) must resume that process at
        the timer's queue position — here, not one queue hop later.
        """
        if self._value is not PENDING:
            raise RuntimeError("event already triggered")
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed."""
        if self.callbacks is None:
            # Already processed: run immediately so late waiters don't hang.
            callback(self)
        else:
            self.callbacks.append(callback)

    def discard_callback(self, callback: Callable[["Event"], None]) -> None:
        """Unregister ``callback`` if still pending (no-op otherwise).

        Long-lived events (a worker's wake event, a body-arrival event) are
        waited on through composite conditions over and over; a condition
        that fired through a *different* child must deregister itself here,
        or the pending event's callback list — and every condition object it
        references — grows for the whole run.
        """
        if self.callbacks is not None:
            try:
                self.callbacks.remove(callback)
            except ValueError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.env.now:.6f}>"


class ScheduledCallback:
    """A pooled, kernel-internal timer carrying one ``fn(arg)`` callback.

    High-rate internal machinery (message delivery in the network substrate)
    used to allocate a full :class:`Timeout` plus a closure and a callbacks
    list per occurrence.  A :class:`ScheduledCallback` is a bare slotted
    object the :class:`~repro.sim.environment.Environment` recognises in its
    dispatch loop and recycles into a free pool after firing, so the steady
    state allocates nothing per delivery.

    Not an :class:`Event`: it cannot be yielded on, composed, or observed.
    Schedule one only through ``Environment.call_later`` and never retain a
    reference after it fires — the instance will be reused.
    """

    __slots__ = ("fn", "arg")

    def __init__(self, fn: Callable[[Any], None], arg: Any) -> None:
        self.fn = fn
        self.arg = arg


class ScheduledBatch:
    """A batched delivery train: one queue entry for many ``fn(arg)`` fires.

    ``Network.broadcast`` used to schedule one pooled timer per copy — for a
    200-node clique that is 199 heap pushes per broadcast and a heap whose
    size grows with the whole in-flight fan-out.  A train carries every copy
    of one broadcast as pre-built heap entries ``(time, sequence, train, arg,
    next entry)`` linked in fire order, and occupies a *single*
    heap slot: the kernel fires the head entry and swaps in the entry it
    links to with one ``heapreplace`` — no per-delivery allocation, no index
    arithmetic, and the train itself holds no mutable cursor.

    Lifetime: the train object holds only ``fn``, and references run one way
    (heap -> entry -> next entry, entry -> train), so there is no cycle: a
    fired entry is freed by reference count the moment the kernel moves on,
    taking its ``arg`` with it, and the last one takes the train and ``fn``
    — with the cyclic GC paused nothing a broadcast allocated outlives its
    delivery, and an abandoned train dies with the queue that held it.

    Keying re-insertions by each entry's original sequence — reserved as a
    contiguous block when the batch was scheduled — makes the fire order
    *exactly* what per-copy timers would have produced, including ties with
    unrelated events at the same instant.

    Kernel-internal, like :class:`ScheduledCallback`: not an :class:`Event`,
    cannot be yielded on or cancelled.  Schedule one only through
    ``Environment.schedule_batch``.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Any], None]) -> None:
        self.fn = fn


class Deadline:
    """The withdrawable timer an :class:`AnyOf` owns: withdrawn (``fn`` set
    to ``None``) when a child wins, then dropped by the kernel unfired.
    Never pooled, so a stale reference cannot withdraw another timer."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], None]) -> None:
        self.fn: Optional[Callable[[], None]] = fn


class Timeout(Event):
    """An event that fires ``delay`` time units after it is created.

    Unlike a plain :class:`Event`, a timeout only becomes *triggered* when the
    simulation clock reaches its fire time (the environment finalises it just
    before running its callbacks), so composite conditions built around it do
    not fire early.
    """

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(env)
        self._scheduled_value = value
        env.schedule_event(self, delay=delay)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover - misuse guard
        raise RuntimeError("Timeout events trigger themselves")


class AnyOf(Event):
    """Composite event that fires when *any* child event fires, or once its
    own ``timeout`` elapses.

    Its value maps each child that has fired by then to that child's value.
    The deadline is armed first — the queue slot an ``env.timeout(timeout)``
    child would take — and withdrawn as soon as a child wins.
    """

    def __init__(self, env: "Environment", events: Iterable[Event],
                 timeout: Optional[float] = None) -> None:
        super().__init__(env)
        self.events = list(events)
        self._deadline = (None if timeout is None
                          else env._arm_deadline(timeout, self._expire))  # noqa: SLF001
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

    def _child_fired(self, _event: Optional[Event]) -> None:
        if self._value is not PENDING:
            return
        self.succeed({e: e._value for e in self.events
                      if e._value is not PENDING})
        deadline = self._deadline
        if deadline is not None:
            self._deadline = None
            self.env._withdraw(deadline)  # noqa: SLF001 - the condition owns it
        # Deregister from children that have not fired (see discard_callback).
        for event in self.events:
            if event._value is PENDING:
                event.discard_callback(self._child_fired)
