"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot object that is *pending* until it *succeeds*
(carrying a value).  Processes wait on events by ``yield``-ing them; when the
event fires the process is resumed with the event's value.  There is no
failure channel: an exception raised by a callback or a process propagates
out of ``Environment.run``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

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
    """The withdrawable timer a :class:`Wait` owns: withdrawn (``fn`` set
    to ``None``) when something else decides the wait, then dropped by the
    kernel unfired.  Never pooled, so a stale reference cannot withdraw
    another timer."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], None]) -> None:
        self.fn: Optional[Callable[[], None]] = fn


class Timeout(Event):
    """An event that fires ``delay`` time units after it is created.

    Unlike a plain :class:`Event`, a timeout only becomes *triggered* when the
    simulation clock reaches its fire time (the environment finalises it just
    before running its callbacks), so a :class:`Wait` watching it does not
    decide early.
    """

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(env)
        self._scheduled_value = value
        env.schedule_event(self, delay=delay)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover - misuse guard
        raise RuntimeError("Timeout events trigger themselves")


class Wait(Event):
    """One blocked wait: a hand-off (:meth:`offer`), the dispatch of the
    ``watched`` event or a withdrawable :class:`Deadline`, whichever comes
    first, resumes the waiter with the handed-off value (else ``None``).

    The event's dispatch and the deadline decide in place, a hand-off one
    ``call_later(0)`` hop later, and the wait fires one hop after that: the
    slots of a handed-off event and a condition over it
    (``tests/reference_wait.py``), so every queue position is theirs.  A
    value handed off after the decision only lands in :attr:`offered`, for
    the caller to re-file.  Decided, the wait withdraws its deadline and
    leaves the watched event (a context's long-lived wake event).
    ``offered`` decides it at once, as a fired ``watched`` does;
    ``hold(then)`` runs between a winning hand-off and the resume (the
    receiving core's processing).
    """

    __slots__ = ("offered", "_watched", "_deadline", "_hold", "_decided")

    def __init__(self, env: "Environment", watched: Optional[Event] = None,
                 timeout: Optional[float] = None,
                 hold: Optional[Callable] = None, offered: Any = None) -> None:
        self.env = env  # Event.__init__ inline: one per blocked wait
        self.callbacks = []
        self._value = PENDING
        self.offered = offered
        self._hold = hold
        self._decided = False
        self._watched = None
        self._deadline = (None if timeout is None
                          else env._arm_deadline(timeout, self._expire))  # noqa: SLF001
        if offered is not None or (watched is not None
                                   and watched._value is not PENDING):
            self._decide()
        elif watched is not None:
            self._watched = watched
            watched.callbacks.append(self._decide)  # pending: not dispatched

    def offer(self, value: Any) -> None:
        """Hand ``value`` (not ``None``) to the wait, at most once."""
        self.offered = value
        if not self._decided:
            self.env.call_later(0.0, self._decide)

    def _expire(self) -> None:
        self._deadline = None
        self._decide()

    def _decide(self, _arg: Any = None) -> None:
        if self._decided:
            return
        self._decided = True
        deadline = self._deadline
        if deadline is not None:
            self._deadline = None
            self.env._withdraw(deadline)  # noqa: SLF001 - the wait owns it
        watched = self._watched
        if watched is not None and watched.callbacks is not None:
            # Leave a long-lived watched event, or its callback list grows
            # with every wait it outlives.
            watched.callbacks.remove(self._decide)
        self._watched = None
        # What was handed off by now wins; a later offer does not.
        won = self.offered
        if won is not None and self._hold is not None:
            self.env.call_later(0.0, self._hold, self._fire)
        else:
            self.env.call_later(0.0, self.succeed_now, won)

    def _fire(self, _arg: Any) -> None:
        self.succeed_now(self.offered)
