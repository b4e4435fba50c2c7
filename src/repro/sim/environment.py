"""The simulation environment: the event queue and the virtual clock."""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Optional

from repro.sim.events import (
    PENDING,
    Deadline,
    Event,
    ScheduledBatch,
    ScheduledCallback,
    Timeout,
    Wait,
)
from repro.sim.process import Process

#: Upper bound on the recycled :class:`ScheduledCallback` free pool.
_CALLBACK_POOL_MAX = 4096
#: Withdrawn deadlines the queue may hold before they can trigger a rebuild.
_WITHDRAWN_FLOOR = 100


class _Poll:
    """The re-arming timer behind :meth:`Environment.poll`.

    The timer holds the bound ``tick`` and references run one way (timer ->
    poll -> event), so a poll is freed by reference count once it fires.
    """

    __slots__ = ("env", "period", "ready", "event")

    def __init__(self, env: "Environment", period: float,
                 ready: Callable[[], bool], event: Event) -> None:
        self.env = env
        self.period = period
        self.ready = ready
        self.event = event

    def tick(self, _arg: Any) -> None:
        if self.ready():
            self.event.succeed_now()
        else:
            self.env.call_later(self.period, self.tick)


class Environment:
    """Discrete-event simulation environment.

    Time is a float in *seconds*, held in the ``now`` slot that :meth:`run`
    writes (a read is an attribute load, not a call).  The queue orders
    entries by ``(time, sequence)``: same-instant entries run in FIFO order
    of scheduling, which keeps every run fully deterministic.  :meth:`run`
    is the one statement of that dispatch order.

    Four kinds of entries share the queue: regular :class:`Event` objects
    (yieldable, composable, with callback lists), the pooled
    :class:`ScheduledCallback` timers created by :meth:`call_later`, the
    :class:`ScheduledBatch` delivery trains created by :meth:`schedule_batch`
    (one heap slot for a whole broadcast fan-out), and the :class:`Deadline`
    a :class:`Wait` owns.  A withdrawn deadline neither fires
    nor moves the clock: it is dropped at the head, and once withdrawn
    entries are over a floor and half the queue, the queue is rebuilt
    without them (asyncio's cancelled-handle rule; keys are unique, so the
    pop order never depends on the heap's layout).

    Two specialisations keep the hot paths cheap; both preserve the exact
    ``(time, sequence)`` order the plain heap would produce:

    * **Same-instant bucket.**  The dominant scheduling case is "run this at
      the current instant" (event ``succeed``, zero-delay ``call_later``,
      loopback delivery).  Those entries go to a FIFO ``deque`` drained
      before the clock advances instead of round-tripping through the heap.
      An entry scheduled *now* for *now* necessarily sorts after every
      same-instant entry already in the heap (its sequence number is
      larger), so "heap entries at the current instant first, then the
      bucket in FIFO order" is exactly the heap order.
    * **Delivery trains.**  :meth:`schedule_batch` reserves a contiguous
      sequence block for all entries of one broadcast and keeps them in a
      single sorted :class:`ScheduledBatch`; see its docstring.

    The pre-batching kernel — every entry heap-scheduled individually —
    lives on as ``tests/reference_kernel.py::ReferenceEnvironment``, a
    subclass overriding the three scheduling methods; the differential test
    suite runs every scenario under both and asserts byte-identical outcomes.
    """

    __slots__ = ("now", "_queue", "_bucket", "_sequence", "_callback_pool",
                 "_withdrawn")

    def __init__(self) -> None:
        #: Current simulation time in seconds (only the kernel assigns it).
        self.now = 0.0
        self._queue: list[tuple] = []
        self._bucket: deque[Any] = deque()
        self._sequence = 0
        self._callback_pool: list[ScheduledCallback] = []
        self._withdrawn = 0  # withdrawn deadlines still queued

    # ------------------------------------------------------------- factories
    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now.

        Raises :class:`ValueError` for negative delays: scheduling in the
        past would silently violate causality.
        """
        return Timeout(self, delay, value)

    def call_later(self, delay: float, fn: Callable[[Any], None],
                   arg: Any = None) -> None:
        """Schedule ``fn(arg)`` to run ``delay`` seconds from now.

        Cheaper than ``timeout(delay).add_callback(fn)``: the underlying
        one-shot timer is a slotted :class:`ScheduledCallback` recycled into a
        free pool after it fires, so hot paths (per-message delivery) allocate
        nothing in the steady state.  The timer is kernel-internal — it cannot
        be yielded on or cancelled, and no reference to it is returned.

        Raises :class:`ValueError` for negative delays: scheduling in the
        past would silently violate causality.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        pool = self._callback_pool
        if pool:
            timer = pool.pop()
            timer.fn = fn
            timer.arg = arg
        else:
            timer = ScheduledCallback(fn, arg)
        now = self.now
        when = now + delay
        if when <= now:
            self._bucket.append(timer)
            return
        self._sequence += 1
        heapq.heappush(self._queue, (when, self._sequence, timer))

    def poll(self, period: float, ready: Callable[[], bool]) -> Event:
        """An event that fires at the first tick ``period``, ``2 * period``,
        ... from now at which ``ready()`` holds.

        The same grid, queue slots and sequence numbers as a process looping
        ``while not ready(): yield env.timeout(period)`` after a first
        failed check, without resuming the process on an empty tick: each
        tick is one pooled :meth:`call_later` that re-arms itself, and the
        tick that finds ``ready()`` true fires the event in place
        (``succeed_now``), so the waiter resumes at that tick's queue
        position.  Raises :class:`ValueError` unless ``period`` is positive
        (a zero period would re-check one instant forever).
        """
        if period <= 0:
            raise ValueError(f"poll period must be positive, got {period!r}")
        event = Event(self)
        self.call_later(period, _Poll(self, period, ready, event).tick)
        return event

    def process(self, generator: Generator) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator)

    def wait(self, event: Optional[Event] = None,
             timeout: Optional[float] = None) -> Wait:
        """An event firing once ``event`` fires or ``timeout`` seconds from
        now, whichever comes first (a :class:`Wait`)."""
        return Wait(self, event, timeout)

    def _arm_deadline(self, delay: float, fn: Callable[[], None]) -> Deadline:
        """Queue ``fn()`` ``delay`` seconds from now as a withdrawable entry."""
        deadline = Deadline(fn)
        self.schedule_event(deadline, delay)
        return deadline

    def _withdraw(self, deadline: Deadline) -> None:
        """Withdraw an unfired deadline (see the class docstring)."""
        deadline.fn = None
        self._withdrawn += 1
        queue = self._queue
        if self._withdrawn > _WITHDRAWN_FLOOR and 2 * self._withdrawn > len(queue):
            live = [e for e in queue if type(e[2]) is not Deadline or e[2].fn]
            self._withdrawn -= len(queue) - len(live)
            queue[:] = live  # in place: run() holds a reference
            heapq.heapify(queue)

    # ------------------------------------------------------------ scheduling
    def schedule_event(self, event: Event, delay: float = 0.0) -> None:
        """Queue ``event`` for processing ``delay`` seconds from now.

        Raises :class:`ValueError` for negative delays.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        now = self.now
        when = now + delay
        if when <= now:
            # Same-instant entries keep FIFO order in the bucket; everything
            # already heap-queued for this instant has a smaller sequence
            # number, so heap-first dispatch preserves the exact
            # (time, sequence) order.
            self._bucket.append(event)
            return
        self._sequence += 1
        heapq.heappush(self._queue, (when, self._sequence, event))

    def schedule_batch(self, times: list[float], args: list[Any],
                       fn: Callable[[Any], None]) -> None:
        """Schedule ``fn(args[i])`` at each ``times[i]`` (one broadcast's copies).

        All entries must lie strictly in the future.  A contiguous sequence
        block is reserved in ``args`` order, so the fire order (and every tie
        with unrelated queue entries) is exactly what per-entry
        :meth:`call_later` calls would have produced.  The entries ride one
        :class:`ScheduledBatch` heap slot, linked in fire order; neither
        sequence is kept, and each entry is freed as it fires.
        """
        k = len(times)
        if k == 0:
            return
        base = self._sequence + 1
        self._sequence = base + k - 1
        batch = ScheduledBatch(fn)
        entry = None
        # Linked back to front: a stable sort by time keeps ties in args
        # order, so the train fires by (time, sequence).
        for i in reversed(sorted(range(k), key=times.__getitem__)):
            entry = (times[i], base + i, batch, args[i], entry)
        heapq.heappush(self._queue, entry)

    # ------------------------------------------------------------- dispatch
    def _dispatch(self, event: Event) -> None:
        """Run the callbacks of one :class:`Event` that is due now."""
        if event._value is PENDING:  # noqa: SLF001 - kernel-internal finalisation
            # Self-scheduling events (timeouts) only become triggered at their
            # fire time; finalise them here before running callbacks.
            event._value = getattr(event, "_scheduled_value", None)  # noqa: SLF001
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue empties or the clock reaches ``until``.

        Dispatch order: heap entries due at the current instant (their
        sequence numbers predate every bucket entry), then the same-instant
        bucket in FIFO order, then the heap advances the clock.  An exception
        raised by a callback or a process propagates out of here.
        """
        if until is not None and until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        queue = self._queue
        bucket = self._bucket
        pool = self._callback_pool
        pop = heapq.heappop
        replace = heapq.heapreplace
        popleft = bucket.popleft
        dispatch = self._dispatch
        while queue or bucket:
            # Same-instant bucket first (unless a heap entry precedes it).
            if bucket:
                if not (queue and queue[0][0] == self.now):
                    entry = popleft()
                    if type(entry) is ScheduledCallback:
                        fn, arg = entry.fn, entry.arg
                        if len(pool) < _CALLBACK_POOL_MAX:
                            # Recycle before running: fn and arg are already
                            # extracted, so a re-entrant call_later may reuse
                            # the instance safely.
                            entry.fn = entry.arg = None
                            pool.append(entry)
                        fn(arg)
                    elif type(entry) is Deadline:
                        if entry.fn is None:
                            self._withdrawn -= 1
                        else:
                            entry.fn()
                    else:
                        dispatch(entry)
                    continue
            elif until is not None and queue[0][0] > until:
                self.now = until
                return
            head = queue[0]
            event = head[2]
            if type(event) is ScheduledBatch:
                # Delivery train: swap the head for the train's next entry in
                # one heapreplace sift (half the heap work of a pop + push),
                # then fire.  Re-inserting *before* the callback runs keeps
                # the queue consistent for anything the delivery schedules;
                # entries key re-insertion by their original (pre-reserved,
                # contiguous) sequence numbers, so the fire order is exactly
                # what per-copy timers would produce, including ties.
                self.now = head[0]
                following = head[4]
                if following is None:
                    pop(queue)
                else:
                    replace(queue, following)
                event.fn(head[3])
                continue
            pop(queue)
            if type(event) is ScheduledCallback:
                self.now = head[0]
                fn, arg = event.fn, event.arg
                if len(pool) < _CALLBACK_POOL_MAX:
                    event.fn = event.arg = None
                    pool.append(event)
                fn(arg)
                continue
            if type(event) is Deadline:
                if event.fn is None:  # withdrawn: the clock stays put
                    self._withdrawn -= 1
                    continue
                self.now = head[0]
                event.fn()
                continue
            self.now = head[0]
            dispatch(event)
        if until is not None:
            self.now = until

    def run_process(self, generator: Generator, until: Optional[float] = None) -> Any:
        """Start ``generator`` as a process, run the simulation, return its value."""
        process = self.process(generator)
        self.run(until=until)
        if process.triggered:
            return process.value
        return None
