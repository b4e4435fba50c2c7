"""Wall-clock environment: the sim kernel contract over an asyncio loop.

:class:`RealtimeEnvironment` is the second implementation of the
:class:`~repro.sim.environment.Environment` contract: the same members, and
only the ones it implements differently are overridden (the clock ``now``,
a property here where the simulator has a slot, ``call_later``,
``schedule_event``, ``schedule_batch``, ``run``, the deadline pair
``_arm_deadline`` / ``_withdraw``).  Time is the
event loop's monotonic clock, re-based so ``now`` starts at zero when the
environment is constructed; timers (``call_later`` / ``schedule_event`` /
``timeout`` / a ``Wait`` deadline) become loop handles, ``call_soon``
ones when due *now* (see ``_arm``).
Everything layered on the kernel primitives —
:class:`~repro.sim.process.Process` generators,
:class:`~repro.sim.resource.Resource` CPU slots, ``Wait`` races,
``poll`` timers, the network's final delivery step — is inherited unchanged:
those only ever talk to ``call_later``/``schedule_event``/``now`` and the
deadline pair, so the same protocol code drives either backend.

The one difference from the simulated kernel, by necessity:
``run(until=...)`` requires an explicit deadline — a wall clock never "runs
out of events" — and takes ``until`` seconds of real time.

Exceptions raised by process callbacks land in asyncio's loop exception
handler rather than propagating through the dispatch stack; the environment
captures the first one, stops the run early, and re-raises it from ``run`` —
same observable contract as the simulator.

The environment owns a private event loop (never the thread's default), and
:class:`~repro.runtime.network.RealtimeNetwork` registers startup/shutdown
hooks on it so servers bind before the deadline clock starts and sockets are
torn down before ``run`` returns.  The loop sits on a :class:`_PreciseSelector`,
so a timer fires when it is due, not at the next whole millisecond.
"""

from __future__ import annotations

import asyncio
import select
import selectors
import threading
from typing import Any, Awaitable, Callable, Optional

from repro.sim.environment import Environment


class _PreciseSelector(selectors.DefaultSelector):
    """The platform selector (epoll on Linux), with timed waits that end when
    they are due.

    ``EpollSelector`` rounds a timeout *up* to whole milliseconds, so every
    sub-millisecond wait of the loop — a CPU hold, a link delay, a client's
    next arrival — lasted ~1.1 ms.  A positive timeout here is spent in
    ``select.select`` on the epoll descriptor itself, which takes
    microseconds and turns readable as soon as any registered socket is
    ready; the ready events are then collected without waiting.  ``select``
    cannot watch a descriptor numbered past FD_SETSIZE (1024), but this one
    is created with the loop, before any of the cluster's sockets, so its
    number stays far below that however many sockets the cluster opens.
    """

    def select(self, timeout: Optional[float] = None):
        if timeout is not None and timeout > 0:
            select.select((self.fileno(),), (), (), timeout)
            timeout = 0
        return super().select(timeout)


class RealtimeEnvironment(Environment):
    """Run the simulation contract in real time on a private asyncio loop."""

    __slots__ = ("_loop", "_origin", "_frozen_now", "_startup_hooks",
                 "_shutdown_hooks", "_error", "_failure", "_stopping")

    def __init__(self) -> None:
        self._loop = asyncio.SelectorEventLoop(_PreciseSelector())
        self._loop.set_exception_handler(self._on_loop_exception)
        self._frozen_now: Optional[float] = None
        # Assigns ``now``, which re-bases the wall clock (``_origin``).
        super().__init__()
        self._startup_hooks: list[Callable[[], Awaitable[None]]] = []
        self._shutdown_hooks: list[Callable[[], Awaitable[None]]] = []
        self._error: Optional[BaseException] = None
        self._failure: Optional[asyncio.Event] = None
        self._stopping = False

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Wall-clock seconds since the environment was constructed.

        The simulator's clock is a slot its run loop writes; here it is
        computed on every read.  Frozen at the ``until`` deadline once
        :meth:`run` returns, so post-run summarisation (metric windows,
        backlog formulas) sees the same stable end-of-run clock the
        simulator provides.
        """
        frozen = self._frozen_now
        if frozen is not None:
            return frozen
        return self._loop.time() - self._origin

    @now.setter
    def now(self, value: float) -> None:
        """Re-base the wall clock so that ``now`` reads ``value``."""
        self._origin = self._loop.time() - value

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The private event loop (transport layers schedule I/O on it)."""
        return self._loop

    @property
    def stopping(self) -> bool:
        """True once the run deadline has passed and scheduling went inert."""
        return self._stopping

    # ------------------------------------------------------------ scheduling
    def call_later(self, delay: float, fn: Callable[[Any], None],
                   arg: Any = None) -> None:
        """Schedule ``fn(arg)`` after ``delay`` real seconds.

        Once the run deadline has passed (``stopping``), scheduling is a
        no-op: an oversubscribed run can hold a large ready backlog at the
        deadline, and callbacks that keep rescheduling (round timers, vote
        chains) would race the shutdown drain forever.  Going inert matches
        the simulator, which simply leaves post-``until`` events unprocessed.
        """
        self._arm(delay, fn, arg)

    def schedule_event(self, event: Any, delay: float = 0.0) -> None:
        """Queue ``event`` for dispatch ``delay`` real seconds from now.

        Inert after the deadline, like :meth:`call_later`.
        """
        self._arm(delay, self._dispatch, event)

    def _arm(self, delay: float, fn: Callable,
             *args: Any) -> Optional[asyncio.Handle]:
        """Schedule ``fn(*args)`` (``None`` once inert).  What is due *now*
        shares the loop's FIFO ready queue, as it shares the simulator's
        same-instant bucket; only a positive delay uses the timer heap."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        if self._stopping:
            return None
        if delay <= 0:
            return self._loop.call_soon(fn, *args)
        return self._loop.call_later(delay, fn, *args)

    #: A ``Wait`` deadline is a loop handle, withdrawn by cancelling it.
    _arm_deadline = _arm

    def _withdraw(self, deadline: asyncio.Handle) -> None:
        deadline.cancel()

    def schedule_batch(self, times: list, args: list,
                       fn: Callable[[Any], None]) -> None:
        """Schedule ``fn(args[i])`` at each absolute time ``times[i]``."""
        if self._stopping:
            return
        now = self.now
        call_later = self._loop.call_later
        for when, arg in zip(times, args):
            call_later(max(0.0, when - now), fn, arg)

    # ----------------------------------------------------------------- hooks
    def add_startup_hook(self, hook: Callable[[], Awaitable[None]]) -> None:
        """Run ``await hook()`` on the loop before the run deadline starts."""
        self._startup_hooks.append(hook)

    def add_shutdown_hook(self, hook: Callable[[], Awaitable[None]]) -> None:
        """Run ``await hook()`` on the loop as the run winds down."""
        self._shutdown_hooks.append(hook)

    # ------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None) -> None:
        """Drive the loop for real time until ``now`` reaches ``until``.

        Unlike the simulator, a deadline is mandatory — a wall clock never
        drains its queue.  Startup hooks (network servers binding their
        ports) complete before the wait begins; shutdown hooks and a cancel
        sweep of leftover tasks run before this returns, so no sockets or
        tasks outlive the call.  The first exception captured from any
        callback or transport task aborts the wait and is re-raised here.
        """
        if until is None:
            raise ValueError(
                "RealtimeEnvironment.run requires an explicit 'until' "
                "deadline: real time has no empty-queue stopping point")
        if until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        loop = self._loop
        if loop.is_closed():
            raise RuntimeError("environment already closed")
        self._frozen_now = None
        self._stopping = False
        # A loop saturated with ready callbacks can starve its own timers,
        # including the deadline timer; a watchdog thread flips the inert
        # flag at the deadline no matter how congested the loop is (writing
        # one bool is atomic under the GIL), which stops the backlog from
        # growing and lets the in-loop deadline fire.
        watchdog = threading.Timer(max(0.0, until - self.now), self._go_inert)
        watchdog.daemon = True
        watchdog.start()
        try:
            loop.run_until_complete(self._main(until))
            self._cancel_leftovers(loop)
        finally:
            watchdog.cancel()
            self._frozen_now = until
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def close(self) -> None:
        """Close the private event loop.  The environment is dead after this."""
        if not self._loop.is_closed():
            self._loop.close()

    async def _main(self, until: float) -> None:
        self._failure = asyncio.Event()
        try:
            for hook in list(self._startup_hooks):
                await hook()
            while self._error is None:
                remaining = until - self.now
                if remaining <= 0:
                    break
                try:
                    await asyncio.wait_for(self._failure.wait(),
                                           timeout=remaining)
                except asyncio.TimeoutError:
                    pass
        finally:
            self._stopping = True
            self._failure = None
            for hook in list(self._shutdown_hooks):
                try:
                    await hook()
                except Exception as error:  # noqa: BLE001 - recorded, re-raised by run
                    if self._error is None:
                        self._error = error

    def _go_inert(self) -> None:
        self._stopping = True

    def _cancel_leftovers(self, loop: asyncio.AbstractEventLoop) -> None:
        pending = [task for task in asyncio.all_tasks(loop) if not task.done()]
        if not pending:
            return
        for task in pending:
            task.cancel()
        loop.run_until_complete(
            asyncio.gather(*pending, return_exceptions=True))

    def _on_loop_exception(self, loop: asyncio.AbstractEventLoop,
                           context: dict) -> None:
        error = context.get("exception")
        if error is None:
            error = RuntimeError(context.get("message")
                                 or "unhandled error in the realtime loop")
        if self._error is None:
            self._error = error
        failure = self._failure
        if failure is not None:
            failure.set()
