"""Tests of the discrete-event simulation kernel."""

import weakref
from functools import partial

import pytest

from repro.core.mailbox import Mailbox
from repro.net.message import Message
from repro.sim import Environment, Resource, Wait
from tests.conftest import Item, gc_paused


def test_timeout_fires_at_the_right_time(env):
    fired = []
    env.timeout(1.5).add_callback(lambda e: fired.append(env.now))
    env.run()
    assert fired == [1.5]


def test_timeout_is_not_triggered_before_its_fire_time(env):
    timeout = env.timeout(1.0)
    assert not timeout.triggered
    env.run(until=0.5)
    assert not timeout.triggered
    env.run(until=2.0)
    assert timeout.triggered


def test_negative_timeout_rejected(env):
    with pytest.raises(ValueError):
        env.timeout(-0.1)


def test_events_at_same_time_processed_in_fifo_order(env):
    order = []
    env.timeout(1.0).add_callback(lambda e: order.append("first"))
    env.timeout(1.0).add_callback(lambda e: order.append("second"))
    env.run()
    assert order == ["first", "second"]


def test_event_succeed_carries_value(env):
    event = env.event()
    results = []
    event.add_callback(lambda e: results.append(e.value))
    event.succeed(42)
    env.run()
    assert results == [42]


def test_event_cannot_trigger_twice(env):
    event = env.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_process_returns_value(env):
    def worker():
        yield env.timeout(1.0)
        return "done"

    proc = env.process(worker())
    env.run()
    assert proc.triggered
    assert proc.value == "done"
    assert env.now == 1.0


def test_processes_can_wait_for_each_other(env):
    def child():
        yield env.timeout(2.0)
        return 7

    def parent():
        result = yield env.process(child())
        return result * 3

    proc = env.process(parent())
    env.run()
    assert proc.value == 21


def test_a_wait_fires_at_whichever_of_event_and_deadline_comes_first(env):
    def waiter():
        first = yield env.wait(env.timeout(1.0, value="fast"), 5.0)
        fired = [(first, env.now)]
        second = yield env.wait(env.timeout(5.0, value="slow"), 2.0)
        fired.append((second, env.now))
        return fired

    proc = env.process(waiter())
    env.run()
    assert proc.value == [(None, 1.0), (None, 3.0)]
    assert env.now == 6.0  # the slow timeout still fires eventually


def test_run_until_stops_the_clock(env):
    env.timeout(10.0)
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_in_the_past_rejected(env):
    env.timeout(1.0)
    env.run()
    with pytest.raises(ValueError):
        env.run(until=0.5)


def test_mailbox_key_skips_non_matching():
    mailbox = Mailbox()
    numbers = [Message(sender=value, channel="c", kind="N",
                       payload=Item.of("N", value % 2))
               for value in (1, 2, 3, 5, 6)]
    for message in numbers[:3]:
        mailbox.put(message)
    assert mailbox.take((("N", 0),)) is numbers[1]
    # A blocked wait's hand-off is passed over by what does not match it.
    handed = []
    mailbox.expect((("N", 0),), None, handed.append)
    for message in numbers[3:]:
        mailbox.put(message)
    assert handed == [numbers[4]]
    assert len(mailbox) == 3
    assert ([mailbox.take((("N", 1),)) for _ in range(4)]
            == [numbers[0], numbers[2], numbers[3], None])


def test_mailbox_take_serves_the_older_of_two_buckets():
    mailbox = Mailbox()
    keys = (("X", 1), ("Y", 1))
    assert mailbox.take(keys) is None
    first = Message(sender=1, channel="c", kind="Y", payload=Item.of("Y", 1))
    second = Message(sender=2, channel="c", kind="X", payload=Item.of("X", 1))
    mailbox.put(first)
    mailbox.put(second)
    assert mailbox.take(keys, sender=3) is None
    assert mailbox.take(keys) is first
    assert mailbox.take(keys) is second


def test_resource_limits_concurrency(env):
    resource = Resource(env, capacity=2)
    occupancy = []
    finished = []

    def done(job_id):
        finished.append((job_id, env.now))
        occupancy.append(resource._in_use)

    for job_id in range(5):
        resource.hold(1.0, lambda _arg, job_id=job_id: done(job_id))
        occupancy.append(resource._in_use)
    assert len(resource._waiters) == 3
    env.run()
    assert max(occupancy) == 2
    assert finished == [(0, 1.0), (1, 1.0), (2, 2.0), (3, 2.0), (4, 3.0)]
    assert env.now == pytest.approx(3.0)


def test_resource_use_helper_releases_on_completion(env):
    """The slot is free again by the time ``then`` runs, and once every
    hold has ended none is held."""
    resource = Resource(env, capacity=1)
    seen = []

    for _ in range(2):
        resource.hold(0.5, lambda _arg: seen.append(
            (env.now, resource._in_use, len(resource._waiters))))
    env.run()
    # The first hold's slot passed straight to the queued one.
    assert seen == [(0.5, 1, 0), (1.0, 0, 0)]
    assert env.now == pytest.approx(1.0)
    assert resource._in_use == 0


def test_resource_release_without_acquire_rejected(env):
    resource = Resource(env, capacity=1)
    with pytest.raises(RuntimeError):
        resource.release()


def test_resource_capacity_must_be_positive(env):
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_fired_condition_detaches_from_pending_children(env):
    """A long-lived event must not accumulate callbacks from dead waits.

    Every blocked ``wait_message`` watches the context's persistent wake
    event.  A wait its deadline decides leaves it; so does one decided
    before it ever watched it — a re-wait that finds a message already in
    hand, where the composite condition it replaced still registered on
    every later pending child (50 such waits left 50 dead callbacks).
    """
    wake = env.event()  # long-lived, never fires

    def waiter():
        for _ in range(50):
            yield env.wait(wake, 0.01)
        for index in range(50):
            yield Wait(env, wake, 0.01, offered=index)
        for index in range(50):
            wait = Wait(env, wake, 0.01)
            wait.offer(index)
            yield wait

    env.process(waiter())
    env.run()
    assert len(wake.callbacks) == 0
    assert env.now == pytest.approx(0.5)  # the offered waits' deadlines lost


def test_condition_detach_preserves_late_child_semantics(env):
    """A wait its deadline decides leaves its event to fire later, for the
    event's other callbacks."""
    values = []

    def waiter():
        slow = env.timeout(1.0, value="slow")
        slow.add_callback(lambda event: values.append((event.value, env.now)))
        values.append(((yield env.wait(slow, 0.1)), env.now))

    env.process(waiter())
    env.run()
    assert values == [(None, 0.1), ("slow", 1.0)]
    assert env.now == pytest.approx(1.0)  # the slow timeout still fires


# --------------------------------------------------------------------------
# Negative-delay regressions: both scheduling entry points must reject
# scheduling in the past (call_later used to accept negative delays and
# silently violate causality).

def test_negative_call_later_rejected(env):
    with pytest.raises(ValueError):
        env.call_later(-1e-9, lambda arg: None)


def test_negative_schedule_event_delay_rejected(env):
    with pytest.raises(ValueError):
        env.schedule_event(env.event(), delay=-0.5)


def test_zero_delay_call_later_runs_now(env):
    fired = []
    env.call_later(0.0, fired.append, "x")
    env.run()
    assert fired == ["x"]
    assert env.now == 0.0


# --------------------------------------------------------------------------
# Property tests: the bucketed/batched event queue must behave exactly like
# a stable sort of (time, sequence) — and exactly like the
# per-entry heap oracle (tests/reference_kernel.py).

from hypothesis import given, settings, strategies as st  # noqa: E402

from tests.reference_kernel import ReferenceEnvironment  # noqa: E402

_DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0 + 2**-40])
_KINDS = st.sampled_from(["call_later", "timeout", "event"])


def _schedule(env, ops, log):
    """Schedule one (kind, delay) op per index; fires append to ``log``."""
    for index, (kind, delay) in enumerate(ops):
        if kind == "call_later":
            env.call_later(delay, lambda arg: log.append(arg), index)
        elif kind == "timeout":
            env.timeout(delay).add_callback(
                lambda event, index=index: log.append(index))
        else:
            event = env.event()
            env.schedule_event(event, delay=delay)
            event.add_callback(lambda event, index=index: log.append(index))


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.tuples(_KINDS, _DELAYS), max_size=24))
def test_fire_order_matches_stable_sort_oracle(ops):
    env = Environment()
    log = []
    _schedule(env, ops, log)
    env.run()
    oracle = sorted(range(len(ops)), key=lambda i: ops[i][1])  # stable by time
    assert log == oracle


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.tuples(_KINDS, _DELAYS), max_size=24))
def test_batched_and_reference_kernels_fire_identically(ops):
    logs = []
    for kernel in (Environment, ReferenceEnvironment):
        env = kernel()
        log = []
        _schedule(env, ops, log)
        env.run()
        logs.append(log)
    assert logs[0] == logs[1]


@settings(max_examples=60, deadline=None)
@given(trains=st.lists(st.lists(_DELAYS, min_size=1, max_size=8),
                       min_size=1, max_size=5),
       singles=st.lists(_DELAYS, max_size=8))
def test_delivery_trains_interleave_like_per_copy_timers(trains, singles):
    """schedule_batch must fire exactly like per-entry call_later timers."""
    logs = []
    for kernel in (Environment, ReferenceEnvironment):
        env = kernel()
        log = []
        for train_id, times in enumerate(trains):
            env.schedule_batch([t for t in times],
                               [(train_id, i) for i in range(len(times))],
                               log.append)
        for index, delay in enumerate(singles):
            env.call_later(delay, log.append, ("single", index))
        env.run()
        logs.append(log)
    assert logs[0] == logs[1]
    assert len(logs[0]) == sum(len(t) for t in trains) + len(singles)


@settings(max_examples=40, deadline=None)
@given(data=st.lists(st.tuples(_DELAYS, _DELAYS), max_size=12))
def test_nested_scheduling_matches_reference_kernel(data):
    """Callbacks that schedule further work mid-run stay kernel-agnostic."""
    logs = []
    for kernel in (Environment, ReferenceEnvironment):
        env = kernel()
        log = []
        for index, (outer, inner) in enumerate(data):
            def fire(arg, inner=inner):
                log.append(arg)
                env.call_later(inner, log.append, ("nested", arg))
            env.call_later(outer, fire, index)
        env.run()
        logs.append(log)
    assert logs[0] == logs[1]
    assert len(logs[0]) == 2 * len(data)


def test_same_timestamp_bucket_preserves_schedule_order(env):
    """Zero-delay entries scheduled mid-run drain in FIFO order."""
    log = []

    def first(arg):
        log.append("first")
        env.call_later(0.0, lambda a: log.append("nested-1"), None)
        env.call_later(0.0, lambda a: log.append("nested-2"), None)

    env.call_later(0.5, first, None)
    env.call_later(0.5, lambda a: log.append("second"), None)
    env.run()
    assert log == ["first", "second", "nested-1", "nested-2"]


class _Tracked:
    """Weak-referenceable stand-in for what a broadcast allocates."""


def _run_to_completion(env):
    env.run()


def _step_to_completion(env):
    """Instant by instant: one ``run(until=)`` per distinct fire time."""
    for until in (1.0, 1.5, 2.0, 3.0, 3.5):
        env.run(until=until)


@pytest.mark.parametrize("drive", [_run_to_completion, _step_to_completion],
                         ids=["run", "step"])
@pytest.mark.parametrize("kernel", [Environment, ReferenceEnvironment])
def test_a_fired_train_is_freed_by_reference_count_alone(kernel, drive):
    """With the cyclic GC off, nothing a train was handed survives it: each
    ``args`` element is gone once the kernel has moved past its entry, and
    what ``fn`` captured (the envelope, for a broadcast) is gone right after
    the last entry fires — observed from a later timer, mid-run, not only
    after the run.  A train that refers to itself in a cycle (pre-built
    entries pointing at the object that lists them) fails this."""
    env = kernel()
    fired, alive = [], []
    args = [_Tracked() for _ in range(3)]
    captured = _Tracked()
    refs = [weakref.ref(obj) for obj in (*args, captured)]

    def fn(envelope, arg):
        fired.append(env.now)

    def probe(_arg):
        alive.append([ref() is not None for ref in refs])

    with gc_paused():
        env.schedule_batch([3.0, 1.0, 2.0], args, partial(fn, captured))
        del args, captured
        env.call_later(1.5, probe)   # entry 1 fired; entries 2 and 0 pending
        env.call_later(3.5, probe)   # the whole train fired
        drive(env)
    assert fired == [1.0, 2.0, 3.0]
    assert alive == [[True, False, True, True], [False] * 4]


# --------------------------------------------------------------------------
# A wait costs one kernel entry: ``Resource.hold`` against the grant-event
# resource it replaced, and withdrawn ``Wait`` deadlines against deadlines
# left to fire (tests/reference_kernel.py).

from types import SimpleNamespace  # noqa: E402
from unittest import mock  # noqa: E402

from repro.core.context import ProtocolContext  # noqa: E402
from tests.reference_kernel import (  # noqa: E402
    ReferenceResource,
    reference_use,
)

_TICK = 2.0 ** -10


def _hold_trace(holders, capacity, reference):
    """Play ``holders`` — ``(process?, start tick, ticks)`` — on one resource.

    A process holder waits through ``ProtocolContext.use_cpu`` (or the old
    ``use()`` generator), a callback holder through ``hold``.  The trace is
    ``(holder, requested at, resumed at, slots in use, holds queued)`` in
    resume order plus the occupancy at every tick, so each hold's start
    (resumed at minus its length), end and wake-up are all compared.
    """
    env = Environment()
    resource = (ReferenceResource if reference else Resource)(env, capacity)
    context = SimpleNamespace(env=env, _endpoint=SimpleNamespace(cpu=resource))
    trace = []

    def queued():
        return len(resource._waiters)  # noqa: SLF001 - both keep a FIFO

    def resumed(index, requested):
        trace.append((index, requested, env.now, resource._in_use, queued()))

    def process(index, ticks):
        requested = env.now
        if reference:
            yield from reference_use(resource, ticks * _TICK)
        else:
            yield from ProtocolContext.use_cpu(context, ticks * _TICK)
        resumed(index, requested)

    def start(holder):
        index, (is_process, _start, ticks) = holder
        if is_process:
            env.process(process(index, ticks))
        else:
            requested = env.now
            resource.hold(ticks * _TICK,
                          lambda _arg: resumed(index, requested))

    def tick(remaining):
        trace.append(("tick", env.now, resource._in_use, queued()))
        if remaining:
            env.call_later(_TICK, tick, remaining - 1)

    env.call_later(0.0, tick, 40)
    for holder in enumerate(holders):
        env.call_later(holder[1][1] * _TICK, start, holder)
    env.run()
    return trace


@settings(max_examples=80, deadline=None)
@given(capacity=st.integers(1, 4),
       holders=st.lists(st.tuples(st.booleans(), st.integers(0, 6),
                                  st.integers(1, 4)), max_size=12))
def test_hold_matches_the_grant_event_resource(capacity, holders):
    """One pooled timer per hold (and a zero-delay start timer when it had
    to queue) is indistinguishable from a grant ``Event`` plus a
    ``Timeout``: same slot order, same release instants, same wake-ups."""
    assert (_hold_trace(holders, capacity, reference=False)
            == _hold_trace(holders, capacity, reference=True))


def _wait_log(kernel, waits, timers, floor):
    """Play ``waits`` — ``(start tick, deadline ticks or None, win tick or
    None)`` — as ``Environment.wait`` over one event each; log every
    callback with the clock.  Explicit timeouts and plain timers at
    ``timers`` ticks share the queue, so neither dropping deadlines nor
    rebuilding the queue may shift them."""
    env = kernel()
    log = []
    for index, tick in enumerate(timers):
        env.call_later(tick * _TICK, log.append, ("noise", index))

    def arm(index):
        _start, timeout, win = waits[index]
        child = env.event()
        wait = env.wait(child, None if timeout is None else timeout * _TICK)
        wait.add_callback(lambda _event: log.append(
            ("fired", index, env.now, child.triggered)))
        env.timeout(_TICK).add_callback(
            lambda _event: log.append(("timeout", index, env.now)))
        if win is not None:
            env.call_later(win * _TICK, lambda _arg: child.succeed(index))

    for index, (start, _timeout, _win) in enumerate(waits):
        env.call_later(start * _TICK, lambda arg: arm(arg), index)
        env.call_later(start * _TICK, log.append, ("timer", index))
    with mock.patch("repro.sim.environment._WITHDRAWN_FLOOR", floor):
        env.run()
    return log


@settings(max_examples=80, deadline=None)
@given(floor=st.sampled_from([0, 3, 100]),
       waits=st.lists(st.tuples(st.integers(0, 5),
                                st.one_of(st.none(), st.integers(0, 6)),
                                st.one_of(st.none(), st.integers(0, 6))),
                      max_size=24),
       timers=st.lists(st.integers(1, 12), max_size=24))
def test_withdrawn_deadlines_match_deadlines_left_to_fire(floor, waits,
                                                          timers):
    """Withdrawing a lost deadline (and rebuilding the queue without the
    withdrawn ones, whatever the floor) fires the same callbacks at the same
    instants in the same order as leaving every deadline to fire."""
    assert (_wait_log(Environment, waits, timers, floor)
            == _wait_log(ReferenceEnvironment, waits, timers, floor))


def test_a_withdrawn_deadline_neither_fires_nor_moves_the_clock(env):
    child = env.event()
    wait = env.wait(child, 5.0)
    env.call_later(1.0, lambda _arg: child.succeed("won"))
    env.run()
    assert wait.value is None and child.value == "won"
    assert env.now == 1.0  # the deadline at 5.0 was dropped, not popped
    assert not env._queue and env._withdrawn == 0  # noqa: SLF001


def test_an_unwon_deadline_fires_with_no_child_value(env):
    wait = env.wait(env.event(), 2.0)
    env.run()
    assert wait.value is None
    assert env.now == 2.0


def test_withdrawn_deadlines_are_compacted_out_of_the_queue(env):
    """Past the floor, withdrawn entries may not outnumber live ones: of
    300 lost deadlines beside 50 live timers, at most the floor's worth
    (100) is still queued, and the rebuilt queue pops in time order."""
    fired = []
    children = [env.event() for _ in range(300)]
    for index, child in enumerate(children):
        env.wait(child, 10.0 + (index * 37 % 300))
        if index % 6 == 0:
            env.call_later(10.0 + (index * 53 % 300),
                           lambda _arg: fired.append(env.now))
    assert len(env._queue) == 350  # noqa: SLF001
    for child in children:
        child.succeed()
    env.run(until=1.0)
    queue, withdrawn = len(env._queue), env._withdrawn  # noqa: SLF001
    assert queue - withdrawn == 50
    assert withdrawn <= 100
    env.run()
    assert len(fired) == 50 and fired == sorted(fired)


# --------------------------------------------------------------------------
# A poll is a re-arming timer: the queue slots, sequence numbers and resume
# positions of the ``env.timeout`` re-check loop it replaced, without the
# empty wake-ups.

from repro.runtime import RealtimeEnvironment  # noqa: E402

_PERIOD = 0.25


def _poll_trace(kernel, poll, timers, flips):
    """``(now, what)`` in fire order, and the kernel's ``_sequence``, for a
    process that waits three times for a counter to pass 0, 1, 2 — through
    ``env.poll`` or through the ``timeout`` loop — beside ``timers``:
    ``(delay, nested delay)`` pairs whose fire schedules one more timer.  A
    timer's fire steps the counter when it is the trace's n-th entry, for
    each n in ``flips``."""
    env = kernel()
    trace, count = [], [0]

    def fire(label):
        trace.append((env.now, label))
        if len(trace) in flips:
            count[0] += 1

    def timer(arg):
        index, nested = arg
        fire(index)
        env.call_later(nested, fire, ("nested", index))

    def waiter():
        for passed in range(3):
            if count[0] <= passed:
                if poll:
                    yield env.poll(_PERIOD, lambda: count[0] > passed)
                else:
                    while count[0] <= passed:
                        yield env.timeout(_PERIOD)
            trace.append((env.now, ("resumed", passed)))

    for index, (delay, nested) in enumerate(timers):
        env.call_later(delay, timer, (index, nested))
    env.process(waiter())
    env.run(until=4.0)
    return trace, env._sequence  # noqa: SLF001


@settings(max_examples=80, deadline=None)
@given(timers=st.lists(st.tuples(_DELAYS, _DELAYS), max_size=12),
       flips=st.sets(st.integers(1, 24), max_size=4))
def test_a_poll_ticks_where_the_timeout_loop_woke(timers, flips):
    """Same trace — every resume at the same instant, between the same
    same-instant entries — and the same ``_sequence``, on both kernels."""
    for kernel in (Environment, ReferenceEnvironment):
        assert (_poll_trace(kernel, True, timers, flips)
                == _poll_trace(kernel, False, timers, flips))


def test_a_poll_that_never_holds_ticks_forever_and_resumes_nobody(env):
    checks, resumed = [], []

    def waiter():
        yield env.poll(_PERIOD, lambda: checks.append(env.now))
        resumed.append(env.now)

    env.process(waiter())
    env.run(until=10.0)
    assert checks == [_PERIOD * tick for tick in range(1, 41)]
    assert resumed == []
    assert len(env._queue) == 1  # noqa: SLF001 - the next tick, re-armed


@pytest.mark.parametrize("period", [0.0, -0.25])
def test_a_poll_period_must_be_positive(env, period):
    with pytest.raises(ValueError, match="positive"):
        env.poll(period, lambda: True)
    assert not env._queue and not env._bucket  # noqa: SLF001


@pytest.mark.parametrize("kernel", [Environment, ReferenceEnvironment])
def test_a_fired_poll_is_freed_by_reference_count_alone(kernel):
    """With the cyclic GC off, the poll — seen through the predicate and the
    event only it holds — lives while it ticks and is gone once its waking
    tick has run, observed from a later timer, mid-run."""
    env = kernel()
    ready, alive = [False], []

    def predicate():
        return ready[0]

    def probe(_arg):
        alive.append([ref() is not None for ref in refs])

    with gc_paused():
        event = env.poll(_PERIOD, predicate)
        refs = [weakref.ref(predicate), weakref.ref(event)]
        del predicate, event
        env.call_later(0.6, lambda _arg: ready.__setitem__(0, True))
        env.call_later(0.6, probe)   # ticks at 0.25 and 0.5 were empty
        env.call_later(1.0, probe)   # the tick at 0.75 fired the event
        env.run()
    assert alive == [[True, True], [False, False]]


def test_a_realtime_poll_fires_soon_after_its_condition_holds():
    """The realtime backend inherits ``poll``: built from ``call_later`` and
    ``Event``, it resumes its waiter within a few periods of the flip."""
    env = RealtimeEnvironment()
    ready, resumed = [False], []

    def waiter():
        yield env.poll(0.002, lambda: ready[0])
        resumed.append(env.now)

    try:
        env.process(waiter())
        env.call_later(0.05, lambda _arg: ready.__setitem__(0, True))
        env.run(until=0.5)
    finally:
        env.close()
    assert len(resumed) == 1
    assert 0.05 <= resumed[0] < 0.15


# --------------------------------------------------------------------------
# A blocked wait is one object: a ``Wait`` takes the same-instant slots the
# handed-off event and the ``AnyOf`` over it and the watched event took
# (tests/reference_wait.py), on either kernel.

from tests.reference_wait import AnyOf  # noqa: E402


def _race_log(kernel, one_object, timeout, wait_first, in_hand, handed_at,
              watched_at):
    """Race one wait against a chain of zero-delay ticks.  Tick 0 (t = 1)
    starts the wait — before or after it schedules tick 1, ``timeout or
    0`` later — with the value already in hand or not; the value is handed
    off at tick ``handed_at`` and the watched event fires at tick
    ``watched_at`` (either may be ``None``).  Logged: every tick, the fire
    (time, value won, value handed off by then) and what was handed off by
    the end."""
    env = kernel()
    log, offer, offered = [], [], []
    watched = env.event()
    value = ("handed", 0) if in_hand else None

    def start():
        if one_object:
            wait = Wait(env, watched, timeout, offered=value)
            offer.append(wait.offer)
            offered.append(lambda: wait.offered)
            wait.add_callback(lambda event: log.append(
                ("fired", env.now, event.value, event.offered)))
            return
        handed = env.event()
        if in_hand:
            handed.succeed(value)
        condition = AnyOf(env, [handed, watched], timeout)
        offer.append(handed.succeed)
        offered.append(lambda: handed._value if handed.triggered else None)
        condition.add_callback(lambda event: log.append(
            ("fired", env.now, event.value.get(handed), offered[0]())))

    def tick(n):
        log.append(("tick", n, env.now))
        if n == 0:
            if wait_first:
                start()
            env.call_later(timeout or 0.0, tick, 1)
            if not wait_first:
                start()
        else:
            if n < 6:
                env.call_later(0.0, tick, n + 1)
        if n == handed_at and not in_hand:
            offer[0](("handed", n))
        if n == watched_at:
            watched.succeed(("watched", n))

    env.call_later(1.0, tick, 0)
    env.run()
    log.append(("end", offered[0]()))
    return log


@settings(max_examples=200, deadline=None)
@given(kernel=st.sampled_from([Environment, ReferenceEnvironment]),
       timeout=st.sampled_from([None, 0.0, 1.0]),
       wait_first=st.booleans(), in_hand=st.booleans(),
       handed_at=st.none() | st.integers(0, 6),
       watched_at=st.none() | st.integers(0, 6))
def test_a_wait_takes_the_slots_of_the_event_and_condition_it_replaced(
        kernel, timeout, wait_first, in_hand, handed_at, watched_at):
    """A hand-off, the watched event and the deadline in one instant, in
    every order: the wait is decided by the same one, fires at the same
    tick, and a value handed off after the decision stays in ``offered``."""
    args = (timeout, wait_first, in_hand, handed_at, watched_at)
    assert _race_log(kernel, True, *args) == _race_log(kernel, False, *args)
