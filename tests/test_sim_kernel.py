"""Tests of the discrete-event simulation kernel."""

import weakref
from functools import partial

import pytest

from repro.core.mailbox import Mailbox
from repro.net.message import Message
from repro.sim import Environment, Resource
from tests.conftest import gc_paused


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


def test_any_of_returns_first_event(env):
    def waiter():
        fast = env.timeout(1.0, value="fast")
        slow = env.timeout(5.0, value="slow")
        result = yield env.any_of([fast, slow])
        return list(result.values())

    proc = env.process(waiter())
    env.run()
    assert proc.value == ["fast"]
    assert env.now == 5.0  # the slow timeout still fires eventually


def test_run_until_stops_the_clock(env):
    env.timeout(10.0)
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_in_the_past_rejected(env):
    env.timeout(1.0)
    env.run()
    with pytest.raises(ValueError):
        env.run(until=0.5)


def test_mailbox_key_skips_non_matching(env):
    mailbox = Mailbox(env, {"N": "parity"})
    numbers = [Message(sender=value, channel="c", kind="N",
                       payload={"parity": value % 2}) for value in (1, 2, 3)]
    for message in numbers:
        mailbox.put(message)

    def consumer():
        even = yield mailbox.wait((("N", 0),))
        return even

    proc = env.process(consumer())
    env.run()
    assert proc.value is numbers[1]
    assert len(mailbox) == 2
    assert [mailbox.take((("N", 1),)) for _ in range(3)] == [numbers[0], numbers[2], None]


def test_mailbox_take_serves_the_older_of_two_buckets(env):
    mailbox = Mailbox(env, {"X": "k", "Y": "k"})
    keys = (("X", 1), ("Y", 1))
    assert mailbox.take(keys) is None
    first = Message(sender=1, channel="c", kind="Y", payload={"k": 1})
    second = Message(sender=2, channel="c", kind="X", payload={"k": 1})
    mailbox.put(first)
    mailbox.put(second)
    assert mailbox.take(keys, sender=3) is None
    assert mailbox.take(keys) is first
    assert mailbox.take(keys) is second


def test_resource_limits_concurrency(env):
    resource = Resource(env, capacity=2)
    running = []
    peak = []

    def job(job_id):
        yield resource.acquire()
        running.append(job_id)
        peak.append(len(running))
        yield env.timeout(1.0)
        running.remove(job_id)
        resource.release()

    for job_id in range(5):
        env.process(job(job_id))
    env.run()
    assert max(peak) == 2
    assert env.now == pytest.approx(3.0)


def test_resource_use_helper_releases_on_completion(env):
    resource = Resource(env, capacity=1)

    def job():
        yield from resource.use(0.5)

    env.process(job())
    env.process(job())
    env.run()
    assert env.now == pytest.approx(1.0)
    assert resource.in_use == 0


def test_resource_release_without_acquire_rejected(env):
    resource = Resource(env, capacity=1)
    with pytest.raises(RuntimeError):
        resource.release()


def test_resource_capacity_must_be_positive(env):
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_fired_condition_detaches_from_pending_children(env):
    """A long-lived event must not accumulate callbacks from dead conditions.

    Every wait_message builds an AnyOf over the worker's persistent wake
    event; before the detach fix each fired condition stayed registered on
    the never-firing child forever, growing memory linearly with run length.
    """
    wake = env.event()  # long-lived, never fires

    def waiter():
        for _ in range(50):
            yield env.any_of([env.timeout(0.01), wake])

    env.process(waiter())
    env.run()
    assert len(wake.callbacks) == 0


def test_condition_detach_preserves_late_child_semantics(env):
    values = []

    def waiter():
        fast = env.timeout(0.1, value="fast")
        slow = env.timeout(1.0, value="slow")
        result = yield env.any_of([fast, slow])
        values.append(list(result.values()))

    env.process(waiter())
    env.run()
    assert values == [["fast"]]
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
