"""Tests of the protocol context helpers and the Weak Reliable Broadcast."""

import random
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import FireLedgerConfig
from repro.core.context import PanicInterrupt, ProtocolContext
from repro.core.fireledger import BODY, Body, FireLedgerWorker
from repro.core.timers import AdaptiveTimer
from repro.core.wrb import (
    INBOX,
    WRB_HEADER,
    WRB_PULL_RESP,
    Header,
    WeakReliableBroadcast,
)
from repro.crypto.cost_model import M5_XLARGE
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import SIGNATURE_SIZE_BYTES
from repro.ledger.block import HEADER_BASE_SIZE_BYTES, build_block, make_genesis
from repro.ledger.transaction import Batch, Transaction
from repro.net.latency import SingleDatacenterLatency
from repro.net.message import Message
from repro.net.network import Network
from repro.sim import Environment
from tests import reference_wait
from tests.conftest import Item, make_network
from tests.reference_collect import (
    reference_collect,
    reference_on_body,
    reference_wait_message,
)
from tests.reference_kernel import ReferenceEnvironment

def send_item(network, sender, kind, instance, receiver=0):
    network.send(sender, receiver, "wrb", kind, Item.of(kind, instance))


def build_context(env, network, node_id, channel="wrb", panics=(),
                  records=INBOX):
    return ProtocolContext(env, network, node_id, channel, records,
                           panics=panics)


# ------------------------------------------------------------------- context
def test_wait_message_timeout_returns_none():
    env = Environment()
    network = make_network(env, 4)
    context = build_context(env, network, 0, records=(Item,))

    def waiter():
        return (yield from context.wait_message("A", 1, timeout=0.5))

    assert env.run_process(waiter()) is None
    assert env.now >= 0.5


def test_wait_message_matches_kind_key_and_sender():
    env = Environment()
    network = make_network(env, 4)
    context = build_context(env, network, 0, records=(Item,))
    send_item(network, 1, "A", 2)
    send_item(network, 1, "B", 1)
    send_item(network, 2, "B", 2)
    send_item(network, 3, "B", 2)

    def waiter():
        message = yield from context.wait_message("B", 2, sender=3, timeout=1.0)
        return message.kind, message.payload.round, message.sender

    assert env.run_process(waiter()) == ("B", 2, 3)
    # The wrong-sender message of the same bucket stays buffered, like the
    # other kinds and keys.
    assert len(context.inbox) == 3
    assert context.inbox.take((("B", 2),)).sender == 2


def test_undeclared_kinds_are_dropped_at_put():
    env = Environment()
    network = make_network(env, 4)
    context = build_context(env, network, 0, records=(Item,))
    network.send(1, 0, "wrb", "NOISE", {"v": 1})
    env.run()
    assert len(context.inbox) == 0


def test_wait_message_raises_panic_interrupt():
    env = Environment()
    network = make_network(env, 4)
    pending = []
    context = build_context(env, network, 0, records=(Item,),
                            panics=pending)

    def waiter():
        try:
            yield from context.wait_message("A", 0, timeout=5.0)
        except PanicInterrupt as interrupt:
            return ("panic", interrupt.panic, env.now)
        return "no-panic"

    def panicker(_event):
        pending.append("proof")
        context.notify_interrupt()

    env.timeout(0.3).add_callback(panicker)
    result = env.run_process(waiter())
    assert result[0] == "panic"
    assert result[1] == "proof"
    assert result[2] == pytest.approx(0.3, abs=0.01)


def test_wait_message_requeues_message_racing_the_timeout():
    """A message landing between the timeout firing and the wait's withdrawal
    must not vanish into the abandoned wait (``Mailbox.withdraw`` re-files
    it): the wait still times out, but the next wait sees it."""
    env = Environment()
    network = make_network(env, 4)
    context = build_context(env, network, 0, records=(Item,))
    outcomes = []

    def waiter():
        first = yield from context.wait_message("A", 1, timeout=1.0)
        outcomes.append(("first", first))
        second = yield from context.wait_message("A", 1, timeout=1.0)
        outcomes.append(("second", second))

    env.process(waiter())
    env.run(until=0.5)  # the wait (and its internal timeout) is registered

    racer = Message(sender=1, channel="wrb", kind="A", payload=Item.of("A", 1))

    def racing_put(_event):
        context.inbox.put(racer)

    # This timer is created *after* the wait's own timeout, so at t=1.0 the
    # heap pops the wait timeout first (the wait is decided empty-handed),
    # then this put reaches the still-registered wait — exactly the race.
    env.timeout(0.5).add_callback(racing_put)
    env.run(until=3.0)

    assert outcomes[0] == ("first", None)          # the wait timed out...
    assert outcomes[1] == ("second", racer)        # ...but the message survived


def test_mailbox_refuses_a_second_concurrent_waiter():
    env = Environment()
    network = make_network(env, 4)
    context = build_context(env, network, 0, records=(Item,))
    context.inbox.expect((("A", 1),), None, [].append)
    with pytest.raises(RuntimeError):
        context.inbox.expect((("B", 1),), None, [].append)


# A blocked wait races a message against the deadline and the wake event;
# every race is played on both kernels, through the one ``Wait`` and through
# the event-per-wait oracle (tests/reference_wait.py).
RACES = pytest.mark.parametrize("kernel, reference", [
    (Environment, False), (ReferenceEnvironment, False),
    (Environment, True), (ReferenceEnvironment, True)])


def _racing_context(monkeypatch, kernel, reference, panics=()):
    if reference:
        reference_wait.use_reference(monkeypatch)
    env = kernel()
    network = make_network(env, 4)
    context = build_context(env, network, 0, records=(Item,),
                            panics=panics)
    return env, context, network.machine.message_processing_cpu


def _racer(sender=1):
    return Message(sender=sender, channel="wrb", kind="A",
                   payload=Item.of("A", 1))


@RACES
@pytest.mark.parametrize("message_first", [True, False])
def test_a_message_and_the_deadline_at_one_instant(monkeypatch, kernel,
                                                   reference, message_first):
    """A message delivered at the deadline's instant but queued ahead of it
    wins although the deadline decides the wait: it was handed off before
    the decision.  Queued behind it, it loses, is re-filed and is served by
    the next wait."""
    env, context, cpu = _racing_context(monkeypatch, kernel, reference)
    racer, outcomes = _racer(), []

    def waiter():
        for _ in range(2):
            message = yield from context.wait_message("A", 1, timeout=1.0)
            outcomes.append((message, env.now))

    if message_first:
        env.call_later(1.0, lambda _arg: context.inbox.put(racer))
    env.process(waiter())
    env.run(until=0.5)
    if not message_first:
        env.call_later(0.5, lambda _arg: context.inbox.put(racer))
    env.run()
    expected = ([(racer, 1.0 + cpu), (None, pytest.approx(2.0 + cpu))]
                if message_first else [(None, 1.0), (racer, 1.0 + cpu)])
    assert outcomes == expected


@RACES
@pytest.mark.parametrize("panic", [True, False])
@pytest.mark.parametrize("message_hop", [0, 1])
def test_a_message_and_the_wake_at_one_instant(monkeypatch, kernel, reference,
                                               panic, message_hop):
    """A message handed off by the callback that wakes the wait, before the
    wake event's dispatch decides it, wins.  One handed off a hop later
    loses to the wake and is re-filed: a pending panic is raised and leaves
    it buffered; a spurious wake waits again and is served it at once."""
    pending = []
    env, context, cpu = _racing_context(monkeypatch, kernel, reference,
                                        panics=pending)
    racer, outcomes = _racer(), []

    def waiter():
        try:
            message = yield from context.wait_message("A", 1, timeout=5.0)
        except PanicInterrupt as interrupt:
            outcomes.append((interrupt.panic, env.now))
        else:
            outcomes.append((message, env.now))

    def wake(_arg):
        if panic:
            pending.append("proof")
        context.notify_interrupt()
        if message_hop:
            env.call_later(0.0, lambda _arg: context.inbox.put(racer))
        else:
            context.inbox.put(racer)

    env.call_later(1.0, wake)
    env.process(waiter())
    env.run()
    if message_hop and panic:
        assert outcomes == [("proof", 1.0)]
        assert context.inbox.take((("A", 1),)) is racer
    else:
        assert outcomes == [(racer, 1.0 + cpu)]


@RACES
def test_a_message_handed_off_after_the_decision_is_the_newest_arrival(
        monkeypatch, kernel, reference):
    """Two messages of one bucket land just behind the wait's deadline: the
    first reaches the decided wait, the second the bucket.  The first is
    re-filed when the waiter resumes, behind the second."""
    env, context, _cpu = _racing_context(monkeypatch, kernel, reference)
    first, second, outcomes = _racer(1), _racer(2), []

    def waiter():
        for _ in range(3):
            message = yield from context.wait_message("A", 1, timeout=1.0)
            outcomes.append(message)

    def deliver(_arg):
        context.inbox.put(first)
        context.inbox.put(second)

    env.process(waiter())
    env.run(until=0.5)
    env.call_later(0.5, deliver)
    env.run()
    assert outcomes == [None, second, first]


def test_collect_messages_stops_at_count_or_timeout():
    env = Environment()
    network = make_network(env, 4)
    context = build_context(env, network, 0, records=(Item,))
    for sender in (1, 2, 3):
        send_item(network, sender, "VOTE", 0)

    def collector():
        votes = yield from context.collect_messages("VOTE", 0, count=3, timeout=1.0)
        late = yield from context.collect_messages("VOTE", 0, count=2, timeout=0.2)
        return len(votes), len(late)

    assert env.run_process(collector()) == (3, 0)


def test_collect_messages_counts_distinct_senders():
    """One replica sending twice must not complete a quorum by itself."""
    env = Environment()
    network = make_network(env, 4)
    context = build_context(env, network, 0, records=(Item,))
    for sender in (1, 1, 1, 2):
        send_item(network, sender, "VOTE", 0)

    def collector():
        votes = yield from context.collect_messages("VOTE", 0, count=3, timeout=1.0)
        return sorted(message.sender for message in votes)

    assert env.run_process(collector()) == [1, 2]


def test_collecting_buffered_messages_wakes_the_process_once():
    """Five buffered votes cost five CPU holds but one wake-up (plus the
    process start), not one wake-up per vote."""
    env = Environment()
    network = make_network(env, 8)
    context = build_context(env, network, 0, records=(Item,))
    for sender in range(1, 6):
        context.inbox.put(Message(sender=sender, channel="wrb",
                                  kind="VOTE", payload=Item.of("VOTE", 0)))

    def collector():
        votes = yield from context.collect_messages("VOTE", 0, count=5)
        return [message.sender for message in votes], env.now

    process = env.process(collector())
    wakeups = []
    resume = process._resume  # noqa: SLF001 - counting resumptions is the test
    process._resume = lambda event: (wakeups.append(env.now), resume(event))  # noqa: SLF001
    env.run()
    senders, finished = process.value
    assert senders == [1, 2, 3, 4, 5]
    assert finished == pytest.approx(5 * network.machine.message_processing_cpu)
    assert wakeups == [finished]


# One tick of the schedules below: arrivals, competitors and the panic land
# on multiples of it and a CPU hold is three ticks, so "a message arrives /
# a sibling queues / the panic lands at the very instant a hold ends" — the
# ties the drain must resolve like the loop did — are common, not rare.
_TICK = 1e-4
#: (start tick, ticks of CPU, hops) of sibling processes on the same cores: a
#: sibling asks for its core ``hops`` same-instant queue hops after its start
#: timer fires, so its request lands anywhere among the zero-delay entries
#: the code under test queues at that instant.
_SIBLINGS = st.lists(st.tuples(st.integers(0, 25), st.integers(1, 7),
                               st.integers(0, 2)), max_size=5)
_SCHEDULES = st.fixed_dictionaries({
    "cores": st.integers(1, 2),
    "message_cpu": st.sampled_from([0.0, 3 * _TICK]),
    "count": st.integers(0, 5),
    "timeout": st.one_of(st.none(), st.integers(0, 30).map(lambda t: t * _TICK)),
    # (arrival tick, sender, instance): few senders, so duplicates are
    # common; instance 1 is another bucket and must stay buffered.
    "arrivals": st.lists(st.tuples(st.integers(0, 25), st.integers(1, 5),
                                   st.sampled_from([0, 0, 0, 1])), max_size=14),
    "siblings": _SIBLINGS,
    "panic_at": st.one_of(st.none(), st.integers(0, 25)),
})


def _run_collection(schedule, collect):
    """Play ``schedule`` against one collection; return everything observable:
    the outcome, the mailbox leftovers and a step-by-step occupancy trace."""
    env = Environment()
    machine = M5_XLARGE.scaled(cores=schedule["cores"],
                               message_processing_cpu=schedule["message_cpu"])
    network = Network(env, 4, latency_model=SingleDatacenterLatency(),
                      machine=machine, rng=random.Random(0))
    panics = []
    context = build_context(env, network, 0, records=(Item,),
                            panics=panics)
    cpu = network.endpoint(0).cpu
    trace = []

    def observe(label):
        trace.append((label, env.now, cpu._in_use, len(cpu._waiters),
                      len(context.inbox)))

    def arrive(arrival):
        index, _, sender, instance = arrival
        context.inbox.put(Message(sender=sender, channel="wrb", kind="VOTE",
                                  payload=Item.of("VOTE", instance, index)))
        observe("arrival")

    def sibling(start, ticks, hops):
        yield env.timeout(start * _TICK)
        for _ in range(hops):
            yield env.event().succeed()
        observe("sibling-queues")
        yield from context.use_cpu(ticks * _TICK)
        observe("sibling-done")

    def panic(_arg):
        panics.append("proof")
        context.notify_interrupt()
        observe("panic")

    def tick(remaining):
        observe("tick")
        if remaining:
            env.call_later(_TICK, tick, remaining - 1)

    def collector():
        try:
            messages = yield from collect(context, "VOTE", 0, schedule["count"],
                                          schedule["timeout"])
            outcome = [(message.sender, message.payload.n)
                       for message in messages]
        except PanicInterrupt as interrupt:
            outcome = ("panic", interrupt.panic)
        observe("collected")
        # What the protocol does next must start from the same queue position.
        yield from context.use_cpu(2 * _TICK)
        observe("moved-on")
        return outcome

    process = env.process(collector())
    for index, arrival in enumerate(schedule["arrivals"]):
        env.call_later(arrival[0] * _TICK, arrive, (index, *arrival))
    for start, ticks, hops in schedule["siblings"]:
        env.process(sibling(start, ticks, hops))
    if schedule["panic_at"] is not None:
        env.call_later(schedule["panic_at"] * _TICK, panic)
    env.call_later(0.0, tick, 80)
    env.run()
    leftovers = []
    for instance in (0, 1):
        while (message := context.inbox.take((("VOTE", instance),))) is not None:
            leftovers.append((instance, message.sender, message.payload.n))
    return (process.value if process.triggered else "blocked"), leftovers, trace


@settings(max_examples=300, deadline=None)
@given(_SCHEDULES)
@example({"cores": 1, "message_cpu": 3 * _TICK, "count": 2, "timeout": None,
          "arrivals": [(0, 1, 0), (0, 1, 0)], "siblings": [(3, 1, 1)],
          "panic_at": None})
def test_quorum_drain_is_unobservable(schedule):
    """``collect_messages`` (drain, then wait) against the per-message loop
    it replaced: same senders in the same order, same finish time, same
    leftovers, same CPU occupancy and mailbox size at every step.

    The example is a drain hold ending while a sibling's hold is queued:
    freeing the core must start the sibling from ``Resource``'s zero-delay
    ``_start`` hop, or its timer is armed ahead of the tick armed at that
    instant and the two swap places one tick later."""
    drained = _run_collection(
        schedule, lambda context, *args: context.collect_messages(*args))
    looped = _run_collection(schedule, reference_collect)
    assert drained == looped


def _wait_once(wait):
    """One ``wait`` played as a collection: ``[message]``, or ``[]`` once
    the deadline passed."""
    def collect(context, kind, key, _count, timeout):
        message = yield from wait(context, kind, key, timeout=timeout)
        return [] if message is None else [message]
    return collect


@settings(max_examples=300, deadline=None)
@given(_SCHEDULES)
@example({"cores": 1, "message_cpu": 3 * _TICK, "count": 1,  # message wins
          "timeout": 20 * _TICK, "arrivals": [(2, 1, 0), (3, 2, 0)],
          "siblings": [(1, 5, 0), (2, 3, 2)], "panic_at": None})
@example({"cores": 2, "message_cpu": 3 * _TICK, "count": 1,  # deadline wins
          "timeout": 6 * _TICK, "arrivals": [(6, 1, 0), (4, 2, 1)],
          "siblings": [(5, 4, 1)], "panic_at": None})
@example({"cores": 1, "message_cpu": 3 * _TICK, "count": 1,  # panic wins
          "timeout": None, "arrivals": [(4, 1, 0)], "siblings": [(0, 6, 0)],
          "panic_at": 4})
def test_one_wake_up_per_blocked_wait_is_unobservable(schedule):
    """``wait_message`` on an empty mailbox — won by a message, the
    deadline or a panic wake, behind 1-2 contended cores, with and without
    ``message_processing_cpu`` — against the two-wake-up wait it replaced:
    same message returned at the same time, same leftovers, same CPU
    occupancy and mailbox size at every step."""
    woken_once = _run_collection(
        schedule, _wait_once(ProtocolContext.wait_message))
    woken_twice = _run_collection(schedule, _wait_once(reference_wait_message))
    assert woken_once == woken_twice


#: Three bodies of 1, 2 and 3 transactions (built once: transaction ids come
#: from a global counter, and both runs of a schedule must see the same).
_BODIES = [Batch(tuple(Transaction.create(1, 512, 0.0, 10 * size + index)
                       for index in range(size)))
           for size in (1, 2, 3)]
_BODY_SCHEDULES = st.fixed_dictionaries({
    "cores": st.integers(1, 2),
    # Re-hashing a body takes one tick per transaction, or nothing.
    "hash_per_byte": st.sampled_from([0.0, _TICK / 512]),
    # (arrival tick, body, corrupted): a corrupted copy claims the next
    # body's root.  Three bodies, so repeats — while the first copy's check
    # is in flight, or after it stored — are common.
    "arrivals": st.lists(st.tuples(st.integers(0, 25), st.integers(0, 2),
                                   st.booleans()), max_size=8),
    "siblings": _SIBLINGS,
})


def _run_body_checks(schedule, handler_for):
    """Deliver ``schedule``'s bodies to one worker through the ``BODY``
    handler ``handler_for(worker)``; return when each body was stored, what
    was stored in which order, and a step-by-step CPU occupancy trace."""
    env = Environment()
    machine = M5_XLARGE.scaled(cores=schedule["cores"],
                               hash_time_per_byte=schedule["hash_per_byte"])
    network = Network(env, 4, latency_model=SingleDatacenterLatency(),
                      machine=machine, rng=random.Random(0))
    config = FireLedgerConfig(n_nodes=4, batch_size=3, tx_size=512,
                              machine=machine)
    worker = FireLedgerWorker(env, network, 0, 0, config, KeyStore(4))
    handler = handler_for(worker)
    cpu = network.endpoint(0).cpu
    trace = []

    def observe(label):
        trace.append((label, env.now, cpu._in_use, len(cpu._waiters),
                      len(worker._bodies)))  # noqa: SLF001 - what was stored

    def arrive(arrival):
        _, body, corrupted = arrival
        claimed = _BODIES[(body + corrupted) % len(_BODIES)].root
        handler(Message(sender=1, channel=worker.channel, kind=BODY,
                        payload=Body.of(BODY, claimed, _BODIES[body])))
        observe("arrival")

    def sibling(start, ticks, hops):
        yield env.timeout(start * _TICK)
        for _ in range(hops):
            yield env.event().succeed()
        observe("sibling-queues")
        yield from worker.context.use_cpu(ticks * _TICK)
        observe("sibling-done")

    def tick(remaining):
        observe("tick")
        if remaining:
            env.call_later(_TICK, tick, remaining - 1)

    stored = []
    for index, batch in enumerate(_BODIES):
        worker._body_event(batch.root).add_callback(  # noqa: SLF001
            lambda _event, index=index: stored.append((index, env.now)))
    for arrival in schedule["arrivals"]:
        env.call_later(arrival[0] * _TICK, arrive, arrival)
    for start, ticks, hops in schedule["siblings"]:
        env.process(sibling(start, ticks, hops))
    env.call_later(0.0, tick, 60)
    env.run()
    bodies = worker._bodies  # noqa: SLF001 - what was stored
    assert all(batch.root == root for root, batch in bodies.items())
    honest = {_BODIES[body].root for _, body, corrupted in schedule["arrivals"]
              if not corrupted}
    assert set(bodies) == honest  # a corrupted copy is never stored
    order = [_BODIES.index(bodies[root])
             for root in worker._body_order]  # noqa: SLF001
    return stored, order, trace


@settings(max_examples=200, deadline=None)
@given(_BODY_SCHEDULES)
def test_a_body_check_as_a_hold_is_unobservable(schedule):
    """A received body's root check as one CPU hold against the process per
    body it replaced: every body stored at the same instant in the same
    order, corrupted copies dropped by both, the same CPU occupancy at
    every step."""
    held = _run_body_checks(schedule, lambda worker: worker._on_body)  # noqa: SLF001
    spawned = _run_body_checks(
        schedule, lambda worker: partial(reference_on_body, worker))
    assert held == spawned


def test_discard_below_drops_buffered_rounds_under_the_watermark():
    env = Environment()
    network = make_network(env, 4)
    context = build_context(env, network, 0, records=(Item,))
    send_item(network, 1, "OLD", 1)
    send_item(network, 2, "NEW", 9)
    env.run()
    context.inbox.discard_below(5)
    assert len(context.inbox) == 1
    # A straggler under the watermark is filed until the next call: after a
    # rewind (FireLedger recovery) the call carries a lower round and must
    # still find the re-opened rounds' traffic.
    send_item(network, 1, "OLD", 3)
    send_item(network, 1, "OLD", 4)
    env.run()
    context.inbox.discard_below(4)
    assert len(context.inbox) == 2
    assert context.inbox.take((("OLD", 4),)).sender == 1
    assert context.inbox.take((("NEW", 9),)).sender == 2


# -------------------------------------------------------------------- timers
def test_adaptive_timer_tracks_ema_and_backoff(monkeypatch):
    monkeypatch.setattr(AdaptiveTimer, "EMA_WINDOW", 3)
    monkeypatch.setattr(AdaptiveTimer, "MINIMUM", 0.001)
    timer = AdaptiveTimer()
    initial = timer.current
    assert initial == AdaptiveTimer.INITIAL
    timer.record_failure()
    assert timer.current == pytest.approx(initial * 2)
    for _ in range(50):
        timer.record_success(0.01)
    assert timer.current == pytest.approx(0.04, rel=0.2)


def test_adaptive_timer_clamps():
    timer = AdaptiveTimer()
    for _ in range(10):
        timer.record_failure()
    assert timer.current == AdaptiveTimer.MAXIMUM
    for _ in range(100):
        timer.record_success(0.0)
    assert timer.current == AdaptiveTimer.MINIMUM


# ----------------------------------------------------------------------- WRB
def wire_wrb(env, network, validator=None):
    """WRB endpoints for all nodes with a trivially-true payload validator."""
    validator = validator or (lambda r, p, payload: payload is not None
                              and payload.get("valid", True))
    endpoints = []
    for node_id in range(network.n_nodes):
        context = build_context(env, network, node_id)
        timer = AdaptiveTimer()
        endpoints.append(WeakReliableBroadcast(context, f=1, timer=timer,
                                               payload_validator=validator))
    return endpoints


def test_wrb_ships_a_header_at_its_signed_wire_size():
    """A WRB-broadcast header travels at the size a signed ``BlockHeader``
    reports — one name, ``SIGNED_HEADER_SIZE_BYTES``, for both."""
    env = Environment()
    network = make_network(env, 4)
    endpoints = wire_wrb(env, network)
    header = build_block(0, 0, make_genesis().digest).header
    endpoints[0].broadcast(0, {"valid": True})
    assert network.stats.messages_of_kind("HEADER") == 4
    assert network.stats.bytes_sent == 4 * header.size_bytes
    assert header.size_bytes == HEADER_BASE_SIZE_BYTES + SIGNATURE_SIZE_BYTES


def test_wrb_delivers_broadcast_payload_everywhere():
    env = Environment()
    network = make_network(env, 4)
    endpoints = wire_wrb(env, network)
    results = [None] * 4

    def node(node_id):
        if node_id == 0:
            endpoints[0].broadcast(0, {"valid": True, "data": "block-0"})
        delivery = yield from endpoints[node_id].deliver(0, proposer=0)
        results[node_id] = delivery

    for node_id in range(4):
        env.process(node(node_id))
    env.run(until=10.0)
    assert all(r.delivered for r in results)
    assert all(r.payload["data"] == "block-0" for r in results)
    assert all(r.obbc.fast_path for r in results)


def test_wrb_all_or_nothing_when_proposer_silent():
    env = Environment()
    network = make_network(env, 4)
    endpoints = wire_wrb(env, network)
    results = [None] * 4

    def node(node_id):
        # Proposer 2 never broadcasts anything.
        delivery = yield from endpoints[node_id].deliver(0, proposer=2)
        results[node_id] = delivery

    for node_id in range(4):
        env.process(node(node_id))
    env.run(until=30.0)
    assert all(r is not None for r in results)
    assert all(not r.delivered for r in results)  # WRB-Agreement on nil


def test_wrb_pull_phase_fetches_missing_payload():
    env = Environment()
    network = make_network(env, 4)
    endpoints = wire_wrb(env, network)
    results = [None] * 4
    payload = {"valid": True, "data": "partial"}

    # The proposer's push reaches only nodes 0-2; node 3 must pull it after
    # the delivery bit is decided.
    push = Header.of(WRB_HEADER, 0, payload)
    for receiver in (0, 1, 2):
        network.send(0, receiver, "wrb", push.kind, push, push.size_bytes)

    served = {"count": 0}

    def serve_pull(node_id, message):
        served["count"] += 1
        network.send(node_id, message.sender, "wrb", WRB_PULL_RESP,
                     Header.of(WRB_PULL_RESP, 0, payload))

    # Nodes 0-2 answer pull requests like the worker does.
    for node_id in (0, 1, 2):
        network.bind(node_id, "wrb", {"WRB_REQ": partial(serve_pull, node_id)})

    def node(node_id):
        delivery = yield from endpoints[node_id].deliver(0, proposer=0)
        results[node_id] = delivery

    for node_id in range(4):
        env.process(node(node_id))
    env.run(until=30.0)
    # Every node whose OBBC decided "deliver" must return the payload, pulling
    # it if it never received the push.  (Cross-node agreement when fast
    # deciders leave the fallback behind additionally needs the worker-level
    # certificate service and is covered by the cluster tests.)
    for result in results:
        if result.obbc.decision == 1:
            assert result.delivered
            assert result.payload["data"] == "partial"
    if results[3].obbc.decision == 1:
        assert network.stats.messages_of_kind("WRB_REQ") >= 1
        assert served["count"] >= 1



def test_wrb_skip_wait_votes_against_suspected_proposer():
    env = Environment()
    network = make_network(env, 4)
    endpoints = wire_wrb(env, network)
    results = [None] * 4

    def node(node_id):
        delivery = yield from endpoints[node_id].deliver(0, proposer=1, skip_wait=True)
        results[node_id] = (delivery, env.now)

    for node_id in range(4):
        env.process(node(node_id))
    env.run(until=10.0)
    assert all(not r.delivered for r, _ in results)
    # Nobody waited for the delivery timer, so every node decided quickly.
    assert all(decided_at < 1.0 for _, decided_at in results)
