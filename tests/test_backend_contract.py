"""Backend-parametrized conformance tests of the kernel/network contracts.

The documented ``Environment``/``Network`` invariants must hold identically
on the discrete-event simulator and on the realtime asyncio/TCP runtime —
that seam is what lets ``run_cluster(backend=...)`` swap backends without
touching protocol code.  Each test here runs once per backend against the
same assertions; realtime cases use short real deadlines (tens of
milliseconds) so the suite stays fast.
"""

import dataclasses
import gc
import pickle
import random
import select
import socket
import statistics
import threading
from types import MemberDescriptorType

import pytest

from repro.consensus.obbc import Vote
from repro.core.config import FireLedgerConfig
from repro.core.fireledger import BODY, Body, FireLedgerWorker
from repro.core.mailbox import Mailbox
from repro.crypto.keys import KeyStore
from repro.ledger.block import header_for_batch
from repro.ledger.transaction import Batch, Transaction
from repro.net.message import MESSAGE_OVERHEAD_BYTES, Message
from repro.net.network import Network
from repro.runtime import RealtimeEnvironment, RealtimeNetwork
from repro.sim import Environment, Event, Process
from tests.conftest import Item

BACKENDS = ("sim", "realtime")

#: Realtime runs wait this many real seconds; sim interprets it as virtual
#: seconds.  Large enough for loopback scheduling jitter, small enough to
#: keep the parametrized suite cheap.
HORIZON = 0.12


#: Real seconds a realtime run may take to reach the event it waits for.
STORED_WITHIN = 5.0


class _Reached(Exception):
    """Raised by the callback of the event a run waits for: an exception
    from a callback is the one way either backend's ``run`` ends early."""


def run_until(env, event, cap):
    """Run ``env`` until ``event`` triggers, or to ``cap`` at the latest."""
    def reached(_event):
        raise _Reached
    event.add_callback(reached)
    try:
        env.run(until=cap)
    except _Reached:
        pass


def make_env(backend):
    return Environment() if backend == "sim" else RealtimeEnvironment()


def make_network(backend, env, n_nodes, fault_controller=None):
    cls = Network if backend == "sim" else RealtimeNetwork
    return cls(env, n_nodes, rng=random.Random(7),
               fault_controller=fault_controller)


def close_env(env):
    closer = getattr(env, "close", None)
    if closer is not None:
        closer()


class DropTo:
    """A fault controller answers one question per send or broadcast,
    ``link_fault(sender, now)``: ``None`` when no fault touches the copies,
    else a ``fate(receiver, rng)`` each copy meets — ``None`` drops it, a
    number is the delay it adds (the receiver is an argument: an envelope
    names none).  This one touches every sender's copies: it drops those
    addressed to the given receivers and adds no delay, so ``DropTo()``
    drops nothing but still takes the per-copy branch."""

    def __init__(self, *receivers):
        self.receivers = receivers

    def link_fault(self, sender, now):
        return self.fate

    def fate(self, receiver, rng):
        return None if receiver in self.receivers else 0.0


# ------------------------------------------------------------------- timers
@pytest.mark.parametrize("backend", BACKENDS)
def test_timers_fire_in_delay_order(backend):
    env = make_env(backend)
    try:
        fired = []
        for tag, delay in (("late", HORIZON * 0.6), ("early", HORIZON * 0.1),
                           ("mid", HORIZON * 0.3)):
            env.call_later(delay, lambda t: fired.append((t, env.now)), tag)
        env.run(until=HORIZON)
        assert [tag for tag, _now in fired] == ["early", "mid", "late"]
        # Monotonic timestamps, each at or after its requested delay.
        times = [now for _tag, now in fired]
        assert times == sorted(times)
        assert times[0] >= HORIZON * 0.1 and times[-1] >= HORIZON * 0.6
        # After run returns the clock is parked exactly at the deadline.
        assert env.now == pytest.approx(HORIZON)
    finally:
        close_env(env)


@pytest.mark.parametrize("backend", BACKENDS)
def test_same_instant_work_runs_in_issue_order(backend):
    """Everything due *now* shares one FIFO on both backends: a zero-delay
    timer issued before a process starts and an event succeeds runs before
    both, and one issued after them runs after."""
    env = make_env(backend)
    try:
        order = []

        def started():
            order.append("process")
            yield from ()

        def issue(_arg):
            env.call_later(0.0, order.append, "timer")
            env.process(started())
            event = env.event()
            event.add_callback(lambda _event: order.append("event"))
            event.succeed()
            env.call_later(0.0, order.append, "last timer")

        env.call_later(HORIZON * 0.1, issue)
        env.run(until=HORIZON)
        assert order == ["timer", "process", "event", "last timer"]
    finally:
        close_env(env)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_wait_deadline_fires_only_if_its_event_did_not(backend):
    env = make_env(backend)
    try:
        child, fired = env.event(), []
        won = env.wait(child, HORIZON * 0.5)
        lost = env.wait(env.event(), HORIZON * 0.3)
        for name, wait in (("won", won), ("lost", lost)):
            wait.add_callback(
                lambda event, name=name: fired.append((name, child.triggered,
                                                       env.now)))
        env.call_later(HORIZON * 0.1, lambda _arg: child.succeed("x"))
        env.run(until=HORIZON)
        assert [(name, value) for name, value, _now in fired] == [
            ("won", True), ("lost", True)]
        assert HORIZON * 0.1 <= fired[0][2] < HORIZON * 0.3 <= fired[1][2]
    finally:
        close_env(env)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_hand_off_before_the_decision_wins(backend):
    """A zero deadline and a hand-off in one instant: the deadline is queued
    first and decides first, but a value handed off before that decision
    still wins; one handed off after it loses and stays in ``offered``."""
    env = make_env(backend)
    try:
        fired = []
        early, late = env.wait(timeout=0.0), env.wait(timeout=0.0)
        early.offer("early")
        env.call_later(0.0, lambda _arg: late.offer("late"))
        for wait in (early, late):
            wait.add_callback(lambda event: fired.append(
                (event.value, event.offered)))
        env.call_later(HORIZON * 0.1, lambda _arg: fired.append("later"))
        env.run(until=HORIZON)
        assert fired == [("early", "early"), (None, "late"), "later"]
    finally:
        close_env(env)


@pytest.mark.parametrize("backend", BACKENDS)
def test_negative_delay_is_rejected(backend):
    env = make_env(backend)
    try:
        with pytest.raises(ValueError):
            env.call_later(-0.01, lambda _arg: None)
        with pytest.raises(ValueError):
            env.schedule_event(object(), delay=-0.01)
    finally:
        close_env(env)


@pytest.mark.parametrize("backend", BACKENDS)
def test_store_roundtrip_through_kernel_primitives(backend):
    """Process/mailbox code written against the sim kernel — one process
    files a message, another is blocked waiting for it — runs on either
    backend: the seam every protocol depends on."""
    env = make_env(backend)
    try:
        store = Mailbox()
        got = []

        def producer(env, store):
            yield env.timeout(HORIZON * 0.2)
            store.put(Message(sender=0, channel="c", kind="A",
                              payload=Item.of("A", 3)))

        def consumer(env, store, got):
            wait = env.wait()
            store.expect((("A", 3),), None, wait.offer)
            item = yield wait
            got.append((item, env.now))

        Process(env, producer(env, store))
        Process(env, consumer(env, store, got))
        env.run(until=HORIZON)
        assert got and got[0][0].payload == Item.of("A", 3)
        assert got[0][1] >= HORIZON * 0.2
    finally:
        close_env(env)


# ------------------------------------------------------------------ network
@pytest.mark.parametrize("backend", BACKENDS)
def test_send_returns_none_on_fault_drop(backend):
    env = make_env(backend)
    try:
        network = make_network(backend, env, 2,
                               fault_controller=DropTo(0, 1))
        result = network.send(0, 1, "consensus", "vote", payload=b"v",
                              size_bytes=64)
        assert result is None
        # A fault drop is recorded as one sent and one dropped.
        assert network.stats.messages_sent == 1
        assert network.stats.messages_dropped == 1
    finally:
        close_env(env)


@pytest.mark.parametrize("backend", BACKENDS)
def test_crashed_sender_sends_nothing(backend):
    env = make_env(backend)
    try:
        network = make_network(backend, env, 2)
        network.crash(0)
        assert network.is_crashed(0)
        assert network.send(0, 1, "consensus", "vote", payload=b"v") is None
        assert network.broadcast(0, "consensus", "vote", payload=b"v") == []
        # A crashed sender never reaches the stats counters.
        assert network.stats.messages_sent == 0
    finally:
        close_env(env)


@pytest.mark.parametrize("backend", BACKENDS)
def test_recover_resets_nic_backlog(backend):
    env = make_env(backend)
    try:
        network = make_network(backend, env, 2)
        # Queue a bulk payload without letting either backend drain it (the
        # sim charges modeled NIC time; the realtime link task is not
        # running outside env.run), so the egress backlog is observable.
        network.send(0, 1, "blocks", "block", payload=b"x" * (1 << 20),
                     size_bytes=1 << 20)
        assert network.endpoint(0).nic_backlog > 0.0
        network.crash(0)
        network.recover(0)
        assert network.endpoint(0).nic_backlog == 0.0
    finally:
        close_env(env)


@pytest.mark.parametrize("backend", BACKENDS)
def test_broadcast_excludes_and_counts_fault_dropped_copies(backend):
    env = make_env(backend)
    try:
        network = make_network(backend, env, 4, fault_controller=DropTo(2))
        reached = network.broadcast(0, "consensus", "vote", payload=b"v",
                                    size_bytes=64)
        assert reached == [1, 3]
        # The dropped copy counts as sent (bytes too) *and* dropped.
        assert network.stats.messages_sent == 3
        assert network.stats.messages_dropped == 1
        assert network.stats.bytes_sent == 3 * MESSAGE_OVERHEAD_BYTES
        assert network.stats.messages_of_kind("vote") == 3
    finally:
        close_env(env)


@pytest.mark.parametrize("fault_controller", [None, DropTo()],
                         ids=["fault-free", "no-op-controller"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_broadcast_include_self_sits_at_receiver_slot(backend,
                                                      fault_controller):
    """Both broadcast paths (the sim's fault-free fan-out and the shared
    per-copy loop) return the loopback copy in receiver order."""
    env = make_env(backend)
    try:
        network = make_network(backend, env, 4,
                               fault_controller=fault_controller)
        inbox = []
        network.endpoint(2).router = inbox.append
        sent = []
        env.call_later(0.0, lambda _arg: sent.extend(network.broadcast(
            2, "consensus", "vote", payload=b"v", include_self=True)))
        env.run(until=HORIZON)
        assert sent == [0, 1, 2, 3]
        assert network.stats.messages_sent == 4
        assert [message.sender for message in inbox] == [2]
        assert network.stats.messages_delivered == 4
    finally:
        close_env(env)


@pytest.mark.parametrize("fault_controller", [None, DropTo()],
                         ids=["fault-free", "no-op-controller"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_one_broadcast_is_one_immutable_envelope(backend, fault_controller):
    """Every receiver of a broadcast — loopback included, on both broadcast
    paths — is handed the same envelope, and no field of it can be assigned.
    On the simulator "the same" is object identity; over TCP each remote
    receiver unpickles its own payload, so there it is field equality."""
    env = make_env(backend)
    try:
        network = make_network(backend, env, 4,
                               fault_controller=fault_controller)
        got = {}
        for node_id in range(4):
            network.endpoint(node_id).router = (
                lambda message, node_id=node_id: got.setdefault(node_id,
                                                                message))
        env.call_later(0.0, lambda _arg: network.broadcast(
            2, "consensus", "vote", payload={"round": 3}, size_bytes=64,
            include_self=True))
        env.run(until=HORIZON)
        assert sorted(got) == [0, 1, 2, 3]
        envelope = got[2]
        assert envelope.size_bytes == MESSAGE_OVERHEAD_BYTES  # clamped
        for message in got.values():
            assert message == envelope
            assert message.route == ("consensus", "vote")
            if backend == "sim":
                assert message is envelope
            for field in dataclasses.fields(Message):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(message, field.name, None)
            # No such field and no __dict__ (3.11's frozen + slots
            # __setattr__ answers an unknown name with a TypeError).
            with pytest.raises((AttributeError, TypeError)):
                message.receiver = 0
    finally:
        close_env(env)


@pytest.mark.parametrize("backend", BACKENDS)
def test_send_returns_the_envelope_the_receiver_is_handed(backend):
    env = make_env(backend)
    try:
        network = make_network(backend, env, 2)
        inbox, sent = [], []
        network.endpoint(0).router = inbox.append
        network.endpoint(1).router = inbox.append

        def send(_arg):
            sent.append(network.send(0, 0, "consensus", "vote", payload=b"v"))
            sent.append(network.send(0, 1, "consensus", "vote", payload=b"w"))

        env.call_later(0.0, send)
        env.run(until=HORIZON)
        assert [message.payload for message in sent] == [b"v", b"w"]
        assert inbox == sent
        assert inbox[0] is sent[0]  # loopback never leaves the process
        if backend == "sim":
            assert inbox[1] is sent[1]
    finally:
        close_env(env)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_digest_memo_never_crosses_the_wire(backend):
    """``Batch.root`` / ``Batch.size_bytes`` / ``BlockHeader.digest`` are
    memoised on the frozen object that owns them and pickled by field only:
    a frame carries no sender's answer, so a receiver still derives the root
    from the transactions it was handed, and a body that does not match the
    root it was sent under is dropped on both backends — on the realtime one
    even when the sender pre-filled the memo with the root it claims.

    The run lasts until the control body is stored (capped at
    ``STORED_WITHIN`` real seconds): both bodies travel on one FIFO link and
    are checked on one CPU resource, so by then the forged body's check has
    run too."""
    def transfers(seed):
        return tuple(Transaction.create(1, 512, 0.0, seed + index)
                     for index in range(3))

    honest, forged, control = (Batch(transfers(seed)) for seed in (10, 20, 30))
    header = header_for_batch(0, 0, "0" * 64, honest)
    memo = (honest.root, honest.size_bytes, header.digest)
    assert {"root", "size_bytes"} <= set(vars(honest))
    assert "digest" in vars(header)
    for original in (honest, header):
        copy = pickle.loads(pickle.dumps(original, pickle.HIGHEST_PROTOCOL))
        assert copy == original
        assert not {"root", "size_bytes", "digest"} & set(vars(copy))
    assert memo == (honest.root, honest.size_bytes, header.digest)

    if backend == "realtime":
        vars(forged)["root"] = header.tx_root
    env = make_env(backend)
    try:
        network = make_network(backend, env, 4)
        config = FireLedgerConfig(n_nodes=4, batch_size=3, tx_size=512)
        receiver = FireLedgerWorker(env, network, 1, 0, config, KeyStore(4))
        def send_bodies(_arg):
            for root, batch in ((header.tx_root, forged),
                                (control.root, control)):
                body = Body.of(BODY, root, batch)
                network.send(0, 1, receiver.channel, BODY, body,
                             body.size_bytes)

        env.call_later(0.0, send_bodies)
        run_until(env, receiver._body_event(control.root), STORED_WITHIN)  # noqa: SLF001
        assert receiver.has_body(control.root)  # bodies do arrive
        assert not receiver.has_body(header.tx_root)
    finally:
        close_env(env)


@pytest.mark.parametrize("include_self", [False, True],
                         ids=["others-only", "include-self"])
@pytest.mark.parametrize("fault_controller", [None, DropTo()],
                         ids=["fault-free", "no-op-controller"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_broadcast_on_a_one_node_network(backend, fault_controller,
                                         include_self):
    """No remote receiver: both broadcast paths return ``[]``, or just the
    loopback copy, and account for exactly that."""
    env = make_env(backend)
    try:
        network = make_network(backend, env, 1,
                               fault_controller=fault_controller)
        sent = network.broadcast(0, "consensus", "vote", payload=b"v",
                                 include_self=include_self)
        copies = 1 if include_self else 0
        assert sent == [0] * copies
        env.run(until=HORIZON)
        assert network.stats.messages_sent == copies
        assert network.stats.messages_delivered == copies
        assert network.stats.messages_of_kind("vote") == copies
        assert len(network.endpoint(0).mailbox) == copies
    finally:
        close_env(env)


@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_and_recover_are_idempotent(backend):
    env = make_env(backend)
    try:
        network = make_network(backend, env, 2)
        network.send(0, 1, "blocks", "block", payload=b"x" * (1 << 20),
                     size_bytes=1 << 20)
        # Recovering a node that is up is a no-op: its backlog survives.
        network.recover(0)
        assert not network.is_crashed(0)
        assert network.endpoint(0).nic_backlog > 0.0
        network.crash(0)
        dropped = network.stats.messages_dropped
        network.crash(0)
        assert network.is_crashed(0)
        assert network.stats.messages_dropped == dropped
        network.recover(0)
        network.recover(0)
        assert not network.is_crashed(0)
        assert network.send(0, 1, "consensus", "vote", payload=b"v") is not None
    finally:
        close_env(env)


@pytest.mark.parametrize("backend", BACKENDS)
def test_message_to_crashed_receiver_counts_a_drop(backend):
    env = make_env(backend)
    try:
        network = make_network(backend, env, 2)
        inbox = []
        network.endpoint(1).router = inbox.append
        network.crash(1)
        # The sender cannot know: the message leaves, then dies undelivered.
        assert network.send(0, 1, "consensus", "vote", payload=b"v") is not None
        env.run(until=HORIZON)
        assert inbox == []
        assert network.stats.messages_sent == 1
        assert network.stats.messages_dropped == 1
        assert network.stats.messages_delivered == 0
    finally:
        close_env(env)


# --------------------------------------------------------- realtime-specific
def test_realtime_requires_explicit_deadline():
    env = RealtimeEnvironment()
    try:
        with pytest.raises(ValueError):
            env.run()
    finally:
        env.close()


def test_a_sub_millisecond_wait_reaches_the_selector_unrounded(monkeypatch):
    """The loop's timed wait is ``select.select`` on the epoll descriptor,
    handed the timer's own delay — ``epoll_wait`` would round it up to the
    next whole millisecond."""
    waits = []
    wait = select.select

    def spy(readers, writers, errors, timeout):
        waits.append(timeout)
        return wait(readers, writers, errors, timeout)

    monkeypatch.setattr(select, "select", spy)
    env = RealtimeEnvironment()
    try:
        # Five in a row, so a wait still reaches the selector when the host
        # stalls the loop past one timer's deadline before it selects.
        done = env.loop.create_future()
        fired = []

        def fire(_arg):
            fired.append(None)
            if len(fired) == 5:
                done.set_result(None)
            else:
                env.call_later(0.0002, fire)

        env.call_later(0.0002, fire)
        env.loop.run_until_complete(done)
    finally:
        env.close()
    assert waits and all(0 < timeout <= 0.0002 for timeout in waits)


def test_a_ready_socket_ends_a_timed_wait_early():
    """A wait for a timer 1 s away still ends as soon as a socket is ready."""
    env = RealtimeEnvironment()
    loop = env.loop
    writer, reader = socket.socketpair()
    woken = loop.create_future()
    loop.add_reader(reader.fileno(), lambda: woken.done()
                    or woken.set_result(loop.time()))
    env.call_later(1.0, lambda _arg: None)
    wake = threading.Timer(0.02, writer.send, (b"x",))
    started = loop.time()
    wake.start()
    try:
        loop.run_until_complete(woken)
        assert woken.result() - started < 0.5
    finally:
        wake.join()
        loop.remove_reader(reader.fileno())
        writer.close()
        reader.close()
        env.close()


def test_chained_sub_millisecond_timers_fire_when_due():
    """A 0.2 ms timer re-armed from its own callback 100 times: the median
    lateness stays well under the millisecond every wait used to be rounded
    up to (1.1 ms on the epoll selector)."""
    env = RealtimeEnvironment()
    loop = env.loop
    lateness = []
    done = loop.create_future()

    def fire(armed_at):
        lateness.append(loop.time() - armed_at - 0.0002)
        if len(lateness) == 100:
            done.set_result(None)
        else:
            env.call_later(0.0002, fire, loop.time())

    try:
        env.call_later(0.0002, fire, loop.time())
        loop.run_until_complete(done)
    finally:
        env.close()
    assert statistics.median(lateness) < 0.0008


def _public(cls):
    return {name for name in dir(cls) if not name.startswith("_")}


def test_both_backends_expose_the_same_kernel_members():
    """The kernel contract is what the program calls, on both backends:
    adding a member means editing this test (and implementing it twice)."""
    contract = {"now", "event", "timeout", "call_later", "poll", "process",
                "wait", "schedule_event", "schedule_batch", "run",
                "run_process"}
    assert _public(Environment) == contract
    assert _public(RealtimeEnvironment) - contract == {
        "loop", "stopping", "add_startup_hook", "add_shutdown_hook", "close"}
    # The realtime backend overrides only what it implements differently.
    overridden = {name for name in vars(RealtimeEnvironment) if name in contract}
    assert overridden == {"now", "call_later", "schedule_event",
                          "schedule_batch", "run"}
    # The simulator's clock is a slot its run loop writes; the wall clock is
    # a property (its setter re-bases it).
    assert isinstance(vars(Environment)["now"], MemberDescriptorType)
    assert vars(RealtimeEnvironment)["now"].fset is not None
    assert _public(Event) == {"triggered", "value", "succeed", "succeed_now",
                              "add_callback"}


def test_realtime_delivers_over_loopback_tcp():
    """End to end: a framed message crosses a real socket and lands in the
    receiver's mailbox with the modeled propagation delay applied."""
    env = RealtimeEnvironment()
    try:
        network = make_network("realtime", env, 2)
        inbox = []
        network.endpoint(1).router = lambda message: inbox.append(message)
        env.call_later(0.0, lambda _arg: network.send(
            0, 1, "consensus", "vote", payload={"round": 3}, size_bytes=128))
        env.run(until=0.5)
        assert len(inbox) == 1
        message = inbox[0]
        assert message.payload == {"round": 3}
        assert message.sender == 0 and message.route == ("consensus", "vote")
        assert network.stats.messages_delivered == 1
        assert network.endpoint(1).bytes_received >= 128
    finally:
        env.close()


# ------------------------------------------- realtime: one object per transaction
def _transfer(seed, **changes):
    return dataclasses.replace(
        Transaction.create(1, 512, 0.25, seed, 1, 2, 5, 3), **changes)


@pytest.mark.parametrize("payload", [
    pytest.param(lambda: Vote.of(3, 1), id="vote"),
    pytest.param(lambda: b"opaque", id="bytes"),
    pytest.param(lambda: Body.of(BODY, "r", Batch(
        (_transfer(1), Transaction.create(0, 256, 0.5, 2)), 4, 512, 9)),
                 id="body"),
    pytest.param(lambda: [_transfer(3)] * 2 + [(_transfer(3),)], id="repeats"),
])
def test_the_network_frames_what_pickle_dumps_writes(payload):
    """A payload framed through the network's transaction table is the
    byte string ``pickle.dumps(payload, HIGHEST_PROTOCOL)`` is, with or
    without transactions, and framing one payload leaves nothing that
    changes the next."""
    env = RealtimeEnvironment()
    try:
        network = make_network("realtime", env, 2)
        first, second = payload(), payload()
        for value in (first, second, first):
            assert (network._pickle_payload(value)
                    == pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
    finally:
        env.close()


def _broadcast_and_collect(network, env, payload):
    """Broadcast ``payload`` from node 0 over loopback TCP; the payloads
    nodes 1 and 2 were handed."""
    received = []
    for node_id in (1, 2):
        network.endpoint(node_id).router = (
            lambda message: received.append(message.payload))
    env.call_later(0.0, lambda _arg: network.broadcast(
        0, "data", "body", payload=payload, size_bytes=1024))
    env.run(until=0.5)
    return received


def test_a_received_transaction_is_the_one_the_network_framed():
    """Every receiver of a framed transaction is handed the sender's object,
    never a private copy, while the containers around it are the receiver's
    own."""
    env = RealtimeEnvironment()
    try:
        network = make_network("realtime", env, 3)
        batch = Batch((_transfer(1), _transfer(2)))
        received = _broadcast_and_collect(network, env, {"batch": batch})
        assert len(received) == 2
        for payload in received:
            assert payload["batch"] == batch and payload["batch"] is not batch
            for got, sent in zip(payload["batch"].transactions,
                                 batch.transactions):
                assert got is sent
    finally:
        env.close()


@pytest.mark.parametrize("changes", [
    {"amount": 6}, {"amount": 5.0}, {"nonce": 4}, {"submitted_at": 0.5},
    {"tx_id": 10 ** 20}, {"payload_seed": None}, {"recipient": None,
                                                  "sender": None},
], ids=["amount", "amount-type", "nonce", "submitted-at", "tx-id", "seed",
        "opaque"])
def test_a_forged_transaction_never_aliases_the_framed_one(changes):
    """A frame carrying a framed transaction's digest with any one field
    changed — in value or only in type — unpickles to a distinct object
    holding the fields it carried."""
    env = RealtimeEnvironment()
    try:
        network = make_network("realtime", env, 2)
        honest = _transfer(7)
        frame = network._pickle_payload((honest,))
        assert network._unpickle_payload(frame)[0] is honest
        forged = dataclasses.replace(honest, **changes)
        assert forged.payload_digest == honest.payload_digest
        (got,) = network._unpickle_payload(
            pickle.dumps((forged,), pickle.HIGHEST_PROTOCOL))
        assert got is not honest and got is not forged
        for field in dataclasses.fields(Transaction):
            value = getattr(got, field.name)
            assert value == getattr(forged, field.name)
            assert type(value) is type(getattr(forged, field.name))
        # The honest frame still resolves to the honest object.
        assert network._unpickle_payload(frame)[0] is honest
    finally:
        env.close()


def test_a_transaction_nobody_holds_leaves_the_table():
    """The table holds its transactions weakly: once the sender and every
    receiver drop one, its entry goes, and a later frame of it unpickles
    to a fresh copy."""
    env = RealtimeEnvironment()
    try:
        network = make_network("realtime", env, 3)
        sent = [_transfer(1)]
        digest = sent[0].payload_digest
        received = _broadcast_and_collect(network, env, {"batch": Batch(
            tuple(sent))})
        table = network._transactions._kept
        assert [payload["batch"].transactions[0] for payload in received] \
            == sent * 2 and list(table) == [digest]
        assert table[digest] is sent[0]
        frame = network._pickle_payload((sent[0],))
        sent.clear()
        received.clear()
        gc.collect()
        assert len(table) == 0
        (copy,) = network._unpickle_payload(frame)
        assert copy.payload_digest == digest and digest not in table
    finally:
        env.close()
