"""Protocol execution context.

Every protocol module (WRB, OBBC, BBC, the reactive broadcasts, FireLedger
itself, the baselines) talks to the outside world through a
:class:`ProtocolContext`: it sends records and receives messages on one
channel of the shared network, charges CPU time to the node's
core pool, and exposes *interruptible* waits.  Interruptibility reproduces the
paper's "panic thread": when a valid inconsistency proof is reliably delivered
while the main protocol is blocked waiting for traffic, the wait raises
:class:`PanicInterrupt` so the caller can abandon the round and run the
recovery procedure (Section 6.1.2).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterable, Optional, Sequence

from repro.core.mailbox import Mailbox
from repro.net.message import Message, Record
from repro.net.network import Network
from repro.sim import Environment, Event, Resource, Wait


class PanicInterrupt(Exception):
    """Raised inside a blocked protocol wait when a panic is pending."""

    def __init__(self, panic: Any = None) -> None:
        super().__init__("panic interrupt")
        self.panic = panic


class _QuorumDrain:
    """Consume what one mailbox bucket already holds, waking the collecting
    process once — not once per message.

    A quorum step collects ``count`` distinct senders.  Through
    :meth:`ProtocolContext.wait_message` every message already buffered costs
    a process wake-up only to end its ``message_processing_cpu`` hold.  The
    drain replays those iterations from kernel callbacks, step for step:
    panic check, take the bucket's oldest message, one CPU hold whose
    end frees the core and records the sender.  Each message keeps its own
    hold: one hold of ``k * message_cpu`` would stop the worker re-queueing
    behind its siblings at every boundary and moves contended runs.  It ends
    when ``count`` is reached, the bucket is empty or a panic is pending; the
    caller's next ``wait_message`` deals with the latter two.

    A step is one frame.  It reads the bucket and the pending-panic list as
    data, and when a core is free it arms the hold itself: the same one
    timer :meth:`~repro.sim.resource.Resource.hold` arms, whose callback —
    :meth:`step` again — frees the core exactly as ``Resource.release``
    does (the next queued hold started from a zero-delay ``_start`` hop).
    With every core busy the hold queues in the resource like any other, so
    every kernel entry, sequence number and same-instant tie is the one
    ``Resource.hold`` would make; ``tests/reference_collect.py`` keeps the
    drain over ``Resource.hold`` as the oracle.
    """

    __slots__ = ("env", "cpu", "hold", "buckets", "key", "panics",
                 "collected", "count", "message", "done")

    def __init__(self, context: "ProtocolContext", key: tuple,
                 collected: dict, count: int) -> None:
        self.env = context.env
        self.cpu = context._endpoint.cpu
        self.hold = context._message_cpu
        self.buckets = context.inbox._buckets  # noqa: SLF001 - one bucket, read in place
        self.key = key
        self.panics = context.panics
        self.collected = collected
        self.count = count
        #: The message whose CPU hold is in flight.
        self.message: Optional[Message] = None
        #: What the collecting process waits on once a hold is in flight.
        self.done: Optional[Event] = None

    def step(self, cpu: Optional[Resource] = None) -> bool:
        """End the hold in flight, if any — ``cpu`` is passed when this drain
        armed it and must free the core — and record its sender; then
        consume buffered messages until one's hold has to elapse (``True``)
        or the drain is over (``False``; a waiting process is woken)."""
        if cpu is not None:
            # Resource.release, for the hold this drain armed itself.
            waiters = cpu._waiters  # noqa: SLF001
            if waiters:
                self.env.call_later(0.0, cpu._start, waiters.popleft())  # noqa: SLF001
            else:
                cpu._in_use -= 1  # noqa: SLF001
        collected = self.collected
        message = self.message
        if message is not None:
            collected.setdefault(message.sender, message)
        hold = self.hold
        while len(collected) < self.count and not self.panics:
            bucket = self.buckets.get(self.key)
            if not bucket:
                break
            message = bucket.popleft()[1]
            if hold > 0:
                self.message = message
                cpu = self.cpu
                if cpu._in_use < cpu.capacity:  # noqa: SLF001
                    cpu._in_use += 1  # noqa: SLF001
                    self.env.call_later(hold, self.step, cpu)
                else:
                    # Queued like any hold: Resource.release ends it and
                    # calls step(None).
                    cpu._waiters.append((hold, self.step))  # noqa: SLF001
                return True
            collected.setdefault(message.sender, message)
        if self.done is not None:
            self.done.succeed_now()
        return False


class ProtocolContext:
    """Messaging, CPU accounting and interruptible waits for one protocol.

    Parameters
    ----------
    env, network:
        The simulation environment and the shared cluster network.
    node_id:
        The local node.
    channel:
        Channel name namespacing this protocol's traffic.
    records:
        The record types the protocol waits for (each protocol module's
        ``INBOX``).  The context binds every kind they declare on its
        channel to ``inbox``, the keyed
        :class:`~repro.core.mailbox.Mailbox`; a protocol that serves a kind
        itself binds that kind again
        (:meth:`~repro.net.network.BaseNetwork.bind`).
    panics:
        The pending panics, a list its owner appends to and filters in place
        (never rebinds: every wait reads this object).  While it is not
        empty, a wait abandons with :class:`PanicInterrupt` carrying its
        newest entry.
    """

    def __init__(self, env: Environment, network: Network, node_id: int,
                 channel: str, records: Iterable[type[Record]],
                 panics: Sequence = ()) -> None:
        self.env = env
        self.network = network
        self.node_id = node_id
        self.channel = channel
        self.inbox = Mailbox()
        network.bind(node_id, channel, dict.fromkeys(
            [kind for record in records for kind in record.KINDS],
            self.inbox.put))
        self.panics = panics
        #: Event triggered whenever a panic becomes pending; waits watch it.
        self._wake_event = env.event()
        # Hot-path constants: the endpoint never changes for a node's
        # lifetime and the machine spec is frozen, so resolve both once
        # instead of per received message.
        self._endpoint = network.endpoints[node_id]
        self._message_cpu = network.machine.message_processing_cpu
        #: A received message's CPU hold, run by the blocked wait it wins.
        self._hold_message = (
            partial(self._endpoint.cpu.hold, self._message_cpu)
            if self._message_cpu > 0 else None)

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.env.now

    @property
    def n_nodes(self) -> int:
        """Cluster size."""
        return self.network.n_nodes

    # ------------------------------------------------------------------ wake
    def notify_interrupt(self) -> None:
        """Wake any blocked wait so it can re-check the interrupt condition."""
        self._wake_event.succeed()  # always pending: replaced below
        self._wake_event = self.env.event()

    def _pending_interrupt(self) -> Any:
        panics = self.panics
        return panics[-1] if panics else None

    # ----------------------------------------------------------------- sends
    def send(self, receiver: int, record: Record) -> None:
        """Send ``record`` on this context's channel, as its kind and at its
        wire size."""
        self.network.send(self.node_id, receiver, self.channel, record.kind,
                          record, record.size_bytes)

    def broadcast(self, record: Record, include_self: bool = False) -> None:
        """Broadcast ``record`` to every other node on this channel."""
        self.network.broadcast(self.node_id, self.channel, record.kind,
                               record, record.size_bytes,
                               include_self=include_self)

    # ------------------------------------------------------------------- cpu
    def use_cpu(self, duration: float):
        """Process helper charging ``duration`` seconds of one CPU core."""
        if duration <= 0:
            return
        done = Event(self.env)
        self._endpoint.cpu.hold(duration, done.succeed_now)
        yield done

    # ----------------------------------------------------------------- waits
    def wait_message(self, kind: str, key: Any, sender: Optional[int] = None,
                     timeout: Optional[float] = None,
                     alt: Optional[tuple] = None):
        """Wait for the next ``kind`` message of instance ``key`` (from
        ``sender``, if given); return it, or ``None`` on timeout.

        ``alt`` names a second ``(kind, key)`` bucket: whichever of the two
        holds the older arrival is served first.  Raises
        :class:`PanicInterrupt` if the interrupt check fires while waiting
        (or is already pending on entry).
        """
        panic = self._pending_interrupt()
        if panic:
            raise PanicInterrupt(panic)
        keys = ((kind, key),) if alt is None else ((kind, key), alt)
        inbox = self.inbox
        message = inbox.take(keys, sender)
        if message is not None:
            # Fast path: the message is already buffered.
            yield from self.use_cpu(self._message_cpu)
            return message
        env = self.env
        deadline = None if timeout is None else env.now + timeout
        while True:
            remaining = (None if deadline is None
                         else max(0.0, deadline - env.now))
            # One object races the message, the wake event and the deadline;
            # a winning message's CPU hold runs before the one wake-up.
            wait = Wait(env, self._wake_event, remaining, self._hold_message,
                        message)
            if message is None:
                inbox.expect(keys, sender, wait.offer)
            message = yield wait
            if message is not None:
                return message
            # Re-file a message that reached the wait after it was decided.
            inbox.withdraw(wait.offered)
            panic = self._pending_interrupt()
            if panic:
                raise PanicInterrupt(panic)
            if deadline is not None and env.now >= deadline:
                return None
            # Woken spuriously: wait again, for a re-filed message first.
            message = inbox.take(keys, sender)

    def drain_messages(self, kind: str, key: Any,
                       collected: dict[int, Message], count: int):
        """Consume the ``kind`` messages of instance ``key`` that are already
        buffered into ``collected`` (first message per sender) until it holds
        ``count`` senders; returns early when the bucket runs empty or an
        interrupt is pending, which the caller's next :meth:`wait_message`
        handles.  One process wake-up however many messages were buffered."""
        drain = _QuorumDrain(self, (kind, key), collected, count)
        if drain.step():
            drain.done = self.env.event()
            yield drain.done

    def collect_messages(self, kind: str, key: Any, count: int,
                         timeout: Optional[float] = None):
        """Collect ``kind`` messages of instance ``key`` from ``count``
        distinct senders (stops early on timeout): a sender's repeats are
        consumed uncounted, so no replica completes a quorum by itself."""
        collected: dict[int, Message] = {}
        deadline = None if timeout is None else self.env.now + timeout
        while True:
            yield from self.drain_messages(kind, key, collected, count)
            if len(collected) >= count:
                break
            remaining = (None if deadline is None
                         else max(0.0, deadline - self.env.now))
            message = yield from self.wait_message(kind, key, timeout=remaining)
            if message is None:
                break
            collected.setdefault(message.sender, message)
        return list(collected.values())
