"""The per-message receive paths the context and the worker replaced, kept as
test oracles.

* **The per-message collection loop.**  Until the quorum drain, every quorum
  step — ``ProtocolContext.collect_messages``, OBBC's vote loop, OBBC's
  evidence loop — was a generator loop around ``wait_message``: one process
  wake-up per message, also for messages already buffered, whose only wait
  is their ``message_processing_cpu`` hold.  :func:`reference_collect` is
  that loop, verbatim.
* **The two-wake-up blocking wait.**  :func:`reference_wait_message` is
  ``ProtocolContext.wait_message`` before a blocked wait armed its message's
  CPU hold from the wait's condition: the process woke when the condition
  fired, then again when its own ``use_cpu`` hold ended.  Its condition and
  mailbox event are ``tests/reference_wait.py``'s.
* **The body check as a process.**  :func:`reference_on_body` is
  ``FireLedgerWorker._on_body`` when every received body started a
  ``_verify_and_store_body`` process that held a core, then stored.
* **The vote path before it was fused.**  :class:`ReferenceQuorumDrain` is
  the quorum drain when each step was ``advance`` (an interrupt-check call,
  ``Mailbox.take``, ``Resource.hold``) and each hold ended in
  ``Resource.release`` calling ``_held``; :func:`reference_on_vote` is
  ``FireLedgerWorker._on_vote``, the handler that filed a vote's
  piggybacked header before the mailbox filed riders itself.

:func:`use_reference` turns the drain into a no-op — which leaves exactly
the per-message loop in *every* collection site of ``src/`` ("drain what is
buffered, then wait for one" minus the drain) — and swaps the others back
in, so a whole cluster can run the old way.  :func:`use_reference_drain`
swaps in only the vote path (the drain over ``Resource.hold`` and
``_on_vote``), which wakes processes exactly where the shipped drain does.
The replacements claim to be unobservable: same finish times, same messages
in the same order, same mailbox leftovers, same CPU occupancy at every
instant, same result rows.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Optional

from repro.consensus.obbc import OBBC_VOTE
from repro.core.context import PanicInterrupt
from repro.core.fireledger import FireLedgerWorker
from repro.core.wrb import WRB_HEADER
from repro.net.message import Message
from repro.sim import Event
from tests.reference_wait import AnyOf, mailbox_cancel, mailbox_wait


def reference_wait_message(context, kind, key, sender=None, timeout=None,
                           alt=None):
    """``ProtocolContext.wait_message`` as it was before a blocked wait woke
    its process once."""
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
        result = yield AnyOf(env, [get_event, context._wake_event], remaining)
        if get_event in result:
            message = result[get_event]
            yield from context.use_cpu(context._message_cpu)
            return message
        mailbox_cancel(inbox, get_event)
        panic = context._pending_interrupt()
        if panic:
            raise PanicInterrupt(panic)
        if deadline is not None and env.now >= deadline:
            return None


def reference_collect(context, kind, key, count, timeout=None):
    """``ProtocolContext.collect_messages`` as it was before the drain."""
    collected = {}
    deadline = None if timeout is None else context.env.now + timeout
    while len(collected) < count:
        remaining = (None if deadline is None
                     else max(0.0, deadline - context.env.now))
        message = yield from reference_wait_message(context, kind, key,
                                                    timeout=remaining)
        if message is None:
            break
        collected.setdefault(message.sender, message)
    return list(collected.values())


def reference_on_body(worker, message) -> None:
    """``FireLedgerWorker._on_body`` as it was before the check was a hold."""
    body = message.payload
    if body.root in worker._bodies:
        return
    worker.env.process(_verify_and_store_body(worker, body.root, body.batch))


def _verify_and_store_body(worker, root, batch):
    yield from worker.context.use_cpu(worker._body_hash_cost(batch))
    if batch.root != root:
        return  # corrupted body; ignore it
    worker._bodies[root] = batch
    worker._body_order.append(root)
    event = worker._body_events.pop(root, None)
    if event is not None and not event.triggered:
        event.succeed()


class ReferenceQuorumDrain:
    """``core/context.py::_QuorumDrain`` as it was over ``Resource.hold``
    (verbatim, but for the interrupt check: the context's
    ``interrupt_check`` callable is now its ``_pending_interrupt``)."""

    __slots__ = ("context", "keys", "collected", "count", "message", "done")

    def __init__(self, context, keys: tuple,
                 collected: dict, count: int) -> None:
        self.context = context
        self.keys = keys
        self.collected = collected
        self.count = count
        #: The message whose CPU hold is in flight.
        self.message: Optional[Message] = None
        #: What the collecting process waits on once a hold is in flight.
        self.done: Optional[Event] = None

    def advance(self) -> bool:
        """Consume buffered messages until one's CPU hold has to elapse
        (``True``: :meth:`_held` carries on) or the drain is over (``False``)."""
        context = self.context
        collected = self.collected
        hold = context._message_cpu
        interrupted = context._pending_interrupt
        while len(collected) < self.count:
            if interrupted is not None and interrupted():
                break
            message = context.inbox.take(self.keys)
            if message is None:
                break
            if hold > 0:
                self.message = message
                context._endpoint.cpu.hold(hold, self._held)
                return True
            collected.setdefault(message.sender, message)
        return False

    def _held(self, _arg: Any) -> None:
        message = self.message
        self.collected.setdefault(message.sender, message)
        if not self.advance():
            self.done.succeed_now()


def reference_drain_messages(self, kind, key, collected, count):
    """``ProtocolContext.drain_messages`` over :class:`ReferenceQuorumDrain`."""
    drain = ReferenceQuorumDrain(self, ((kind, key),), collected, count)
    if drain.advance():
        drain.done = self.env.event()
        yield drain.done


def reference_on_vote(worker, message) -> None:
    """``FireLedgerWorker._on_vote``: an OBBC vote — one per peer per round,
    nearly all the traffic; the next proposer's :class:`~repro.core.wrb.Header`
    may ride on it, and is filed as a HEADER message of its own.  The vote
    itself is filed as the mailbox of that time filed it, riderless."""
    piggyback = message.payload.piggyback
    if piggyback is not None:
        worker._put(Message(message.sender, worker.channel, WRB_HEADER,
                            piggyback, sent_at=worker.env.now))
    worker._put(message, rider=False)


def _bind_on_vote(monkeypatch) -> None:
    """Bind every worker built from now on to :func:`reference_on_vote`."""
    build = FireLedgerWorker.__init__

    def built(worker, *args, **kwargs):
        build(worker, *args, **kwargs)
        worker.network.bind(worker.node_id, worker.channel,
                            {OBBC_VOTE: partial(reference_on_vote, worker)})

    monkeypatch.setattr(FireLedgerWorker, "__init__", built)


def _no_drain(self, kind, key, collected, count):
    return
    yield  # pragma: no cover - makes this a generator


def use_reference(monkeypatch) -> None:
    """Receive the old way everywhere for the rest of a test: one wake-up
    per collected message, two per blocked wait, a process per body, the
    worker's vote handler."""
    monkeypatch.setattr("repro.core.context.ProtocolContext.drain_messages",
                        _no_drain)
    monkeypatch.setattr("repro.core.context.ProtocolContext.wait_message",
                        reference_wait_message)
    monkeypatch.setattr("repro.core.fireledger.FireLedgerWorker._on_body",
                        reference_on_body)
    _bind_on_vote(monkeypatch)


def use_reference_drain(monkeypatch) -> None:
    """Walk the vote path the old way for the rest of a test: the drain's
    steps over ``Mailbox.take`` and ``Resource.hold``, the worker's vote
    handler.  Processes wake where they do on the shipped path."""
    monkeypatch.setattr("repro.core.context.ProtocolContext.drain_messages",
                        reference_drain_messages)
    _bind_on_vote(monkeypatch)
