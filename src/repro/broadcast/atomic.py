"""Atomic broadcast: a leader-based, PBFT-style ordering service.

This plays the role BFT-SMaRt plays in the paper's implementation: the
FireLedger recovery procedure (Algorithm 3) atomically broadcasts chain
versions through it, relying on Atomic-Order so that every correct node sees
the same versions in the same order and therefore adopts the same prefix
(Lemma 5.3.3).

Structure (classic three-phase PBFT with a stable leader per view):

* a node that wants to a-broadcast a payload sends ``AB_REQUEST`` to all
  (so any future leader also knows it);
* the current leader assigns the next sequence number and broadcasts
  ``AB_PREPREPARE``;
* every node acknowledges with ``AB_PREPARE`` (all-to-all); ``2f`` matching
  prepares make the request *prepared*;
* prepared nodes broadcast ``AB_COMMIT``; ``2f + 1`` commits make it
  *committed*, and committed requests are delivered in sequence order;
* a node whose request stays undelivered past a timeout broadcasts
  ``AB_VIEWCHANGE``; ``2f + 1`` view-change messages install the next view,
  whose leader re-proposes prepared-but-uncommitted requests first.

The view-change is deliberately simplified compared to full PBFT (no
checkpoint certificates); it is sufficient for the failure patterns exercised
in the paper's evaluation (crashed or equivocating *FireLedger* proposers,
with the ordering service itself composed of correct nodes plus at most ``f``
silent ones).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.context import ProtocolContext
from repro.net.message import HEAD, MESSAGE_OVERHEAD_BYTES, Message, Record

AB_REQUEST = "AB_REQUEST"
AB_PREPREPARE = "AB_PREPREPARE"
AB_PREPARE = "AB_PREPARE"
AB_COMMIT = "AB_COMMIT"
AB_VIEWCHANGE = "AB_VIEWCHANGE"
AB_KINDS = (AB_REQUEST, AB_PREPREPARE, AB_PREPARE, AB_COMMIT, AB_VIEWCHANGE)


class Order(Record):
    """One step of ordering the request ``key`` (origin, counter) in
    ``view`` at sequence number ``seq`` (``None`` where a step has none):
    ``AB_REQUEST`` / ``AB_PREPREPARE`` carry its record ``payload`` at the
    payload's size, the other kinds are control messages."""

    __slots__ = ()
    KINDS = AB_KINDS
    FIELDS = (*HEAD, "view", "seq", "key", "payload")

    @classmethod
    def of(cls, kind: str, view: Optional[int] = None, seq: Optional[int] = None,
           key: Optional[tuple] = None, payload: Optional[Record] = None) -> "Order":
        size = MESSAGE_OVERHEAD_BYTES if payload is None else payload.size_bytes
        return tuple.__new__(cls, (kind, (kind, seq), None, size, view, seq,
                                   key, payload))


@dataclass
class _SlotState:
    """Per sequence-number bookkeeping."""

    request_key: Optional[tuple] = None
    payload: Any = None
    view: int = 0
    prepares: set = field(default_factory=set)
    commits: set = field(default_factory=set)
    prepared: bool = False
    committed: bool = False
    delivered: bool = False


class AtomicBroadcast:
    """One node's endpoint of the atomic broadcast service."""

    #: How long a request may stay undelivered before this node votes for a
    #: view change; FireLedger's recovery waits for versions in multiples of
    #: it too.
    REQUEST_TIMEOUT = 0.5

    def __init__(self, context: ProtocolContext, f: int,
                 deliver_callback: Callable[[int, Any], None]) -> None:
        self.context = context
        self.env = context.env
        self.node_id = context.node_id
        self.f = f
        self.deliver_callback = deliver_callback

        self.view = 0
        self.next_seq = 0            # only meaningful at the leader
        self.last_delivered_seq = -1
        self._slots: dict[int, _SlotState] = {}
        self._pending: dict[tuple, Record] = {}             # key -> payload
        self._assigned: set[tuple] = set()                  # keys given a slot
        self._delivered_keys: set[tuple] = set()
        self._viewchange_votes: dict[int, set[int]] = {}
        self._request_counter = 0

    # ------------------------------------------------------------------- api
    @property
    def leader(self) -> int:
        """The leader of the current view."""
        return self.view % self.context.n_nodes

    def broadcast(self, payload: Record) -> None:
        """Atomically broadcast the record ``payload`` at its wire size
        (delivered by all correct nodes, in order)."""
        self._request_counter += 1
        key = (self.node_id, self._request_counter)
        self._pending[key] = payload
        self._send(Order.of(AB_REQUEST, key=key, payload=payload))
        self._arm_timer(key)
        if self.node_id == self.leader:
            self._propose_pending()

    # -------------------------------------------------------------- handlers
    def on_message(self, message: Message) -> None:
        """Feed an incoming atomic-broadcast protocol message."""
        handler = {
            AB_REQUEST: self._on_request,
            AB_PREPREPARE: self._on_preprepare,
            AB_PREPARE: self._on_prepare,
            AB_COMMIT: self._on_commit,
            AB_VIEWCHANGE: self._on_viewchange,
        }[message.kind]
        handler(message)

    def _on_request(self, message: Message) -> None:
        key = message.payload.key
        if key in self._delivered_keys or key in self._assigned:
            return
        self._pending[key] = message.payload.payload
        # Watch this request too: if the leader never orders it, every correct
        # node (not only the origin) must be able to vote for a view change.
        self._arm_timer(key)
        if self.node_id == self.leader:
            self._propose_pending()

    def _on_preprepare(self, message: Message) -> None:
        order = message.payload
        if order.view < self.view:
            return
        if order.view > self.view:
            self._enter_view(order.view)
        if message.sender != self.leader:
            return
        slot = self._slots.setdefault(order.seq, _SlotState())
        if slot.request_key is not None and slot.request_key != order.key:
            # Conflicting proposal for an already-populated slot in this view:
            # ignore (a correct leader never does this).
            if slot.view == order.view:
                return
        slot.request_key = order.key
        slot.payload = order.payload
        slot.view = order.view
        self._assigned.add(order.key)
        self._send(Order.of(AB_PREPARE, self.view, order.seq, order.key))

    def _on_prepare(self, message: Message) -> None:
        order = message.payload
        if order.view != self.view:
            return
        slot = self._slots.setdefault(order.seq, _SlotState())
        slot.prepares.add(message.sender)
        if (not slot.prepared and slot.request_key is not None
                and len(slot.prepares) >= 2 * self.f):
            slot.prepared = True
            self._send(Order.of(AB_COMMIT, self.view, order.seq,
                                slot.request_key))

    def _on_commit(self, message: Message) -> None:
        slot = self._slots.setdefault(message.payload.seq, _SlotState())
        slot.commits.add(message.sender)
        if (not slot.committed and slot.request_key is not None
                and len(slot.commits) >= 2 * self.f + 1):
            slot.committed = True
            self._deliver_ready()

    def _on_viewchange(self, message: Message) -> None:
        target_view = message.payload.view
        if target_view <= self.view:
            return
        votes = self._viewchange_votes.setdefault(target_view, set())
        votes.add(message.sender)
        if len(votes) >= 2 * self.f + 1:
            self._enter_view(target_view)

    # -------------------------------------------------------------- internals
    def _send(self, order: Order) -> None:
        self.context.broadcast(order, include_self=True)

    def _propose_pending(self) -> None:
        for key, payload in sorted(self._pending.items()):
            if key in self._assigned or key in self._delivered_keys:
                continue
            seq = self.next_seq
            self.next_seq += 1
            self._assigned.add(key)
            slot = self._slots.setdefault(seq, _SlotState())
            slot.request_key = key
            slot.payload = payload
            slot.view = self.view
            self._send(Order.of(AB_PREPREPARE, self.view, seq, key, payload))

    def _deliver_ready(self) -> None:
        while True:
            seq = self.last_delivered_seq + 1
            slot = self._slots.get(seq)
            if slot is None or not slot.committed or slot.delivered:
                break
            slot.delivered = True
            self.last_delivered_seq = seq
            self._delivered_keys.add(slot.request_key)
            self._pending.pop(slot.request_key, None)
            origin = slot.request_key[0]
            self.deliver_callback(origin, slot.payload)

    def _enter_view(self, view: int) -> None:
        if view <= self.view:
            return
        self.view = view
        # The new leader resumes proposing from just above anything it has
        # seen assigned, and re-proposes every request it knows about that is
        # not yet delivered (prepared ones regain a slot first by key order).
        if self.node_id == self.leader:
            highest = max(self._slots.keys(), default=-1)
            self.next_seq = max(self.next_seq, highest + 1,
                                self.last_delivered_seq + 1)
            for seq, slot in self._slots.items():
                if slot.request_key is not None and not slot.delivered:
                    self._pending.setdefault(slot.request_key, slot.payload)
                    self._assigned.discard(slot.request_key)
            self._propose_pending()

    def _arm_timer(self, key: tuple) -> None:
        def _check(_event) -> None:
            if key in self._delivered_keys:
                return
            target = self.view + 1
            votes = self._viewchange_votes.setdefault(target, set())
            votes.add(self.node_id)
            self._send(Order.of(AB_VIEWCHANGE, target))
            # Keep watching: re-arm every 2 x REQUEST_TIMEOUT (a fixed period,
            # not a backoff).
            self.env.timeout(self.REQUEST_TIMEOUT * 2).add_callback(_check)

        self.env.timeout(self.REQUEST_TIMEOUT).add_callback(_check)
