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

from repro.net.message import MESSAGE_OVERHEAD_BYTES, Message
from repro.net.network import Network
from repro.sim import Environment

AB_REQUEST = "AB_REQUEST"
AB_PREPREPARE = "AB_PREPREPARE"
AB_PREPARE = "AB_PREPARE"
AB_COMMIT = "AB_COMMIT"
AB_VIEWCHANGE = "AB_VIEWCHANGE"
AB_KINDS = (AB_REQUEST, AB_PREPREPARE, AB_PREPARE, AB_COMMIT, AB_VIEWCHANGE)


@dataclass
class _SlotState:
    """Per sequence-number bookkeeping."""

    request_key: Optional[tuple] = None
    payload: Any = None
    payload_size: int = MESSAGE_OVERHEAD_BYTES
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

    def __init__(self, env: Environment, network: Network, node_id: int,
                 channel: str, f: int,
                 deliver_callback: Callable[[int, Any], None]) -> None:
        self.env = env
        self.network = network
        self.node_id = node_id
        self.channel = channel
        self.f = f
        self.deliver_callback = deliver_callback

        self.view = 0
        self.next_seq = 0            # only meaningful at the leader
        self.last_delivered_seq = -1
        self._slots: dict[int, _SlotState] = {}
        self._pending: dict[tuple, tuple[Any, int]] = {}   # key -> (payload, size)
        self._assigned: set[tuple] = set()                  # keys given a slot
        self._delivered_keys: set[tuple] = set()
        self._viewchange_votes: dict[int, set[int]] = {}
        self._request_counter = 0

    # ------------------------------------------------------------------- api
    @property
    def leader(self) -> int:
        """The leader of the current view."""
        return self.view % self.network.n_nodes

    def broadcast(self, payload: Any, size_bytes: int = MESSAGE_OVERHEAD_BYTES) -> None:
        """Atomically broadcast ``payload`` (delivered by all correct nodes, in order)."""
        self._request_counter += 1
        key = (self.node_id, self._request_counter)
        body = {"key": key, "payload": payload}
        self._pending[key] = (payload, size_bytes)
        self.network.broadcast(self.node_id, self.channel, AB_REQUEST, body,
                               size_bytes=size_bytes, include_self=True)
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
        body = message.payload
        key = body["key"]
        if key in self._delivered_keys or key in self._assigned:
            return
        self._pending[key] = (body["payload"], message.size_bytes)
        # Watch this request too: if the leader never orders it, every correct
        # node (not only the origin) must be able to vote for a view change.
        self._arm_timer(key)
        if self.node_id == self.leader:
            self._propose_pending()

    def _on_preprepare(self, message: Message) -> None:
        body = message.payload
        if body["view"] < self.view:
            return
        if body["view"] > self.view:
            self._enter_view(body["view"])
        if message.sender != self.leader:
            return
        seq = body["seq"]
        slot = self._slots.setdefault(seq, _SlotState())
        if slot.request_key is not None and slot.request_key != body["key"]:
            # Conflicting proposal for an already-populated slot in this view:
            # ignore (a correct leader never does this).
            if slot.view == body["view"]:
                return
        slot.request_key = body["key"]
        slot.payload = body["payload"]
        slot.payload_size = message.size_bytes
        slot.view = body["view"]
        self._assigned.add(body["key"])
        ack = {"view": self.view, "seq": seq, "key": body["key"]}
        self.network.broadcast(self.node_id, self.channel, AB_PREPARE, ack,
                               include_self=True)

    def _on_prepare(self, message: Message) -> None:
        body = message.payload
        if body["view"] != self.view:
            return
        slot = self._slots.setdefault(body["seq"], _SlotState())
        slot.prepares.add(message.sender)
        if (not slot.prepared and slot.request_key is not None
                and len(slot.prepares) >= 2 * self.f):
            slot.prepared = True
            ack = {"view": self.view, "seq": body["seq"], "key": slot.request_key}
            self.network.broadcast(self.node_id, self.channel, AB_COMMIT, ack,
                                   include_self=True)

    def _on_commit(self, message: Message) -> None:
        body = message.payload
        slot = self._slots.setdefault(body["seq"], _SlotState())
        slot.commits.add(message.sender)
        if (not slot.committed and slot.request_key is not None
                and len(slot.commits) >= 2 * self.f + 1):
            slot.committed = True
            self._deliver_ready()

    def _on_viewchange(self, message: Message) -> None:
        body = message.payload
        target_view = body["view"]
        if target_view <= self.view:
            return
        votes = self._viewchange_votes.setdefault(target_view, set())
        votes.add(message.sender)
        if len(votes) >= 2 * self.f + 1:
            self._enter_view(target_view)

    # -------------------------------------------------------------- internals
    def _propose_pending(self) -> None:
        for key, (payload, size) in sorted(self._pending.items()):
            if key in self._assigned or key in self._delivered_keys:
                continue
            seq = self.next_seq
            self.next_seq += 1
            self._assigned.add(key)
            body = {"view": self.view, "seq": seq, "key": key, "payload": payload}
            slot = self._slots.setdefault(seq, _SlotState())
            slot.request_key = key
            slot.payload = payload
            slot.payload_size = size
            slot.view = self.view
            self.network.broadcast(self.node_id, self.channel, AB_PREPREPARE, body,
                                   size_bytes=size, include_self=True)

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
                    self._pending.setdefault(slot.request_key,
                                             (slot.payload, slot.payload_size))
                    self._assigned.discard(slot.request_key)
            self._propose_pending()

    def _arm_timer(self, key: tuple) -> None:
        def _check(_event) -> None:
            if key in self._delivered_keys:
                return
            target = self.view + 1
            votes = self._viewchange_votes.setdefault(target, set())
            votes.add(self.node_id)
            self.network.broadcast(self.node_id, self.channel, AB_VIEWCHANGE,
                                   {"view": target}, include_self=True)
            # Keep watching: re-arm every 2 x REQUEST_TIMEOUT (a fixed period,
            # not a backoff).
            self.env.timeout(self.REQUEST_TIMEOUT * 2).add_callback(_check)

        self.env.timeout(self.REQUEST_TIMEOUT).add_callback(_check)
