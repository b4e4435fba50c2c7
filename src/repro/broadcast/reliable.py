"""Bracha's reliable broadcast (RB).

Used by FireLedger to disseminate "panic" proofs of chain inconsistency
(Algorithm 2, lines b7/b12): RB-Agreement guarantees that if any correct node
delivers a proof, all correct nodes eventually deliver it and therefore all
join the recovery procedure.

The classic three-step structure is implemented:

* the sender broadcasts ``RB_SEND(m)``;
* on the first ``RB_SEND`` (or enough echoes) every node broadcasts
  ``RB_ECHO(m)``;
* on ``n - f`` echoes (or ``f + 1`` readies) every node broadcasts
  ``RB_READY(m)``;
* on ``2f + 1`` readies the message is delivered.

Tolerates ``f < n/3`` Byzantine senders/relayers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.context import ProtocolContext
from repro.net.message import HEAD, Message, Record

RB_SEND = "RB_SEND"
RB_ECHO = "RB_ECHO"
RB_READY = "RB_READY"
RB_KINDS = (RB_SEND, RB_ECHO, RB_READY)


class Relay(Record):
    """``RB_SEND`` / ``RB_ECHO`` / ``RB_READY``: ``origin``'s broadcast
    ``tag`` and its record ``payload``, at the payload's wire size."""

    __slots__ = ()
    KINDS = RB_KINDS
    FIELDS = (*HEAD, "origin", "tag", "payload")

    @classmethod
    def of(cls, kind: str, origin: int, tag: Any, payload: Record) -> "Relay":
        return tuple.__new__(cls, (kind, (kind, (origin, tag)), None,
                                   payload.size_bytes, origin, tag, payload))


@dataclass
class _BroadcastState:
    """Per (origin, tag) bookkeeping."""

    payload: Any = None
    echoed: bool = False
    readied: bool = False
    delivered: bool = False
    echo_from: set = field(default_factory=set)
    ready_from: set = field(default_factory=set)


class ReliableBroadcast:
    """One node's endpoint of the RB primitive on a given channel."""

    def __init__(self, context: ProtocolContext, f: int,
                 deliver_callback: Callable[[int, Any, Any], None]) -> None:
        self.context = context
        self.f = f
        self.deliver_callback = deliver_callback
        self._states: dict[tuple[int, Any], _BroadcastState] = {}

    # ------------------------------------------------------------------- api
    def broadcast(self, tag: Any, payload: Record) -> None:
        """RB-broadcast the record ``payload`` under ``tag`` (unique per
        origin)."""
        self._relay(RB_SEND, self.context.node_id, tag, payload)

    # -------------------------------------------------------------- handlers
    def on_message(self, message: Message) -> None:
        """Feed an incoming RB protocol message into the state machine."""
        relay, kind, sender = message.payload, message.kind, message.sender
        origin, tag = relay.origin, relay.tag
        state = self._states.setdefault((origin, tag), _BroadcastState())
        if kind == RB_SEND and sender != origin:
            return  # only the origin may open its own broadcast
        if kind == RB_ECHO:
            state.echo_from.add(sender)
        elif kind == RB_READY:
            state.ready_from.add(sender)
        if state.payload is None:
            state.payload = relay.payload
        if kind == RB_SEND:
            self._maybe_echo(origin, tag, state)
        elif kind == RB_ECHO:
            if len(state.echo_from) >= self.context.n_nodes - self.f:
                self._maybe_ready(origin, tag, state)
        else:
            if len(state.ready_from) >= self.f + 1:
                self._maybe_ready(origin, tag, state)
            if len(state.ready_from) >= 2 * self.f + 1 and not state.delivered:
                state.delivered = True
                self.deliver_callback(origin, tag, state.payload)

    # -------------------------------------------------------------- emitters
    def _relay(self, kind: str, origin: int, tag: Any, payload: Record) -> None:
        self.context.broadcast(Relay.of(kind, origin, tag, payload),
                               include_self=True)

    def _maybe_echo(self, origin: int, tag: Any, state: _BroadcastState) -> None:
        if state.echoed or state.payload is None:
            return
        state.echoed = True
        self._relay(RB_ECHO, origin, tag, state.payload)

    def _maybe_ready(self, origin: int, tag: Any, state: _BroadcastState) -> None:
        if state.readied or state.payload is None:
            return
        state.readied = True
        self._relay(RB_READY, origin, tag, state.payload)
