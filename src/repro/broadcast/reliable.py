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
from typing import Any, Callable, Optional

from repro.net.message import MESSAGE_OVERHEAD_BYTES, Message
from repro.net.network import Network

RB_SEND = "RB_SEND"
RB_ECHO = "RB_ECHO"
RB_READY = "RB_READY"
RB_KINDS = (RB_SEND, RB_ECHO, RB_READY)


@dataclass
class _BroadcastState:
    """Per (origin, tag) bookkeeping."""

    payload: Any = None
    payload_size: int = MESSAGE_OVERHEAD_BYTES
    echoed: bool = False
    readied: bool = False
    delivered: bool = False
    echo_from: set = field(default_factory=set)
    ready_from: set = field(default_factory=set)


class ReliableBroadcast:
    """One node's endpoint of the RB primitive on a given channel."""

    def __init__(self, network: Network, node_id: int, channel: str, f: int,
                 deliver_callback: Callable[[int, Any, Any], None]) -> None:
        self.network = network
        self.node_id = node_id
        self.channel = channel
        self.f = f
        self.deliver_callback = deliver_callback
        self._states: dict[tuple[int, Any], _BroadcastState] = {}

    # ------------------------------------------------------------------- api
    def broadcast(self, tag: Any, payload: Any,
                  size_bytes: int = MESSAGE_OVERHEAD_BYTES) -> None:
        """RB-broadcast ``payload`` under ``tag`` (unique per origin)."""
        body = {"origin": self.node_id, "tag": tag, "payload": payload}
        self.network.broadcast(self.node_id, self.channel, RB_SEND, body,
                               size_bytes=size_bytes, include_self=True)

    # -------------------------------------------------------------- handlers
    def on_message(self, message: Message) -> None:
        """Feed an incoming RB protocol message into the state machine."""
        body = message.payload
        origin, tag = body["origin"], body["tag"]
        state = self._states.setdefault((origin, tag), _BroadcastState())
        if message.kind == RB_SEND:
            self._on_send(origin, tag, state, body, message)
        elif message.kind == RB_ECHO:
            self._on_echo(origin, tag, state, body, message)
        elif message.kind == RB_READY:
            self._on_ready(origin, tag, state, body, message)

    def _on_send(self, origin: int, tag: Any, state: _BroadcastState,
                 body: dict, message: Message) -> None:
        if message.sender != origin:
            return  # only the origin may open its own broadcast
        if state.payload is None:
            state.payload = body["payload"]
            state.payload_size = message.size_bytes
        self._maybe_echo(origin, tag, state)

    def _on_echo(self, origin: int, tag: Any, state: _BroadcastState,
                 body: dict, message: Message) -> None:
        state.echo_from.add(message.sender)
        if state.payload is None:
            state.payload = body["payload"]
            state.payload_size = message.size_bytes
        n = self.network.n_nodes
        if len(state.echo_from) >= n - self.f:
            self._maybe_ready(origin, tag, state)

    def _on_ready(self, origin: int, tag: Any, state: _BroadcastState,
                  body: dict, message: Message) -> None:
        state.ready_from.add(message.sender)
        if state.payload is None:
            state.payload = body["payload"]
            state.payload_size = message.size_bytes
        if len(state.ready_from) >= self.f + 1:
            self._maybe_ready(origin, tag, state)
        if len(state.ready_from) >= 2 * self.f + 1 and not state.delivered:
            state.delivered = True
            self.deliver_callback(origin, tag, state.payload)

    # -------------------------------------------------------------- emitters
    def _maybe_echo(self, origin: int, tag: Any, state: _BroadcastState) -> None:
        if state.echoed or state.payload is None:
            return
        state.echoed = True
        body = {"origin": origin, "tag": tag, "payload": state.payload}
        self.network.broadcast(self.node_id, self.channel, RB_ECHO, body,
                               size_bytes=state.payload_size, include_self=True)

    def _maybe_ready(self, origin: int, tag: Any, state: _BroadcastState) -> None:
        if state.readied or state.payload is None:
            return
        state.readied = True
        body = {"origin": origin, "tag": tag, "payload": state.payload}
        self.network.broadcast(self.node_id, self.channel, RB_READY, body,
                               size_bytes=state.payload_size, include_self=True)
