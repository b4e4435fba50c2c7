"""Network message envelope."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Fixed wire overhead of an RPC message (framing, routing metadata).
MESSAGE_OVERHEAD_BYTES = 96


@dataclass(frozen=True, slots=True, init=False)
class Message:
    """What one ``send`` or ``broadcast`` put on the wire, built once.

    ``channel`` namespaces the traffic (e.g. ``"fl/0"`` for FireLedger worker
    0, ``"hotstuff"`` for the baseline) so several protocol instances can share
    one network.  ``kind`` is the protocol-level message type (``"HEADER"``,
    ``"VOTE"`` ...), and ``payload`` an arbitrary, protocol-defined object;
    ``route`` is the ``(channel, kind)`` key an endpoint's routing table is
    looked up by.

    An envelope names no receiver: every receiver of a broadcast is handed
    the *same* object (the network carries the receiver id beside it), so it
    is immutable — n - 1 mailboxes alias it.  One is built per send, so the
    constructor writes the seven slots straight through their member
    descriptors (:data:`_SLOT_SETTERS`); assignment after construction still
    raises ``FrozenInstanceError``.
    """

    sender: int
    channel: str
    kind: str
    payload: Any
    size_bytes: int = MESSAGE_OVERHEAD_BYTES
    sent_at: float = 0.0
    route: tuple[str, str] = field(init=False, repr=False, compare=False)

    def __init__(self, sender: int, channel: str, kind: str, payload: Any,
                 size_bytes: int = MESSAGE_OVERHEAD_BYTES,
                 sent_at: float = 0.0) -> None:
        if size_bytes < MESSAGE_OVERHEAD_BYTES:
            size_bytes = MESSAGE_OVERHEAD_BYTES
        (set_sender, set_channel, set_kind, set_payload, set_size, set_sent_at,
         set_route) = _SLOT_SETTERS
        set_sender(self, sender)
        set_channel(self, channel)
        set_kind(self, kind)
        set_payload(self, payload)
        set_size(self, size_bytes)
        set_sent_at(self, sent_at)
        set_route(self, (channel, kind))


#: The ``__set__`` of each slot's member descriptor, in field order.
_SLOT_SETTERS = tuple(vars(Message)[name].__set__ for name in Message.__slots__)
