"""Network message envelope."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Fixed wire overhead of an RPC message (framing, routing metadata).
MESSAGE_OVERHEAD_BYTES = 96


@dataclass(frozen=True, slots=True)
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
    is immutable — n - 1 mailboxes alias it.
    """

    sender: int
    channel: str
    kind: str
    payload: Any
    size_bytes: int = MESSAGE_OVERHEAD_BYTES
    sent_at: float = 0.0
    route: tuple[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size_bytes < MESSAGE_OVERHEAD_BYTES:
            object.__setattr__(self, "size_bytes", MESSAGE_OVERHEAD_BYTES)
        object.__setattr__(self, "route", (self.channel, self.kind))
