"""Network message envelope."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

_message_counter = itertools.count()

#: Fixed wire overhead of an RPC message (framing, routing metadata).
MESSAGE_OVERHEAD_BYTES = 96


@dataclass(slots=True)
class Message:
    """An envelope carrying one protocol payload between two nodes.

    ``channel`` namespaces the traffic (e.g. ``"fl/0"`` for FireLedger worker
    0, ``"hotstuff"`` for the baseline) so several protocol instances can share
    one network.  ``kind`` is the protocol-level message type (``"HEADER"``,
    ``"VOTE"`` ...), and ``payload`` an arbitrary, protocol-defined object.
    """

    sender: int
    receiver: int
    channel: str
    kind: str
    payload: Any
    size_bytes: int = MESSAGE_OVERHEAD_BYTES
    sent_at: float = 0.0
    delivered_at: Optional[float] = None
    message_id: int = field(default_factory=lambda: next(_message_counter))

    def __post_init__(self) -> None:
        if self.size_bytes < MESSAGE_OVERHEAD_BYTES:
            self.size_bytes = MESSAGE_OVERHEAD_BYTES

    @property
    def latency(self) -> Optional[float]:
        """End-to-end delivery latency, if the message has been delivered."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.sent_at
