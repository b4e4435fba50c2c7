"""Benign failure detector (Section 6.1.1, "Benign FD").

Every node keeps a *suspected list* of at most ``f`` nodes for which it has
waited the longest (above a threshold of consecutive timed-out deliveries).
When the proposer of the current round is suspected, the node votes against
delivery immediately instead of waiting for the timer, which keeps crashed
nodes from inflating round latency.  The list is invalidated whenever the
protocol skips one of the last ``f`` proposers or when Byzantine activity is
detected, so that at least one correct, unsuspected node can always propose.
"""

from __future__ import annotations

from collections import defaultdict


class BenignFailureDetector:
    """Suspected-node bookkeeping for one FireLedger worker."""

    #: Consecutive timed-out deliveries before a node is suspected.
    SUSPECT_AFTER = 2

    def __init__(self, f: int, enabled: bool = True) -> None:
        self.f = f
        self.enabled = enabled
        self._timeout_streak: dict[int, int] = defaultdict(int)
        self._suspected: set[int] = set()

    def is_suspected(self, node_id: int) -> bool:
        """Whether the detector currently suspects ``node_id``."""
        return self.enabled and node_id in self._suspected

    def record_timeout(self, node_id: int) -> None:
        """A delivery from ``node_id`` timed out."""
        if not self.enabled:
            return
        self._timeout_streak[node_id] += 1
        if self._timeout_streak[node_id] >= self.SUSPECT_AFTER:
            if len(self._suspected) < self.f or node_id in self._suspected:
                self._suspected.add(node_id)

    def record_delivery(self, node_id: int) -> None:
        """A delivery from ``node_id`` succeeded: clear its suspicion."""
        self._timeout_streak[node_id] = 0
        self._suspected.discard(node_id)

    def invalidate(self) -> None:
        """Drop the whole suspected list (skipped recent proposer / Byzantine proof)."""
        self._suspected.clear()
        self._timeout_streak.clear()
