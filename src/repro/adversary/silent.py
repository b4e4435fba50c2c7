"""The fail-stop ``silent`` adversary, now a first-class strategy.

A silent node's protocol process never runs and its inbound traffic is
dropped at the network layer, exactly like a crashed node — but unlike a
crash it is *declared* Byzantine, so the honest side must spend timeouts
and view changes discovering it.  ``run_cluster`` silences the node
(:meth:`~repro.adversary.base.AdversaryStrategy.is_silent`), the same way
for every registered protocol, FireLedger included.
"""

from __future__ import annotations

from repro.adversary.base import AdversaryStrategy, register


@register
class SilentStrategy(AdversaryStrategy):
    """Byzantine nodes that simply never participate."""

    name = "silent"

    def is_silent(self, node_id: int, protocol_name: str) -> bool:
        return node_id in self.nodes

    def counters(self) -> dict[str, float]:
        return {"adversary_silenced_nodes": len(self.nodes)}
