"""Reference selective omission: the outbound-send proxy that withheld a
Byzantine node's copies to its victims before the strategy became one-way
partition windows on the run's fault timeline.

The former ``_ShapedNetwork`` / ``_TrafficStrategy`` pair and
``SelectiveOmissionStrategy`` of ``repro.adversary.traffic``, kept verbatim
as the oracle of ``tests/test_adversary.py``'s differential test: every row
column is the same, and the copies it counted in ``adversary_withheld_msgs``
are the ones the timeline now drops (``msgs_dropped``).  One mechanical
edit since: the class is not registered (the shipped strategy owns the
name), so a test passes an instance to ``run_cluster``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.adversary.base import AdversaryStrategy
from repro.net.message import MESSAGE_OVERHEAD_BYTES


class _ShapedNetwork:
    """Proxy network applying one strategy's outbound policy.

    Everything except ``send``/``broadcast`` — endpoints, crash state,
    stats, latency model, ``env`` — is delegated to the real network, so
    protocol code (and the cluster wiring around it) runs unchanged.
    """

    def __init__(self, network, strategy: "_TrafficStrategy") -> None:
        self._network = network
        self._strategy = strategy

    def send(self, sender: int, receiver: int, channel: str, kind: str,
             payload, size_bytes: int = MESSAGE_OVERHEAD_BYTES):
        network = self._network
        if self._strategy.active(sender, network.env.now):
            return self._strategy.shape_send(network, sender, receiver,
                                             channel, kind, payload,
                                             size_bytes)
        return network.send(sender, receiver, channel, kind, payload,
                            size_bytes)

    def broadcast(self, sender: int, channel: str, kind: str, payload,
                  size_bytes: int = MESSAGE_OVERHEAD_BYTES,
                  include_self: bool = False):
        network = self._network
        if self._strategy.active(sender, network.env.now):
            return self._strategy.shape_broadcast(network, sender, channel,
                                                  kind, payload, size_bytes,
                                                  include_self)
        return network.broadcast(sender, channel, kind, payload, size_bytes,
                                 include_self=include_self)

    def __getattr__(self, name):
        return getattr(self._network, name)


class _TrafficStrategy(AdversaryStrategy):
    """Base of the traffic shapers: installs :class:`_ShapedNetwork`."""

    def wrap_network(self, network):
        if not self.nodes:
            return network
        return _ShapedNetwork(network, self)

    def shape_send(self, network, sender, receiver, channel, kind, payload,
                   size_bytes):  # pragma: no cover - overridden
        raise NotImplementedError

    def shape_broadcast(self, network, sender, channel, kind, payload,
                        size_bytes, include_self):  # pragma: no cover
        raise NotImplementedError


class SelectiveOmissionStrategy(_TrafficStrategy):
    """Drop Byzantine traffic to a victim set only.

    ``victims`` defaults to the lowest-numbered honest node, chosen when
    the strategy is bound to the network (membership is known but the
    cluster size only arrives with the network).  Broadcasts are
    decomposed into per-receiver sends so the victims can be skipped;
    withheld copies are counted but never touch the wire.
    """

    name = "selective-omission"

    def __init__(self, nodes=frozenset(), windows=None,
                 victims: Optional[Sequence[int]] = None) -> None:
        super().__init__(nodes, windows)
        self.victims = frozenset(victims) if victims is not None else None
        self.withheld_messages = 0

    def wrap_network(self, network):
        if self.victims is None:
            honest = sorted(set(range(network.n_nodes)) - self.nodes)
            self.victims = frozenset(honest[:1])
        return super().wrap_network(network)

    def shape_send(self, network, sender, receiver, channel, kind, payload,
                   size_bytes):
        if receiver in self.victims:
            self.withheld_messages += 1
            return None
        return network.send(sender, receiver, channel, kind, payload,
                            size_bytes)

    def shape_broadcast(self, network, sender, channel, kind, payload,
                        size_bytes, include_self):
        reached = []
        for receiver in range(network.n_nodes):
            if receiver == sender and not include_self:
                continue
            if receiver in self.victims:
                self.withheld_messages += 1
                continue
            if network.send(sender, receiver, channel, kind, payload,
                            size_bytes) is not None:
                reached.append(receiver)
        return reached

    def counters(self) -> dict[str, float]:
        return {"adversary_withheld_msgs": self.withheld_messages}
