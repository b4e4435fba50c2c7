"""Traffic-shaping adversaries: delayed-release and selective omission.

Both work at the outbound-send seam: :meth:`wrap_network` returns a
proxy around the run's network (simulated or realtime — only the public
``send`` / ``broadcast`` / ``env.call_later`` surface is used) that
intercepts traffic *from* Byzantine senders while their fault-schedule
window is active.  Honest traffic, and Byzantine traffic outside the
window, passes straight through.

* ``delayed-release`` holds every outbound message for ``delay``
  simulated seconds before handing it to the real network — the
  classic timing attack against the OBBC fast path, whose adaptive
  timer (:class:`~repro.core.timers.AdaptiveTimer`) must absorb the
  extra latency or fall back.
* ``selective-omission`` drops traffic to a chosen victim set only,
  starving specific peers of the Byzantine nodes' messages while the
  rest of the cluster sees them behave: the fairness spread
  (per-sender commit latency) surfaces the starvation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.adversary.base import AdversaryStrategy, register
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


@register
class DelayedReleaseStrategy(_TrafficStrategy):
    """Hold every Byzantine outbound message ``delay`` seconds, then send.

    The deferred transmission goes through the *real* network at release
    time, so it still pays NIC serialisation, link latency and the fault
    controller's policies — the adversary only adds the hold.  A node
    that crashes before release simply loses the message (the real
    network's crashed-sender contract).
    """

    name = "delayed-release"

    def __init__(self, nodes=frozenset(), windows=None,
                 delay: float = 0.08) -> None:
        super().__init__(nodes, windows)
        if delay <= 0:
            raise ValueError("delay must be positive")
        self.delay = float(delay)
        self.delayed_messages = 0

    def shape_send(self, network, sender, receiver, channel, kind, payload,
                   size_bytes):
        self.delayed_messages += 1

        def _release(_arg) -> None:
            network.send(sender, receiver, channel, kind, payload, size_bytes)

        network.env.call_later(self.delay, _release)
        return None

    def shape_broadcast(self, network, sender, channel, kind, payload,
                        size_bytes, include_self):
        self.delayed_messages += network.n_nodes - 1 + (1 if include_self else 0)

        def _release(_arg) -> None:
            network.broadcast(sender, channel, kind, payload, size_bytes,
                              include_self=include_self)

        network.env.call_later(self.delay, _release)
        return []

    def counters(self) -> dict[str, float]:
        return {"adversary_delayed_msgs": self.delayed_messages}


@register
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
