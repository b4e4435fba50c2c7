"""Traffic adversaries: delayed-release and selective omission.

* ``delayed-release`` holds every outbound message of a Byzantine sender
  for ``delay`` simulated seconds, while its fault-schedule window is
  active, before handing it to the real network — the classic timing
  attack against the OBBC fast path, whose adaptive timer
  (:class:`~repro.core.timers.AdaptiveTimer`) must absorb the extra
  latency or fall back.  It is the one strategy behind a network proxy
  (:meth:`~repro.adversary.base.AdversaryStrategy.wrap_network`): a hold
  sends at release time, so the late copy reserves the NICs and ingress
  lanes then, where a ``slow`` window would reserve the receiver's ingress
  lane at send time and queue every later message behind the late one.
* ``selective-omission`` drops traffic to a chosen victim set only,
  starving specific peers of the Byzantine nodes' messages while the
  rest of the cluster sees them behave: the fairness spread
  (per-sender commit latency) surfaces the starvation.  Each window is a
  one-way partition on the run's fault timeline (:meth:`timeline`), so the
  network drops those copies and counts them in ``msgs_dropped`` like any
  other fault drop.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.adversary.base import AdversaryStrategy, register


class _HoldingNetwork:
    """The network as a delayed-release run's nodes see it: ``send`` /
    ``broadcast`` from an active Byzantine sender are re-issued on the real
    network ``delay`` seconds later (lost if the sender has crashed by
    then); everything else is the real network's."""

    def __init__(self, network, strategy: "DelayedReleaseStrategy") -> None:
        self._network = network
        self._strategy = strategy

    def _hold(self, held, copies: int, send, sender: int, *args, **kwargs):
        """``send(sender, ...)`` now, or ``delay`` seconds from now (then
        returning ``held``) while ``sender``'s window is active."""
        strategy, env = self._strategy, self._network.env
        if not strategy.active(sender, env.now):
            return send(sender, *args, **kwargs)
        strategy.delayed_messages += copies
        env.call_later(strategy.delay,
                       lambda _arg: send(sender, *args, **kwargs))
        return held

    def send(self, sender: int, *args, **kwargs):
        return self._hold(None, 1, self._network.send, sender, *args, **kwargs)

    def broadcast(self, sender: int, *args, include_self: bool = False,
                  **kwargs):
        return self._hold([], self._network.n_nodes - 1 + include_self,
                          self._network.broadcast, sender, *args,
                          include_self=include_self, **kwargs)

    def __getattr__(self, name):
        return getattr(self._network, name)


@register
class DelayedReleaseStrategy(AdversaryStrategy):
    """Hold every Byzantine outbound message ``delay`` seconds, then send.

    The deferred transmission goes through the *real* network at release
    time, so it still pays NIC serialisation, link latency and the fault
    timeline's windows — the adversary only adds the hold.
    """

    name = "delayed-release"

    def __init__(self, nodes=frozenset(), windows=None,
                 delay: float = 0.08) -> None:
        super().__init__(nodes, windows)
        if delay <= 0:
            raise ValueError("delay must be positive")
        self.delay = float(delay)
        self.delayed_messages = 0

    def wrap_network(self, network):
        return _HoldingNetwork(network, self) if self.nodes else network

    def counters(self) -> dict[str, float]:
        return {"adversary_delayed_msgs": self.delayed_messages}


@register
class SelectiveOmissionStrategy(AdversaryStrategy):
    """Drop Byzantine traffic to a victim set only.

    ``victims`` defaults to the lowest-numbered node that is not Byzantine.
    Every window of every Byzantine node is one ``partition`` phase that
    cuts the node's copies to the victims and nothing else; a partition
    draws nothing from the network's rng, so the run's other copies keep
    their latency samples.
    """

    name = "selective-omission"

    def __init__(self, nodes=frozenset(), windows=None,
                 victims: Optional[Sequence[int]] = None) -> None:
        super().__init__(nodes, windows)
        self.victims = frozenset(victims) if victims is not None else None

    def timeline(self, duration: float):
        # Lazy: the scenario package imports this one to validate specs.
        from repro.scenarios.faultplan import FaultPhase

        victims = self.victims
        if victims is None:  # the lowest-numbered node that is not Byzantine
            victims = {min(set(range(len(self.nodes) + 1)) - self.nodes)}
        victims = tuple(sorted(victims))
        return tuple(
            FaultPhase(kind="partition", groups=((node,), victims),
                       senders=(node,), receivers=victims, at=at, until=until)
            for node in sorted(self.nodes)
            for at, until in self.windows.get(node) or ((0.0, math.inf),))
