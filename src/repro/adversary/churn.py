"""The churn adversary: Byzantine nodes that continuously leave and rejoin.

Each controlled node cycles ``down_time`` seconds crashed, ``up_time``
seconds back up, for as long as its fault-schedule window lasts (the
whole run when unwindowed) — the membership-instability stress the
ROADMAP's attacker library calls "continuous join/leave".  Cycles are
staggered per node so the cluster never loses every churning node at the
same instant.

The cycle compiles to ``crash``/``recover`` phases of the run's one
:class:`~repro.scenarios.faultplan.FaultSchedule` (:meth:`timeline`), so a
run has one source of crash events and every protocol sees churn the same
way it sees a scheduled outage.  Note
the FireLedger worker semantics: a worker that observes its node crashed
exits permanently, so for FireLedger a churned node's *processes* do not
resume on rejoin (matching the rolling-crash scenario's behaviour) —
the node still receives, stores and serves traffic again, and the honest
majority's progress and state agreement are what the strategy measures.
"""

from __future__ import annotations

import math

from repro.adversary.base import AdversaryStrategy, register


@register
class ChurnStrategy(AdversaryStrategy):
    """Continuous leave/join cycles on the Byzantine membership."""

    name = "churn"

    def __init__(self, nodes=frozenset(), windows=None,
                 down_time: float = 0.15, up_time: float = 0.2,
                 stagger: float = 0.05) -> None:
        super().__init__(nodes, windows)
        if down_time <= 0 or up_time <= 0:
            raise ValueError("down_time and up_time must be positive")
        if stagger < 0:
            raise ValueError("stagger must be non-negative")
        self.down_time = float(down_time)
        self.up_time = float(up_time)
        self.stagger = float(stagger)
        self.departures = 0
        self.rejoins = 0

    def timeline(self, duration: float):
        # Lazy: the scenario package imports this one to validate specs.
        from repro.scenarios.faultplan import crash, recover

        phases = []
        self.departures = self.rejoins = 0
        for offset, node in enumerate(sorted(self.nodes)):
            for at, until in self.windows.get(node, ((0.0, math.inf),)):
                leave = at + offset * self.stagger
                # A node leaves only inside its window; it always returns,
                # even if that is after the window (or the run) has ended.
                # The run executes every event up to and including
                # ``duration``, which is what the counters report.
                while leave < until and leave <= duration:
                    back = leave + self.down_time
                    phases += [crash(node, at=leave), recover(node, at=back)]
                    self.departures += 1
                    self.rejoins += back <= duration
                    leave = back + self.up_time
        return tuple(phases)

    def counters(self) -> dict[str, float]:
        return {"adversary_departures": self.departures,
                "adversary_rejoins": self.rejoins}
