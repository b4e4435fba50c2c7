"""One fault timeline for a whole run.

A :class:`FaultSchedule` is a single ordered list of :class:`FaultPhase`
events — timed crashes *and recoveries*, partition / loss / slow-link
windows, and Byzantine membership — that a scenario spec or a figure driver
declares and :func:`repro.core.cluster.run_cluster` takes as its one
``faults=`` argument (Section 7.4.1 is ``FaultSchedule((crash(nodes, at),))``,
Section 7.4.2 ``FaultSchedule((byzantine(nodes),))``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.net.network import Network
from repro.sim import Environment

#: Phase kinds and whether they are point events (``at``) or windows
#: (``at``..``until``); ``byzantine`` is a membership *window* — the named
#: nodes misbehave between ``at`` and ``until`` (the defaults cover the run).
PHASE_KINDS = ("crash", "recover", "partition", "loss", "slow", "byzantine")
_WINDOW_KINDS = frozenset({"partition", "loss", "slow", "byzantine"})
_NODE_KINDS = frozenset({"crash", "recover", "byzantine"})
#: The window kinds the network consults per send.
_LINK_KINDS = frozenset({"partition", "loss", "slow"})


@dataclass(frozen=True)
class FaultPhase:
    """One event or window on the fault timeline.

    ``kind`` selects which fields matter: ``crash``/``recover`` use ``at`` +
    ``nodes``; ``partition`` uses ``groups`` over ``at``..``until``; ``loss``
    uses ``loss_rate`` (optionally restricted to ``senders``/``receivers``)
    over the window; ``slow`` adds ``extra_delay`` seconds per message over
    the window; ``byzantine`` marks ``nodes`` as adversary-controlled over
    ``at``..``until`` (the defaults cover the whole run).  How windowed
    membership is honoured is up to the scenario's adversary strategy:
    traffic/churn strategies respect the window exactly, while proposal and
    liveness strategies (equivocate, silent) treat any listed node as
    Byzantine for the whole run — see :mod:`repro.adversary`.
    """

    kind: str
    at: float = 0.0
    until: float = float("inf")
    nodes: tuple[int, ...] = ()
    groups: tuple[tuple[int, ...], ...] = ()
    loss_rate: float = 0.0
    extra_delay: float = 0.0
    senders: Optional[tuple[int, ...]] = None
    receivers: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in PHASE_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {', '.join(PHASE_KINDS)}")
        if self.at < 0:
            raise ValueError("phase times must be non-negative")
        if self.kind in _WINDOW_KINDS and self.until <= self.at:
            raise ValueError(f"{self.kind} window needs until > at")
        if self.kind in _NODE_KINDS and not self.nodes:
            raise ValueError(f"{self.kind} phase needs at least one node")
        if self.kind == "partition" and len(self.groups) < 2:
            raise ValueError("partition needs at least two groups")
        if self.kind == "loss" and not 0.0 < self.loss_rate <= 1.0:
            raise ValueError("loss phase needs loss_rate in (0, 1]")
        if self.kind == "slow" and self.extra_delay <= 0:
            raise ValueError("slow phase needs a positive extra_delay")

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPhase":
        """Build a phase from a plain dict (TOML/JSON-friendly)."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown fault phase keys: {unknown}")
        kwargs = dict(data)
        for key in ("nodes", "senders", "receivers"):
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(int(n) for n in kwargs[key])
        if "groups" in kwargs:
            kwargs["groups"] = tuple(tuple(int(n) for n in group)
                                     for group in kwargs["groups"])
        return cls(**kwargs)

    def summary(self) -> str:
        """One human-readable clause for reports."""
        if self.kind in ("crash", "recover"):
            nodes = ",".join(str(n) for n in self.nodes)
            return f"{self.kind} node(s) {nodes} at t={self.at:g}s"
        if self.kind == "byzantine":
            nodes = ",".join(str(n) for n in self.nodes)
            if self.at == 0.0 and self.until == float("inf"):
                return f"byzantine node(s) {nodes}"
            end = "end" if self.until == float("inf") else f"{self.until:g}s"
            return f"byzantine node(s) {nodes} over t={self.at:g}s..{end}"
        window = (f"t={self.at:g}s..{'end' if self.until == float('inf') else f'{self.until:g}s'}")
        if self.kind == "partition":
            groups = " | ".join("{" + ",".join(map(str, g)) + "}" for g in self.groups)
            return f"partition {groups} over {window}"
        if self.kind == "loss":
            return f"{self.loss_rate:.0%} message loss over {window}"
        return f"+{self.extra_delay:g}s link delay over {window}"


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered collection of :class:`FaultPhase` entries.

    ``run_cluster`` splits the schedule into three mechanisms:

    * crash/recover events are scheduled on the run's clock
      (:meth:`install`), so the same node can crash, recover and crash again;
    * while a partition / loss / slow window exists the network asks the
      schedule itself one question per send or broadcast
      (:meth:`link_fault`), and each copy of a sender some open window
      admits its ``fate``;
    * :attr:`byzantine_nodes` / :meth:`byzantine_windows` bind the run's
      adversary strategy at cluster build, and :meth:`excluded_nodes` keeps
      faulty nodes out of the correct-node metrics.
    """

    phases: tuple[FaultPhase, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", tuple(
            phase if isinstance(phase, FaultPhase) else FaultPhase.from_dict(phase)
            for phase in self.phases))
        for node, windows in self.byzantine_windows().items():
            for (_, prev_until), (next_at, _) in zip(windows, windows[1:]):
                if next_at < prev_until:
                    raise ValueError(
                        f"overlapping byzantine windows for node {node}; "
                        f"merge them into one phase")

    def validate(self, n_nodes: int) -> None:
        """Check every referenced node id fits a cluster of ``n_nodes``."""
        for phase in self.phases:
            referenced = set(phase.nodes)
            referenced |= {node for group in phase.groups for node in group}
            referenced |= set(phase.senders or ())
            referenced |= set(phase.receivers or ())
            bad = sorted(node for node in referenced
                         if not 0 <= node < n_nodes)
            if bad:
                raise ValueError(
                    f"fault phase {phase.kind!r} references node(s) {bad} "
                    f"outside a {n_nodes}-node cluster")

    # ------------------------------------------------------------- membership
    @property
    def byzantine_nodes(self) -> frozenset[int]:
        """All nodes listed by any byzantine phase (window or full-run)."""
        return frozenset(self.byzantine_windows())

    def byzantine_windows(self) -> dict[int, tuple[tuple[float, float], ...]]:
        """Per-node activity windows: ``{node: ((at, until), ...)}``.

        The windows feed the adversary strategy's
        :meth:`~repro.adversary.base.AdversaryStrategy.active` check; an
        unwindowed phase contributes ``(0, inf)``.
        """
        spans: dict[int, list[tuple[float, float]]] = {}
        for phase in self.phases:
            if phase.kind != "byzantine":
                continue
            for node in phase.nodes:
                spans.setdefault(node, []).append((phase.at, phase.until))
        return {node: tuple(sorted(windows))
                for node, windows in spans.items()}

    def excluded_nodes(self) -> frozenset[int]:
        """Nodes whose metrics should not count as correct-node output.

        Byzantine nodes, plus any node whose *final* state on the timeline is
        crashed (a node that recovers before the run ends counts as correct
        again — its measured window includes the outage, as in real runs).
        """
        crashed: set[int] = set()
        for phase in sorted((p for p in self.phases
                             if p.kind in ("crash", "recover")),
                            key=lambda p: p.at):
            if phase.kind == "crash":
                crashed.update(phase.nodes)
            else:
                crashed.difference_update(phase.nodes)
        return frozenset(crashed) | self.byzantine_nodes

    # ------------------------------------------------- the network's questions
    @cached_property
    def link_phases(self) -> tuple[FaultPhase, ...]:
        """The partition / loss / slow windows, in declaration order.  A
        schedule without one has nothing to say per send, and
        ``run_cluster`` then leaves the network on its fault-free path."""
        return tuple(phase for phase in self.phases
                     if phase.kind in _LINK_KINDS)

    def link_fault(self, sender: int, now: float
                   ) -> Optional[Callable[[int, random.Random], Optional[float]]]:
        """The network's one question per ``send`` or ``broadcast``: ``None``
        when no window open at ``now`` (both ends inclusive) admits
        ``sender``'s copies, else ``fate(receiver, rng)`` — ``None`` for a
        dropped copy, otherwise the seconds the slow windows add to it.

        The admitted windows apply in declaration order to each copy their
        ``receivers`` filter admits: a partition drops a copy whose receiver
        shares no group with the sender, a loss window draws once from
        ``rng``; the first drop wins (later loss windows draw nothing for a
        copy already lost) and slow delays add up.
        """
        rules = [(phase, {node for group in phase.groups if sender in group
                          for node in group})
                 for phase in self.link_phases
                 if phase.at <= now <= phase.until
                 and (phase.senders is None or sender in phase.senders)]
        if not rules:
            return None

        def fate(receiver: int, rng: random.Random) -> Optional[float]:
            extra = 0.0
            for phase, same_side in rules:
                if phase.receivers is not None and receiver not in phase.receivers:
                    continue
                kind = phase.kind
                if (kind == "partition" and receiver not in same_side
                        or kind == "loss" and rng.random() < phase.loss_rate):
                    return None
                if kind == "slow":
                    extra += phase.extra_delay
            return extra

        return fate

    # ------------------------------------------------------------ installation
    def install(self, env: Environment, network: Network) -> None:
        """Schedule the timed crash/recover events on the simulation clock."""
        for phase in self.phases:
            if phase.kind == "crash":
                action = network.crash
            elif phase.kind == "recover":
                action = network.recover
            else:
                continue
            for node in phase.nodes:
                env.call_later(max(phase.at - env.now, 0.0), action, node)

    def summary(self) -> str:
        """Human-readable one-liner for reports (``-`` when fault-free)."""
        if not self.phases:
            return "-"
        return "; ".join(phase.summary() for phase in self.phases)


# ------------------------------------------------------- phase constructors
def crash(nodes: "int | Iterable[int]", at: float) -> FaultPhase:
    """Crash one node (or several) at time ``at``."""
    nodes = (nodes,) if isinstance(nodes, int) else tuple(nodes)
    return FaultPhase(kind="crash", at=at, nodes=nodes)


def recover(nodes: "int | Iterable[int]", at: float) -> FaultPhase:
    """Recover previously crashed node(s) at time ``at``."""
    nodes = (nodes,) if isinstance(nodes, int) else tuple(nodes)
    return FaultPhase(kind="recover", at=at, nodes=nodes)


def partition(groups: Sequence[Iterable[int]], start: float, end: float) -> FaultPhase:
    """Split the cluster into ``groups`` between ``start`` and ``end``."""
    return FaultPhase(kind="partition", at=start, until=end,
                      groups=tuple(tuple(g) for g in groups))


def loss(rate: float, start: float = 0.0, end: float = float("inf"),
         senders: Optional[Iterable[int]] = None,
         receivers: Optional[Iterable[int]] = None) -> FaultPhase:
    """Drop each matching message with probability ``rate`` in the window."""
    return FaultPhase(kind="loss", at=start, until=end, loss_rate=rate,
                      senders=tuple(senders) if senders is not None else None,
                      receivers=tuple(receivers) if receivers is not None else None)


def slow(extra_delay: float, start: float = 0.0, end: float = float("inf"),
         senders: Optional[Iterable[int]] = None,
         receivers: Optional[Iterable[int]] = None) -> FaultPhase:
    """Add ``extra_delay`` seconds to matching messages in the window."""
    return FaultPhase(kind="slow", at=start, until=end, extra_delay=extra_delay,
                      senders=tuple(senders) if senders is not None else None,
                      receivers=tuple(receivers) if receivers is not None else None)


def byzantine(nodes: "int | Iterable[int]", at: float = 0.0,
              until: Optional[float] = None) -> FaultPhase:
    """Mark ``nodes`` as adversary-controlled over ``at``..``until``.

    The defaults cover the whole run (the classic fixed membership); a
    bounded window drives windowed strategies such as churn.
    """
    nodes = (nodes,) if isinstance(nodes, int) else tuple(nodes)
    return FaultPhase(kind="byzantine", nodes=nodes, at=at,
                      until=float("inf") if until is None else until)
