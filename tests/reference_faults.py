"""Reference fault controllers: the two-method contract the network asked
per copy before :meth:`~repro.scenarios.faultplan.FaultSchedule.link_fault`
answered once per send or broadcast.

Two generations, both kept as oracles of ``tests/test_scenarios.py``'s
differential test (same drop decisions, same delays, same rng stream):

* :func:`walk` — the schedule's own per-copy walk: ``FaultPhase._applies`` /
  ``drops`` / ``delay`` and ``FaultSchedule.should_drop`` / ``extra_delay``,
  verbatim, on subclasses (:class:`WalkedPhase`, :class:`WalkedSchedule`).
  ``tests/reference_network.py`` wraps a run's schedule in it.
* the four controller classes of the former ``repro.net.faults`` and
  ``FaultSchedule.controller()`` (:func:`controller`, the compile step
  joining a schedule to them), which the walk replaced.  One mechanical
  edit since: an envelope no longer names a receiver, so each method takes
  ``receiver`` as an argument where it read ``message.receiver``.  Their
  :class:`PartitionFault` ignores a partition's ``senders`` / ``receivers``
  filters, so it stands only for partitions without them — selective
  omission's one-way partitions are :func:`walk`'s to answer.
"""

from __future__ import annotations

import random
from dataclasses import fields
from typing import Iterable, Optional, Sequence

from repro.net.message import Message
from repro.scenarios.faultplan import FaultPhase, FaultSchedule


class WalkedPhase(FaultPhase):
    """A :class:`FaultPhase` with the per-copy tests it carried."""

    # ------------------------------------------------------ per-message tests
    def _applies(self, message, receiver: int, now: float) -> bool:
        """Whether the window is open (both ends inclusive) and ``message``
        to ``receiver`` passes the ``senders`` / ``receivers`` filters."""
        if not self.at <= now <= self.until:
            return False
        if self.senders is not None and message.sender not in self.senders:
            return False
        return self.receivers is None or receiver in self.receivers

    def drops(self, message, receiver: int, now: float,
              rng: random.Random) -> bool:
        """Whether this phase drops ``message`` to ``receiver``: a
        ``partition`` drops what crosses its groups, a ``loss`` window draws
        once from ``rng`` per matching copy; nothing else drops."""
        if self.kind == "partition":
            return (self._applies(message, receiver, now)
                    and not any(message.sender in group
                                and receiver in group
                                for group in self.groups))
        return (self.kind == "loss" and self._applies(message, receiver, now)
                and rng.random() < self.loss_rate)

    def delay(self, message, receiver: int, now: float) -> float:
        """Seconds a ``slow`` window adds to ``message`` (else 0)."""
        if self.kind == "slow" and self._applies(message, receiver, now):
            return self.extra_delay
        return 0.0


class WalkedSchedule(FaultSchedule):
    """A :class:`FaultSchedule` answering the two per-copy questions by a
    walk over its link windows (its phases are :class:`WalkedPhase`)."""

    def should_drop(self, message, receiver: int, now: float,
                    rng: random.Random) -> bool:
        """Whether any window drops ``message``'s copy to ``receiver``.  The
        first drop wins: later loss windows do not draw from ``rng`` for a
        copy already lost."""
        return any(phase.drops(message, receiver, now, rng)
                   for phase in self.link_phases)

    def extra_delay(self, message, receiver: int, now: float,
                    rng: random.Random) -> float:
        """Seconds the slow windows add to ``message``'s copy to ``receiver``
        (they add up)."""
        return sum(phase.delay(message, receiver, now)
                   for phase in self.link_phases)


def walk(schedule: FaultSchedule) -> WalkedSchedule:
    """``schedule`` as the two-method controller that walks it per copy."""
    return WalkedSchedule(tuple(
        WalkedPhase(**{f.name: getattr(phase, f.name) for f in fields(phase)})
        for phase in schedule.phases))


class FaultController:
    """Base controller: by default delivers everything unchanged."""

    def should_drop(self, message: Message, receiver: int, now: float,
                    rng: random.Random) -> bool:
        """Whether to silently drop ``message``."""
        return False

    def extra_delay(self, message: Message, receiver: int, now: float,
                    rng: random.Random) -> float:
        """Additional one-way delay (seconds) to impose on ``message``."""
        return 0.0


class MessageLossFault(FaultController):
    """Drops each message independently with probability ``loss_rate``.

    Optionally restricted to messages from/to a set of nodes and to a time
    window, which is how the omission-failure scenarios are injected.
    """

    def __init__(self, loss_rate: float, senders: Optional[Iterable[int]] = None,
                 receivers: Optional[Iterable[int]] = None,
                 start: float = 0.0, end: float = float("inf")) -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError("loss_rate must be within [0, 1]")
        self.loss_rate = loss_rate
        self.senders = set(senders) if senders is not None else None
        self.receivers = set(receivers) if receivers is not None else None
        self.start = start
        self.end = end

    def should_drop(self, message: Message, receiver: int, now: float,
                    rng: random.Random) -> bool:
        if not self.start <= now <= self.end:
            return False
        if self.senders is not None and message.sender not in self.senders:
            return False
        if self.receivers is not None and receiver not in self.receivers:
            return False
        return rng.random() < self.loss_rate


class PartitionFault(FaultController):
    """Splits the cluster into groups; cross-group messages are dropped."""

    def __init__(self, groups: Sequence[Iterable[int]],
                 start: float = 0.0, end: float = float("inf")) -> None:
        self.groups = [frozenset(group) for group in groups]
        self.start = start
        self.end = end

    def _same_group(self, a: int, b: int) -> bool:
        for group in self.groups:
            if a in group and b in group:
                return True
        return False

    def should_drop(self, message: Message, receiver: int, now: float,
                    rng: random.Random) -> bool:
        if not self.start <= now <= self.end:
            return False
        return not self._same_group(message.sender, receiver)


class LinkDelayFault(FaultController):
    """Adds delay to messages on selected links (models asynchrony periods)."""

    def __init__(self, delay: float, senders: Optional[Iterable[int]] = None,
                 receivers: Optional[Iterable[int]] = None,
                 start: float = 0.0, end: float = float("inf")) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = delay
        self.senders = set(senders) if senders is not None else None
        self.receivers = set(receivers) if receivers is not None else None
        self.start = start
        self.end = end

    def extra_delay(self, message: Message, receiver: int, now: float,
                    rng: random.Random) -> float:
        if not self.start <= now <= self.end:
            return 0.0
        if self.senders is not None and message.sender not in self.senders:
            return 0.0
        if self.receivers is not None and receiver not in self.receivers:
            return 0.0
        return self.delay


class CompositeFaultController(FaultController):
    """Applies several controllers: any drop wins, delays add up."""

    def __init__(self, controllers: Iterable[FaultController] = ()) -> None:
        self.controllers = list(controllers)

    def add(self, controller: FaultController) -> None:
        """Register an additional controller."""
        self.controllers.append(controller)

    def should_drop(self, message: Message, receiver: int, now: float,
                    rng: random.Random) -> bool:
        return any(c.should_drop(message, receiver, now, rng) for c in self.controllers)

    def extra_delay(self, message: Message, receiver: int, now: float,
                    rng: random.Random) -> float:
        return sum(c.extra_delay(message, receiver, now, rng) for c in self.controllers)


def controller(schedule) -> Optional[FaultController]:
    """Compile the windowed phases into one fault controller (or None)."""
    controllers: list[FaultController] = []
    for phase in schedule.phases:
        if phase.kind == "partition":
            controllers.append(PartitionFault(
                phase.groups, start=phase.at, end=phase.until))
        elif phase.kind == "loss":
            controllers.append(MessageLossFault(
                phase.loss_rate, senders=phase.senders,
                receivers=phase.receivers, start=phase.at, end=phase.until))
        elif phase.kind == "slow":
            controllers.append(LinkDelayFault(
                phase.extra_delay, senders=phase.senders,
                receivers=phase.receivers, start=phase.at, end=phase.until))
    if not controllers:
        return None
    if len(controllers) == 1:
        return controllers[0]
    return CompositeFaultController(controllers)
