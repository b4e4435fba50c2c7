"""Reference fault controllers: the per-window classes the network consulted
before :class:`~repro.scenarios.faultplan.FaultSchedule` answered
``should_drop`` / ``extra_delay`` itself.

The former ``repro.net.faults`` (four controller classes) and
``FaultSchedule.controller()`` (the compile step joining a schedule to them),
kept verbatim as the oracle of ``tests/test_scenarios.py``'s differential
test: same drop decisions, same delays, same rng stream.  One mechanical
edit since: an envelope no longer names a receiver, so each method takes
``receiver`` as an argument where it read ``message.receiver``.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from repro.net.message import Message


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
