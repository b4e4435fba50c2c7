"""Unbounded FIFO queue between processes: the kernel's generic hand-off (an
endpoint without a router buffers its deliveries in one).  Protocol traffic is
matched by instance through :class:`repro.core.mailbox.Mailbox` instead."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment


class Store:
    """A FIFO queue whose ``get`` returns an event; getters are served in order."""

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    @property
    def items(self) -> list[Any]:
        """Snapshot of the items currently buffered (oldest first)."""
        return list(self._items)

    def put(self, item: Any) -> None:
        """Add ``item`` to the store, waking the oldest waiting getter."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
