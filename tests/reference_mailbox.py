"""The predicate-scan inbox the keyed mailbox replaced, kept as a test oracle.

:class:`PredicateStore` is the former ``sim.Store``: one FIFO of everything
buffered, matched by running a predicate over it.  :class:`ReferenceMailbox`
puts the :class:`repro.core.mailbox.Mailbox` interface on top of it the way
``ProtocolContext`` and the protocols used it — matcher closures comparing
kind, key field(s) and sender, the getter withdrawal that re-queued a message
racing the cancel, and FireLedger's purge of every message whose ``tag`` /
``round`` is under the current round.  ``tests/test_mailbox.py`` drives both
with the same operations and compares what they hand out.
"""

from __future__ import annotations

from collections import deque

from repro.sim.events import Event


class PredicateStore:
    """FIFO whose ``get`` / ``try_get`` scan for the first matching item."""

    def __init__(self, env) -> None:
        self.env = env
        self.items: deque = deque()
        self.getters: deque = deque()

    def put(self, item) -> None:
        for index, (event, predicate) in enumerate(self.getters):
            if not event.triggered and predicate(item):
                del self.getters[index]
                event.succeed(item)
                return
        self.items.append(item)

    def get(self, predicate) -> Event:
        event = Event(self.env)
        item = self.try_get(predicate)
        if item is not None:
            event.succeed(item)
        else:
            self.getters.append((event, predicate))
        return event

    def try_get(self, predicate):
        for index, item in enumerate(self.items):
            if predicate(item):
                del self.items[index]
                return item
        return None


class ReferenceMailbox:
    """``Mailbox`` interface over predicate scans (the pre-keyed semantics)."""

    def __init__(self, env, key_fields) -> None:
        self.store = PredicateStore(env)
        self.key_fields = key_fields

    def __len__(self) -> int:
        return len(self.store.items)

    def _matcher(self, keys, sender):
        def match(message) -> bool:
            fields = self.key_fields[message.kind]
            payload = message.payload
            key = (payload[fields] if isinstance(fields, str)
                   else tuple(payload[field] for field in fields))
            return ((message.kind, key) in keys
                    and (sender is None or message.sender == sender))
        return match

    def put(self, message) -> None:
        self.store.put(message)

    def take(self, keys, sender=None):
        return self.store.try_get(self._matcher(keys, sender))

    def wait(self, keys, sender=None) -> Event:
        return self.store.get(self._matcher(keys, sender))

    def cancel(self, event) -> None:
        """The former ``ProtocolContext._withdraw_getter``."""
        if event.triggered:
            self.store.put(event.value)
            return
        self.store.getters = deque(
            (getter, predicate) for getter, predicate in self.store.getters
            if getter is not event)

    def discard_below(self, ordinal) -> None:
        """The former ``FireLedgerWorker._purge_stale`` / ``purge_inbox``."""
        def is_stale(message) -> bool:
            payload = message.payload
            tag = payload.get("tag")
            if isinstance(tag, int):
                return tag < ordinal
            if isinstance(tag, tuple) and len(tag) == 2 and isinstance(tag[1], int):
                return tag[1] < ordinal
            round_number = payload.get("round")
            return isinstance(round_number, int) and round_number < ordinal

        self.store.items = deque(
            item for item in self.store.items if not is_stale(item))
