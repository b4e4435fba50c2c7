"""The two inboxes the record-keyed mailbox replaced, kept as test oracles.

Both read dict payloads, the wire format before every payload was a record.

:class:`KeyedMailbox` is the mailbox as it was while each protocol module
declared a ``KEY_FIELDS`` table (:data:`KEY_FIELDS` is their union): it
looked a message's instance up in its payload through the kind's key
field(s) and guessed the round to drop it by from the instance's shape
(:func:`round_of`).

:class:`PredicateStore` is the former ``sim.Store``: one FIFO of everything
buffered, matched by running a predicate over it.  :class:`ReferenceMailbox`
puts the :class:`repro.core.mailbox.Mailbox` interface on top of it the way
``ProtocolContext`` and the protocols used it — matcher closures comparing
kind, key field(s) and sender, the getter withdrawal that re-queued a message
racing the cancel, and FireLedger's purge of every message whose ``tag`` /
``round`` is under the current round.  ``tests/test_mailbox.py`` drives all
three with the same operations and compares what they hand out.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.sim.events import Event

#: Kind -> the payload field holding its instance, or ``(instance field,
#: step field)`` where one instance runs several steps of a kind: the tables
#: of ``consensus/bbc.py``, ``consensus/obbc.py``, ``core/wrb.py`` and the
#: two baselines.
KEY_FIELDS = {
    "BBC_EST": ("tag", "phase"), "BBC_COORD": ("tag", "phase"),
    "BBC_AUX": ("tag", "phase"), "BBC_DECIDED": "tag",
    "OBBC_VOTE": "tag", "OBBC_EV_RESP": "tag",
    "HEADER": "round", "WRB_RESP": "round",
    "HS_PROPOSAL": "view", "HS_VOTE": "view",
    "SMART_PROPOSE": "seq", "SMART_WRITE": "seq", "SMART_ACCEPT": "seq",
}


def round_of(instance: Any) -> Optional[int]:
    """Round ordinal of an instance: an ``int`` is its own, a ``(label, int)``
    pair (BBC's ``("bbc", round)``) orders by the ``int``; else ``None``."""
    if type(instance) is int:
        return instance
    if type(instance) is tuple and len(instance) == 2 and type(instance[1]) is int:
        return instance[1]
    return None


class KeyedMailbox:
    """The mailbox of the ``KEY_FIELDS`` tables: ``putter(kind)`` resolved
    the kind's key field(s) once and built each message's bucket key from
    its payload."""

    def __init__(self, key_fields) -> None:
        self._key_fields = key_fields
        self._buckets: dict[tuple, deque] = {}
        self._rounds: dict[int, list[tuple]] = {}
        self._arrivals = 0
        self._waiter: Optional[tuple] = None

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def putter(self, kind: str):
        fields = self._key_fields[kind]
        step = None
        if type(fields) is not str:
            fields, step = fields
        buckets = self._buckets
        mailbox = self

        def put(message) -> None:
            payload = message.payload
            instance = payload[fields]
            bucket_key = (kind, instance if step is None
                          else (instance, payload[step]))
            waiter = mailbox._waiter
            if waiter is not None:
                offer, keys, sender = waiter
                if bucket_key in keys and sender in (None, message.sender):
                    mailbox._waiter = None
                    offer(message)
                    return
            bucket = buckets.get(bucket_key)
            if bucket is None:
                bucket = buckets[bucket_key] = deque()
                ordinal = round_of(instance)
                if ordinal is not None:
                    mailbox._rounds.setdefault(ordinal, []).append(bucket_key)
            mailbox._arrivals += 1
            bucket.append((mailbox._arrivals, message))

        return put

    def put(self, message) -> None:
        if message.kind in self._key_fields:
            self.putter(message.kind)(message)

    def take(self, keys: tuple, sender: Optional[int] = None):
        if sender is None:
            source = None
            for bucket_key in keys:
                bucket = self._buckets.get(bucket_key)
                if bucket and (source is None or bucket[0] < source[0]):
                    source = bucket
            return source.popleft()[1] if source else None
        oldest = None
        for bucket_key in keys:
            for entry in self._buckets.get(bucket_key, ()):
                if entry[1].sender == sender:
                    if oldest is None or entry < oldest:
                        oldest, source = entry, bucket_key
                    break
        if oldest is None:
            return None
        self._buckets[source].remove(oldest)
        return oldest[1]

    def expect(self, keys: tuple, sender: Optional[int], offer) -> None:
        if self._waiter is not None:
            raise RuntimeError("a mailbox serves one waiting process at a time")
        self._waiter = (offer, keys, sender)

    def withdraw(self, late=None) -> None:
        self._waiter = None
        if late is not None:
            self.put(late)

    def discard_below(self, ordinal: int) -> None:
        for stale in [r for r in self._rounds if r < ordinal]:
            for bucket_key in self._rounds.pop(stale):
                del self._buckets[bucket_key]


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
        """The former ``FireLedgerWorker._purge_stale`` / ``purge_inbox``,
        which the baselines' views and sequence numbers obey as rounds."""
        def is_stale(message) -> bool:
            payload = message.payload
            tag = payload.get("tag")
            if isinstance(tag, int):
                return tag < ordinal
            if isinstance(tag, tuple) and len(tag) == 2 and isinstance(tag[1], int):
                return tag[1] < ordinal
            round_number = payload.get("round", payload.get(
                "view", payload.get("seq")))
            return isinstance(round_number, int) and round_number < ordinal

        self.store.items = deque(
            item for item in self.store.items if not is_stale(item))
