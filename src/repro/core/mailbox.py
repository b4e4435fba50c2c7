"""Keyed protocol mailbox: O(1) message matching, stale rounds dropped whole.

Every quorum step waits for ``n - f`` of ``n`` messages, so ``f`` valid
stragglers arrive after every step.  The mailbox files each message under
``(kind, key)`` on arrival — no predicate ever runs over what is buffered —
and drops the buckets of finished rounds when the protocol says so.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Mapping, Optional


def round_of(instance: Any) -> Optional[int]:
    """Round ordinal of an instance: an ``int`` is its own, a ``(label, int)``
    pair (BBC's ``("bbc", round)``) orders by the ``int``; else ``None``."""
    if type(instance) is int:
        return instance
    if type(instance) is tuple and len(instance) == 2 and type(instance[1]) is int:
        return instance[1]
    return None


class Mailbox:
    """A protocol context's inbox, bucketed by ``(kind, key)``.

    ``key_fields`` (each protocol module's ``KEY_FIELDS``) maps a kind to the
    payload field holding its instance — OBBC/BBC ``tag``, WRB ``round``,
    BFT-SMaRt ``seq``, HotStuff ``view`` — or to ``(instance field, step
    field)`` where one instance runs several steps of a kind (BBC ``phase``).
    ``putter(kind)`` is the router entry point for one kind (``put`` takes
    any declared kind).  ``take`` serves the oldest message of one bucket,
    or of two (BBC waits for "this step's message *or* a ``DECIDED``,
    whichever arrived first": bucket heads are compared by an arrival
    counter).  A ``sender`` filter leaves other senders' messages in the
    bucket.  A context has one waiting process, hence one waiter slot, which
    ``expect`` fills with a hand-off (a :meth:`~repro.sim.events.Wait.offer`).

    ``discard_below(r)`` drops every buffered instance whose round is under
    ``r``; protocols call it whenever they advance.  The watermark is *not*
    remembered — a straggler arriving under it is filed and goes with the
    next call.  FireLedger's recovery can rewind the round while peers that
    recovered earlier already send for the re-opened rounds: the call ending
    the recovery carries the rewound round and must find that traffic.
    """

    __slots__ = ("_key_fields", "_buckets", "_rounds", "_arrivals", "_waiter")

    def __init__(self, key_fields: Mapping[str, Any]) -> None:
        self._key_fields = key_fields
        #: (kind, key) -> deque[(arrival, message)], oldest first.
        self._buckets: dict[tuple, deque] = {}
        #: round ordinal -> the bucket keys filed under it.
        self._rounds: dict[int, list[tuple]] = {}
        self._arrivals = 0
        #: (hand-off, bucket keys, sender filter) of the blocked wait, if any.
        self._waiter: Optional[tuple] = None

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def putter(self, kind: str) -> Callable[[Any], None]:
        """The router entry point for ``kind``: a ``put`` with the kind's key
        field(s) resolved here, once, instead of per message.  It files a
        message under ``(kind, key)``, or hands it to the blocked wait it
        satisfies."""
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
        """File ``message`` through its kind's :meth:`putter` (the cold path:
        a re-filed race, a message a handler inspected first).

        A message of an undeclared kind is dropped: nothing can wait for it.
        """
        if message.kind in self._key_fields:
            self.putter(message.kind)(message)

    def take(self, keys: tuple, sender: Optional[int] = None):
        """Pop the oldest buffered message under any of ``keys``, or ``None``."""
        if sender is None:
            # Any sender (every quorum collection): the oldest bucket head.
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

    def expect(self, keys: tuple, sender: Optional[int],
               offer: Callable[[Any], None]) -> None:
        """Hand the next message filed under any of ``keys`` (from
        ``sender``, if given) to ``offer`` instead of a bucket."""
        if self._waiter is not None:
            raise RuntimeError("a mailbox serves one waiting process at a time")
        self._waiter = (offer, keys, sender)

    def withdraw(self, late=None) -> None:
        """Clear the waiter slot; re-file ``late``, a message handed to an
        already decided wait, as the newest arrival."""
        self._waiter = None
        if late is not None:
            self.put(late)

    def discard_below(self, ordinal: int) -> None:
        """Drop every buffered instance whose round is under ``ordinal``."""
        for stale in [r for r in self._rounds if r < ordinal]:
            for bucket_key in self._rounds.pop(stale):
                del self._buckets[bucket_key]
