"""Keyed protocol mailbox: O(1) message matching, stale rounds dropped whole.

Every quorum step waits for ``n - f`` of ``n`` messages, so ``f`` valid
stragglers arrive after every step.  The mailbox files each message under
the ``(kind, instance)`` bucket its record declares on arrival — no predicate
ever runs over what is buffered — and drops the buckets of finished rounds
when the protocol says so.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.net.message import Message


class Mailbox:
    """A protocol context's inbox, bucketed by ``(kind, instance)``.

    A message is filed under the ``bucket`` its record carries — OBBC by
    round, BBC by ``(("bbc", round), phase)`` (``DECIDED`` per instance: it
    ends whatever phase the receiver is in), WRB by round, a baseline by its
    view or sequence number — and indexed by the record's ``round``.
    ``take`` serves the oldest message of one bucket, or of two (BBC waits
    for "this step's message *or* a ``DECIDED``, whichever arrived first":
    bucket heads are compared by an arrival counter).  A ``sender`` filter
    leaves other senders' messages in the bucket.  A context has one waiting
    process, hence one waiter slot, which ``expect`` fills with a hand-off (a
    :meth:`~repro.sim.events.Wait.offer`).

    ``discard_below(r)`` drops every buffered instance whose round is under
    ``r``; protocols call it whenever they advance.  The watermark is *not*
    remembered — a straggler arriving under it is filed and goes with the
    next call.  FireLedger's recovery can rewind the round while peers that
    recovered earlier already send for the re-opened rounds: the call ending
    the recovery carries the rewound round and must find that traffic.
    """

    __slots__ = ("_buckets", "_rounds", "_arrivals", "_waiter")

    def __init__(self) -> None:
        #: (kind, instance) -> deque[(arrival, message)], oldest first.
        self._buckets: dict[tuple, deque] = {}
        #: round ordinal -> the bucket keys filed under it.
        self._rounds: dict[int, list[tuple]] = {}
        self._arrivals = 0
        #: (hand-off, bucket keys, sender filter) of the blocked wait, if any.
        self._waiter: Optional[tuple] = None

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def put(self, message, rider: bool = True) -> None:
        """File ``message`` under its record's bucket, or hand it to the
        blocked wait it satisfies (what the context binds its kinds to).

        A record riding on the message's own (a vote's piggybacked header)
        is filed first, as a message of its own from the same sender on the
        same channel; ``rider=False`` skips that for a message whose rider
        was filed when it arrived (:meth:`withdraw`)."""
        payload = message.payload
        piggyback = payload.piggyback
        if piggyback is not None and rider:
            self.put(Message(message.sender, message.channel, piggyback.kind,
                             piggyback, sent_at=message.sent_at))
        bucket_key = payload.bucket
        waiter = self._waiter
        if waiter is not None:
            offer, keys, sender = waiter
            if bucket_key in keys and sender in (None, message.sender):
                self._waiter = None
                offer(message)
                return
        bucket = self._buckets.get(bucket_key)
        if bucket is None:
            bucket = self._buckets[bucket_key] = deque()
            ordinal = payload.round
            if ordinal is not None:
                self._rounds.setdefault(ordinal, []).append(bucket_key)
        self._arrivals += 1
        bucket.append((self._arrivals, message))

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
            self.put(late, rider=False)

    def discard_below(self, ordinal: int) -> None:
        """Drop every buffered instance whose round is under ``ordinal``."""
        for stale in [r for r in self._rounds if r < ordinal]:
            for bucket_key in self._rounds.pop(stale):
                del self._buckets[bucket_key]
