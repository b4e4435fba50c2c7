"""Weak Reliable Broadcast (WRB), Algorithm 1 of the paper.

WRB is FireLedger's dissemination primitive: nodes agree on *whether* a
message from the round's proposer is delivered (and on the sender identity),
but not necessarily on having received it directly — a node that missed the
message pulls it from a peer that voted for delivery.  The vote is a single
bit decided through :class:`~repro.consensus.obbc.OptimisticBinaryConsensus`,
so in the favourable case the whole delivery costs one all-to-all step of
single-bit messages (plus the proposer's original broadcast).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.consensus import obbc
from repro.consensus.obbc import OBBCResult, OptimisticBinaryConsensus
from repro.core.context import ProtocolContext
from repro.core.timers import AdaptiveTimer
from repro.ledger.block import SIGNED_HEADER_SIZE_BYTES
from repro.net.message import HEAD, Control, Record

WRB_HEADER = "HEADER"
WRB_PULL_REQ = "WRB_REQ"
WRB_PULL_RESP = "WRB_RESP"


class Header(Record):
    """``HEADER`` / ``WRB_RESP``: round ``round``'s message from its
    proposer, filed per round — pushed by the proposer (or riding on its
    vote) at a signed header's size, or answering a pull, 128 bytes more."""

    __slots__ = ()
    KINDS = (WRB_HEADER, WRB_PULL_RESP)
    FIELDS = (*HEAD, "payload")
    SIZES = {WRB_HEADER: SIGNED_HEADER_SIZE_BYTES,
             WRB_PULL_RESP: 128 + SIGNED_HEADER_SIZE_BYTES}

    @classmethod
    def of(cls, kind: str, round_number: int, payload: Any) -> "Header":
        return tuple.__new__(cls, (kind, (kind, round_number), round_number,
                                   cls.SIZES[kind], payload))


class PullRequest(Control):
    """``WRB_REQ``: a node that must deliver round ``round``'s message but
    never received it asks its peers for a copy; served on arrival, never
    filed."""

    __slots__ = ()
    KINDS = (WRB_PULL_REQ,)


#: What a WRB endpoint waits for, its delivery vote's records included.
INBOX = (Header, *obbc.INBOX)


@dataclass
class WRBDelivery:
    """Result of one WRB-deliver invocation."""

    round_number: int
    proposer: int
    payload: Any                  # the delivered (header, signature), or None
    obbc: OBBCResult

    @property
    def delivered(self) -> bool:
        """Whether a non-nil message was delivered."""
        return self.payload is not None


class WeakReliableBroadcast:
    """One worker's WRB endpoint.

    Parameters
    ----------
    timer:
        The worker's :class:`~repro.core.timers.AdaptiveTimer`; it bounds the
        wait for the header and, per message, the OBBC vote collection.
    payload_validator:
        Synchronous check ``(round, proposer, payload) -> bool`` verifying the
        proposer's signature over the payload; also used to validate evidence
        during the OBBC fallback and pulled copies.
    acceptance_check:
        Optional *generator* ``(payload, deadline) -> bool`` run before voting
        for delivery; FireLedger uses it to wait for the block body referenced
        by the header (a node votes against a header whose body it has not
        received, Section 6.1.1).
    """

    def __init__(self, context: ProtocolContext, f: int, timer: AdaptiveTimer,
                 payload_validator: Callable[[int, int, Any], bool],
                 acceptance_check: Optional[Callable[[Any, float], Any]] = None) -> None:
        self.context = context
        self.f = f
        self.timer = timer
        self.payload_validator = payload_validator
        self.acceptance_check = acceptance_check

    # ------------------------------------------------------------------ push
    def broadcast(self, round_number: int, payload: Any) -> None:
        """WRB-broadcast: push the payload to every node (Algorithm 1, line 3)."""
        self.context.broadcast(Header.of(WRB_HEADER, round_number, payload),
                               include_self=True)

    # --------------------------------------------------------------- deliver
    def deliver(self, round_number: int, proposer: int,
                piggyback_provider: Optional[Callable[[Any], Any]] = None,
                skip_wait: bool = False):
        """WRB-deliver (process generator); returns a :class:`WRBDelivery`.

        ``piggyback_provider`` is invoked with the delivered payload right
        before the OBBC vote is broadcast and returns the record (or
        ``None``) to piggyback on that vote — FireLedger uses it to ship the
        next round's :class:`Header` (Section 5.1).  ``skip_wait`` implements
        the benign failure detector: vote against delivery immediately
        instead of waiting for a suspected proposer.
        """
        payload = None
        wait_started = self.context.now
        if not skip_wait:
            deadline = self.context.now + self.timer.current
            while payload is None and self.context.now < deadline:
                remaining = deadline - self.context.now
                message = yield from self.context.wait_message(
                    WRB_HEADER, round_number, sender=proposer, timeout=remaining)
                if message is None:
                    break
                candidate = message.payload.payload
                if not self.payload_validator(round_number, proposer, candidate):
                    continue
                if self.acceptance_check is not None:
                    accepted = yield from self.acceptance_check(candidate, deadline)
                    if not accepted:
                        continue
                payload = candidate

        vote = 1 if payload is not None else 0
        evidence = payload if payload is not None else None
        piggyback = (None if piggyback_provider is None
                     else piggyback_provider(payload))

        instance = OptimisticBinaryConsensus(
            self.context, self.f, tag=round_number,
            coordinator_base=proposer + 1,
            evidence_validator=lambda ev: (
                ev is not None and self.payload_validator(round_number, proposer, ev)),
            collect_timeout=self.timer.current)
        result = yield from instance.propose(vote, evidence=evidence,
                                             piggyback=piggyback)

        if result.decision == 0:
            self.timer.record_failure()
            return WRBDelivery(round_number, proposer, None, result)

        if payload is not None:
            self.timer.record_success(self.context.now - wait_started)
            return WRBDelivery(round_number, proposer, payload, result)

        # Decision was "deliver" but we never received the message: pull it
        # from a node that voted for delivery (Algorithm 1, lines 22-24).
        payload = yield from self._pull(round_number, proposer)
        self.timer.record_failure()
        return WRBDelivery(round_number, proposer, payload, result)

    # --------------------------------------------------------------- helpers
    def _pull(self, round_number: int, proposer: int):
        """Pull phase: request the missed payload until a valid copy arrives."""
        attempt = 0
        while True:
            attempt += 1
            self.context.broadcast(PullRequest.of(WRB_PULL_REQ, round_number))
            message = yield from self.context.wait_message(
                WRB_PULL_RESP, round_number, timeout=self.timer.current * attempt)
            if message is None:
                continue
            candidate = message.payload.payload
            if self.payload_validator(round_number, proposer, candidate):
                return candidate
