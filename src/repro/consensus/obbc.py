"""Optimistic Binary Byzantine Consensus (OBBC_v), Algorithm 4 of the paper.

``propose`` broadcasts the node's vote in a single message (optionally carrying
piggybacked data — this is how FireLedger ships the next block's header with
the current round's vote, Section 5.1).  If the first ``n - f`` votes received
are all the favoured value, the decision completes in that single communication
step (OBBC-Fast-Termination).  Otherwise the node requests ``evidence`` for the
favoured value from its peers and runs the fallback
:class:`~repro.consensus.bbc.BinaryConsensus` with an estimate adjusted by the
evidence it saw (OBBC-Validity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.consensus import bbc
from repro.consensus.bbc import BinaryConsensus
from repro.core.context import ProtocolContext
from repro.ledger.block import SIGNED_HEADER_SIZE_BYTES
from repro.net.message import HEAD, Control, Message, Record

OBBC_VOTE = "OBBC_VOTE"
OBBC_EV_REQ = "OBBC_EV_REQ"
OBBC_EV_RESP = "OBBC_EV_RESP"


class Vote(Record):
    """``OBBC_VOTE``: a node's bit for round ``tag``, 112 bytes plus the
    ``piggyback`` record riding on it (the next header, Section 5.1)."""

    __slots__ = ()
    KINDS = (OBBC_VOTE,)
    FIELDS = (*HEAD, "value", "piggyback")

    @classmethod
    def of(cls, tag: int, value: int, piggyback: Optional[Record] = None):
        size = 112 if piggyback is None else 112 + piggyback.size_bytes
        return tuple.__new__(cls, (OBBC_VOTE, (OBBC_VOTE, tag), tag, size,
                                   value, piggyback))


class EvidenceRequest(Control):
    """``OBBC_EV_REQ``: a node falling back asks its peers for evidence for
    round ``round``; served on arrival, never filed."""

    __slots__ = ()
    KINDS = (OBBC_EV_REQ,)
    SIZE = 100


class Evidence(Record):
    """``OBBC_EV_RESP``: a peer's ``evidence`` for round ``tag``'s favoured
    value, or ``None``: 128 bytes, plus a signed header."""

    __slots__ = ()
    KINDS = (OBBC_EV_RESP,)
    FIELDS = (*HEAD, "evidence")

    @classmethod
    def of(cls, tag: int, evidence: Any):
        size = 128 if evidence is None else 128 + SIGNED_HEADER_SIZE_BYTES
        return tuple.__new__(cls, (OBBC_EV_RESP, (OBBC_EV_RESP, tag), tag,
                                   size, evidence))


#: What an OBBC instance waits for, its fallback's records included.
INBOX = (Vote, Evidence, *bbc.INBOX)


@dataclass
class OBBCResult:
    """Outcome of one OBBC invocation."""

    decision: int
    fast_path: bool
    #: The fast path's unanimous quorum, bit ``i`` for node ``i`` (else 0).
    voters: int = 0


class OptimisticBinaryConsensus:
    """One OBBC instance, keyed by a ``tag``: the round (the channel names
    the worker)."""

    def __init__(self, context: ProtocolContext, f: int, tag: Any,
                 collect_timeout: float, coordinator_base: int = 0,
                 evidence_validator: Optional[Callable[[Any], bool]] = None) -> None:
        self.context = context
        self.f = f
        self.tag = tag
        self.coordinator_base = coordinator_base
        self.evidence_validator = evidence_validator or (lambda evidence: evidence is not None)
        self.collect_timeout = collect_timeout
        self.favoured_value = 1

    # -------------------------------------------------------------- messaging
    def _collect(self, kind: str, count: int):
        """Collect this instance's ``kind`` messages from ``count`` distinct
        senders: drain what is buffered, then wait (at most
        ``collect_timeout``) for one more, until the count or a timeout."""
        context = self.context
        received: dict[int, Message] = {}
        while True:
            yield from context.drain_messages(kind, self.tag, received, count)
            if len(received) >= count:
                break
            message = yield from context.wait_message(
                kind, self.tag, timeout=self.collect_timeout)
            if message is None:
                break
            received.setdefault(message.sender, message)
        return received

    # ------------------------------------------------------------------- run
    def propose(self, value: int, evidence: Any = None,
                piggyback: Optional[Record] = None):
        """Run OBBC; a process generator, drive it with ``yield from``.

        Returns an :class:`OBBCResult`.  ``result.fast_path`` is True when
        the first ``n - f`` votes collected were unanimously ``value`` — the
        single-communication-step decision, whose unanimous vote set doubles
        as a termination certificate for peers that fell back (its voters are
        returned in ``voters`` for the caller to serve on demand).  Otherwise the
        instance requests evidence from its peers, adjusts its estimate
        toward the favoured value if any valid evidence arrives, and decides
        through the full :class:`~repro.consensus.bbc.BinaryConsensus`
        (``fast_path=False``).

        Each vote/evidence collection step waits at most ``collect_timeout``
        simulated seconds per message; a timeout abandons the collection loop
        with however many responses arrived (fewer than ``n - f`` forces the
        fallback) rather than blocking a crashed peer's slot forever.

        ``evidence`` is this node's evidence for the favoured value (the
        proposer's signed message, in WRB's usage); it must be ``None`` when
        ``value`` is not the favoured value (assertions OB2/OB3), and valid
        evidence is mandatory when proposing the favoured value.
        """
        if value not in (0, 1):
            raise ValueError("OBBC values must be 0 or 1")
        if value == self.favoured_value and not self.evidence_validator(evidence):
            raise ValueError("favoured-value proposals require valid evidence")
        if value != self.favoured_value and evidence is not None:
            raise ValueError("non-favoured proposals must not carry evidence")

        self.context.broadcast(Vote.of(self.tag, value, piggyback),
                               include_self=True)

        # --- fast path: collect n - f votes -------------------------------
        quorum = self.context.n_nodes - self.f
        ballots = yield from self._collect(OBBC_VOTE, quorum)
        if len(ballots) >= quorum and {message.payload.value for message
                                       in ballots.values()} == {value}:
            # Fast decision.  The unanimous vote set doubles as a certificate
            # that lets any peer that later falls back to the full BBC
            # terminate without our continued participation (the role of
            # lines OB26-OB27 in Algorithm 4); the caller serves it on demand
            # from the voter bitmask, ``1 << sender`` summed over the ballots.
            return OBBCResult(decision=value, fast_path=True,
                              voters=sum(map((1).__lshift__, ballots)))

        # --- evidence exchange (lines OB11-OB18) ---------------------------
        self.context.broadcast(EvidenceRequest.of(OBBC_EV_REQ, self.tag))
        # This node's own evidence is the first of the n - f.
        responses = yield from self._collect(OBBC_EV_RESP, quorum - 1)
        evidences = [evidence] + [message.payload.evidence
                                  for message in responses.values()]

        new_value = value
        if any(self.evidence_validator(candidate) for candidate in evidences
               if candidate is not None):
            # Only the favoured value can have valid evidence (note at OB17).
            new_value = self.favoured_value

        fallback = BinaryConsensus(
            self.context, self.f, tag=("bbc", self.tag),
            coordinator_base=self.coordinator_base)
        decision = yield from fallback.propose(new_value)
        return OBBCResult(decision=decision, fast_path=False)
