"""The dict certificate a fast-decided round kept before it became an int,
kept as a test oracle.

Until the fast path's quorum became a voter bitmask, ``OBBCResult`` carried
the unanimous vote set as a ``{sender: vote}`` dict (``votes_seen``), and a
worker kept ``{"value": ..., "votes": ...}`` for every fast-decided round,
adding a ``served_to`` set to that dict on its first serve — so what was
served went wherever the certificate went.  At n = 64 the vote dict alone
held 43 entries (2 264 B) for the whole run.

:func:`use_reference` swaps that path back in: ``propose`` returns the vote
dict in ``voters``, ``FastCertificate`` builds the dict certificate and
``_serve_fast_certificate`` serves it.  The bitmask claims to be
unobservable: same messages, same bytes, same rows, and the same
certificates served.
"""

from __future__ import annotations

from typing import Any

from repro.consensus.bbc import BinaryConsensus, Decided, Step
from repro.consensus.obbc import (
    OBBC_EV_REQ,
    OBBC_EV_RESP,
    OBBC_VOTE,
    EvidenceRequest,
    OBBCResult,
    OptimisticBinaryConsensus,
    Vote,
)
from repro.core import fireledger
from repro.net.message import Message


def reference_propose(self, value: int, evidence: Any = None,
                      piggyback: Any = None):
    """``OptimisticBinaryConsensus.propose`` when it returned the vote dict."""
    if value not in (0, 1):
        raise ValueError("OBBC values must be 0 or 1")
    if value == self.favoured_value and not self.evidence_validator(evidence):
        raise ValueError("favoured-value proposals require valid evidence")
    if value != self.favoured_value and evidence is not None:
        raise ValueError("non-favoured proposals must not carry evidence")

    self.context.broadcast(Vote.of(self.tag, value, piggyback),
                           include_self=True)

    quorum = self.context.n_nodes - self.f
    ballots = yield from self._collect(OBBC_VOTE, quorum)
    votes = {sender: message.payload.value
             for sender, message in ballots.items()}
    if len(votes) >= quorum and set(votes.values()) == {value}:
        return OBBCResult(decision=value, fast_path=True, voters=votes)

    self.context.broadcast(EvidenceRequest.of(OBBC_EV_REQ, self.tag))
    responses = yield from self._collect(OBBC_EV_RESP, quorum - 1)
    evidences = [evidence] + [message.payload.evidence
                              for message in responses.values()]

    new_value = value
    if any(self.evidence_validator(candidate) for candidate in evidences
           if candidate is not None):
        new_value = self.favoured_value

    fallback = BinaryConsensus(
        self.context, self.f, tag=("bbc", self.tag),
        coordinator_base=self.coordinator_base)
    decision = yield from fallback.propose(new_value)
    return OBBCResult(decision=decision, fast_path=False, voters=votes)


def reference_certificate(value: int, votes: dict) -> dict:
    """The per-round certificate the worker stored: value and vote dict."""
    return {"value": value, "votes": votes}


def reference_serve_fast_certificate(self, message: Message) -> None:
    """``FireLedgerWorker._serve_fast_certificate`` on the dict certificate."""
    if type(message.payload) not in (Step, EvidenceRequest):
        return
    round_number = message.payload.round
    certificate = self._fast_certs.get(round_number)
    if certificate is None:
        return
    served = certificate.setdefault("served_to", set())
    if message.sender in served:
        return
    served.add(message.sender)
    self.context.send(message.sender, Decided.of(
        ("bbc", round_number), certificate["value"], certificate["votes"]))


def use_reference(monkeypatch) -> None:
    """Swap the dict certificate back in for the rest of ``monkeypatch``'s
    scope."""
    monkeypatch.setattr(OptimisticBinaryConsensus, "propose", reference_propose)
    monkeypatch.setattr(fireledger, "FastCertificate", reference_certificate)
    monkeypatch.setattr(fireledger.FireLedgerWorker, "_serve_fast_certificate",
                        reference_serve_fast_certificate)
