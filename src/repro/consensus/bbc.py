"""Fallback Binary Byzantine Consensus (BBC).

This is the "regular BBC" that OBBC falls back to when the single-step fast
path fails (Algorithm 4, line OB19).  The structure is a classic
coordinator-based phase protocol in the partially synchronous model
(DLS / PBFT-family):

* **EST step** — every node broadcasts its current estimate and collects
  ``n - f`` estimates; if one value clearly dominates (``>= n - 2f``
  occurrences) the node adopts it.
* **COORD step** — the phase coordinator (rotating, so within ``f + 1`` phases
  a correct coordinator is reached) broadcasts its estimate; nodes that hear
  it in time adopt it.
* **AUX step** — every node broadcasts the value it ended the phase with and
  collects ``n - f`` of them; a unanimous set decides that value.

A node that decides broadcasts ``BBC_DECIDED``; any node that collects
``f + 1`` matching ``DECIDED`` messages decides as well, which lets laggards
terminate after the deciders have moved on.  With ``f < n/3`` two conflicting
unanimous AUX sets cannot exist in the same phase, and the coordinator step
drives convergence across phases once the network is synchronous.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.core.context import ProtocolContext
from repro.net.message import HEAD, Record

BBC_EST = "BBC_EST"
BBC_COORD = "BBC_COORD"
BBC_AUX = "BBC_AUX"
BBC_DECIDED = "BBC_DECIDED"


class Step(Record):
    """``BBC_EST`` / ``BBC_COORD`` / ``BBC_AUX``: a value at one step of
    ``phase``, filed per ``(tag, phase)`` (``tag`` is ``("bbc", round)``)."""

    __slots__ = ()
    KINDS = (BBC_EST, BBC_COORD, BBC_AUX)
    FIELDS = (*HEAD, "phase", "value")
    SIZE = 112

    @classmethod
    def of(cls, kind: str, tag: tuple, phase: int, value: int) -> "Step":
        return tuple.__new__(cls, (kind, (kind, (tag, phase)), tag[1],
                                   cls.SIZE, phase, value))


class Decided(Record):
    """``BBC_DECIDED``: a decided value, filed per ``tag`` (it ends any phase);
    with a fast-path ``certificate`` (voter -> value) 128 + 16 B per vote."""

    __slots__ = ()
    KINDS = (BBC_DECIDED,)
    FIELDS = (*HEAD, "value", "certificate")

    @classmethod
    def of(cls, tag: tuple, value: int, certificate: Optional[dict] = None):
        size = Step.SIZE if certificate is None else 128 + 16 * len(certificate)
        return tuple.__new__(cls, (BBC_DECIDED, (BBC_DECIDED, tag), tag[1],
                                   size, value, certificate))


#: What a BBC instance waits for.
INBOX = (Step, Decided)


class BinaryConsensus:
    """One invocation of binary consensus; its ``tag`` is ``("bbc", round)``
    (the channel names the worker)."""

    #: Bound on the COORD step's wait; an EST / AUX collection waits four
    #: times as long per message.
    PHASE_TIMEOUT = 0.05
    #: Phases before a (pathological) run adopts its current estimate.
    MAX_PHASES = 64

    def __init__(self, context: ProtocolContext, f: int, tag: object,
                 coordinator_base: int = 0) -> None:
        self.context = context
        self.f = f
        self.tag = tag
        #: Deterministic offset for the rotating coordinator (e.g. the round
        #: number), so every node agrees on who coordinates each phase.
        self.coordinator_base = coordinator_base

    # -------------------------------------------------------------- messaging
    def _step(self, kind: str, phase: int, value: int) -> None:
        self.context.broadcast(Step.of(kind, self.tag, phase, value),
                               include_self=True)

    def _wait_step(self, kind: str, phase: int, timeout: float):
        """Next ``kind`` message of ``phase`` or ``DECIDED``, whichever arrived first."""
        return self.context.wait_message(kind, (self.tag, phase), timeout=timeout,
                                         alt=(BBC_DECIDED, self.tag))

    # ------------------------------------------------------------------- run
    def propose(self, value: int):
        """Run the consensus; returns the decided bit (process generator)."""
        if value not in (0, 1):
            raise ValueError("binary consensus values must be 0 or 1")
        estimate = value
        decided_votes: Counter = Counter()
        n = self.context.n_nodes
        quorum = n - self.f

        for phase in range(self.MAX_PHASES):
            # --- EST step -------------------------------------------------
            self._step(BBC_EST, phase, estimate)
            estimates, decision = yield from self._collect(
                BBC_EST, phase, quorum, decided_votes)
            if decision is not None:
                return decision
            counts = Counter(estimates)
            for candidate, count in counts.items():
                if count >= n - 2 * self.f:
                    estimate = candidate
                    break

            # --- COORD step -----------------------------------------------
            coordinator = (self.coordinator_base + phase) % n
            if coordinator == self.context.node_id:
                self._step(BBC_COORD, phase, estimate)
            coord_value, decision = yield from self._await_coordinator(
                coordinator, phase, decided_votes)
            if decision is not None:
                return decision
            if coord_value is not None:
                estimate = coord_value

            # --- AUX step ---------------------------------------------------
            self._step(BBC_AUX, phase, estimate)
            aux_values, decision = yield from self._collect(
                BBC_AUX, phase, quorum, decided_votes)
            if decision is not None:
                return decision
            aux_counts = Counter(aux_values)
            if len(aux_counts) == 1 and sum(aux_counts.values()) >= quorum:
                decided = next(iter(aux_counts))
                self._announce(decided)
                return decided
            if aux_counts:
                estimate = aux_counts.most_common(1)[0][0]

        # Pathological fall-through: adopt the current estimate so the caller
        # can make progress; in practice MAX_PHASES is never approached.
        self._announce(estimate)
        return estimate

    # --------------------------------------------------------------- helpers
    def _announce(self, value: int) -> None:
        self.context.broadcast(Decided.of(self.tag, value), include_self=True)

    def _check_decided(self, message, decided_votes: Counter) -> Optional[int]:
        if message.kind != BBC_DECIDED:
            return None
        value, certificate = message.payload.value, message.payload.certificate
        if certificate is not None:
            # A certificate is the unanimous vote set behind an OBBC fast
            # decision; it is self-validating (>= n - f identical votes), so a
            # single message suffices to terminate.
            matching = sum(1 for vote in certificate.values() if vote == value)
            if matching >= self.context.n_nodes - self.f:
                self._announce(value)
                return value
        decided_votes[(message.sender, value)] = 1
        tally = Counter()
        for (sender, val) in decided_votes:
            tally[val] += 1
        for val, count in tally.items():
            if count >= self.f + 1:
                self._announce(val)
                return val
        return None

    def _collect(self, kind: str, phase: int, quorum: int, decided_votes: Counter):
        """Collect ``quorum`` values of ``kind`` for ``phase`` (or a decision)."""
        values: list[int] = []
        senders: set[int] = set()
        while len(values) < quorum:
            message = yield from self._wait_step(kind, phase,
                                                 self.PHASE_TIMEOUT * 4)
            if message is None:
                # Timed out: return what we have; the caller tolerates short
                # collections (it only uses them for counting).
                break
            decision = self._check_decided(message, decided_votes)
            if decision is not None:
                return values, decision
            if message.kind != kind:
                continue
            if message.sender in senders:
                continue
            senders.add(message.sender)
            values.append(message.payload.value)
        return values, None

    def _await_coordinator(self, coordinator: int, phase: int, decided_votes: Counter):
        """Wait for the coordinator's value (bounded by the phase timeout)."""
        deadline = self.context.now + self.PHASE_TIMEOUT
        while True:
            remaining = deadline - self.context.now
            if remaining <= 0:
                return None, None
            message = yield from self._wait_step(BBC_COORD, phase, remaining)
            if message is None:
                return None, None
            decision = self._check_decided(message, decided_votes)
            if decision is not None:
                return None, decision
            if message.kind == BBC_COORD and message.sender == coordinator:
                return message.payload.value, None
