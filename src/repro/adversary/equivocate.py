"""Equivocating-proposer adversaries (the paper's Section 7.4.2 attack).

:class:`EquivocatingWorker` is the FireLedger worker that, whenever it is
its turn to propose, signs **two** conflicting headers for the round and
sends one to each half of a split of the cluster — the strongest attack
against the OBBC fast path, because both halves vote for different blocks
and the divergence surfaces as panic proofs and recovery waves.

Two strategies choose the split differently:

* :class:`EquivocateStrategy` (``equivocate``) — the paper's attack: the
  split is a uniformly random bisection drawn from the worker's own rng
  (so runs stay deterministic per seed).
* :class:`TargetedEquivocateStrategy` (``targeted-equivocate``) — the
  FairLedger-motivated rational variant: the conflicting header goes
  precisely to the next ``f`` proposers in the rotation, so the nodes
  about to drive the chain are the ones holding the poisoned branch.

On protocols without proposer equivocation semantics (the leader-driven
baselines) both degrade to the silent fail-stop under-approximation, as
the per-baseline ``silent`` flags did before the adversary layer existed.
"""

from __future__ import annotations

from repro.adversary.base import AdversaryStrategy, register
from repro.core.fireledger import FireLedgerWorker, SignedHeader
from repro.core.wrb import WRB_HEADER, Header
from repro.ledger.block import header_for_batch


class EquivocatingWorker(FireLedgerWorker):
    """A FireLedger worker that proposes conflicting headers.

    Whenever it is this worker's turn to propose (explicitly in full mode
    or via the piggyback path), it creates *two* validly signed headers
    for the round — the primary and an alternative built from the next
    pipelined body — and sends the primary to ``group_a``, the
    alternative to everyone else.  Honest receivers each see one
    self-consistent proposal; the divergence only becomes visible when
    the halves compare chains, which is exactly the panic/recovery path
    under test.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.group_a = self._choose_split()
        self.equivocations = 0

    def _choose_split(self) -> frozenset[int]:
        """Bisect the cluster uniformly at random (the paper's attack); the
        half that gets the primary header."""
        members = list(range(self.config.n_nodes))
        self.rng.shuffle(members)
        return frozenset(members[:len(members) // 2])

    def _make_conflicting_header(self, round_number: int,
                                 previous_digest: str) -> SignedHeader:
        """A second, validly signed header for the same round."""
        self._prepare_body()
        alternative_root = self._ready_bodies[-1]
        batch = self._bodies[alternative_root]
        header = header_for_batch(round_number, self.node_id, previous_digest,
                                  batch, worker_id=self.worker_id,
                                  created_at=self.env.now)
        return SignedHeader((header, self.keys.sign(header.digest)))

    def _equivocate(self, round_number: int, primary: SignedHeader,
                    previous_digest: str) -> None:
        secondary = self._make_conflicting_header(round_number, previous_digest)
        self.equivocations += 1
        for receiver in range(self.config.n_nodes):
            if receiver == self.node_id:
                payload = primary
            else:
                payload = primary if receiver in self.group_a else secondary
            self.context.send(receiver,
                              Header.of(WRB_HEADER, round_number, payload))

    def _run_round(self):
        original_broadcast = self.wrb.broadcast

        def _byzantine_broadcast(round_number, payload):
            self._equivocate(round_number, payload,
                             payload.header.previous_digest)

        self.wrb.broadcast = _byzantine_broadcast
        try:
            result = yield from super()._run_round()
        finally:
            self.wrb.broadcast = original_broadcast
        return result

    def _piggyback_provider(self, current_round: int):
        def _provide(delivered_payload):
            if delivered_payload is None:
                return None
            previous = delivered_payload.header.digest
            primary = self._make_header(current_round + 1, previous)
            self._equivocate(current_round + 1, primary, previous)
            return None
        return _provide


class TargetedEquivocatingWorker(EquivocatingWorker):
    """Equivocator whose poisoned half is the next ``f`` proposers."""

    def _choose_split(self) -> frozenset[int]:
        # Deterministic, rng-free: aim the conflicting header at the f
        # nodes that will propose right after this one in the rotation.
        schedule = self.schedule
        index = schedule.index(self.node_id)
        targets = {schedule[(index + 1 + step) % len(schedule)]
                   for step in range(max(self.config.f, 1))}
        return frozenset(node for node in schedule
                         if node not in targets or node == self.node_id)


class _EquivocationFamily(AdversaryStrategy):
    """Shared machinery: substitute an equivocator class on FireLedger."""

    worker_class = EquivocatingWorker

    def __init__(self, nodes=frozenset(), windows=None) -> None:
        super().__init__(nodes, windows)
        self._workers: list[EquivocatingWorker] = []

    def worker_factory(self):
        if not self.nodes:
            return None
        byzantine = self.nodes
        worker_class = self.worker_class
        workers = self._workers

        def _factory(env, network, node_id, worker_id, config, keystore,
                     **kwargs):
            if node_id in byzantine:
                worker = worker_class(env, network, node_id, worker_id,
                                      config, keystore, **kwargs)
                workers.append(worker)
                return worker
            return FireLedgerWorker(env, network, node_id, worker_id, config,
                                    keystore, **kwargs)

        return _factory

    def is_silent(self, node_id: int, protocol_name: str) -> bool:
        # Leader-driven baselines have no proposer-equivocation seam; the
        # closest under-approximation (and the pre-refactor behaviour) is
        # the fail-stop silent replica.
        return protocol_name != "fireledger" and node_id in self.nodes

    def counters(self) -> dict[str, float]:
        return {"adversary_equivocations":
                sum(worker.equivocations for worker in self._workers)}


@register
class EquivocateStrategy(_EquivocationFamily):
    """The paper's random-bisection equivocating proposer."""

    name = "equivocate"
    worker_class = EquivocatingWorker


@register
class TargetedEquivocateStrategy(_EquivocationFamily):
    """Equivocation aimed at the next ``f`` proposers in the rotation."""

    name = "targeted-equivocate"
    worker_class = TargetedEquivocatingWorker
