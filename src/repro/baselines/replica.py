"""What the leader-driven baseline protocols (HotStuff, BFT-SMaRt) share.

:class:`PooledReplicaMixin` is a replica's common part: constructor state,
the commit step, ``start`` / ``metrics`` (the two hooks the cluster runner
calls on every node), the duck-typed workload surface the clients in
:mod:`repro.workload.clients` drive — a ``submit_transaction`` feeding the
cluster-wide :class:`~repro.ledger.txpool.TxPool` plus delivered-work
counters — and the batch-draining rule for ``fill_blocks=False`` configs.
A replica reports what it does to its own
:class:`~repro.metrics.recorder.MetricsRecorder`, exactly as a FLO node does.
:func:`replica_nodes` builds one cluster of a replica class: the shared
pool and the cost model.
The two replica *loops* (a rotating-leader view loop, a stable-leader
three-phase instance loop) share no control flow and stay in their modules.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.core.context import ProtocolContext
from repro.crypto.cost_model import CryptoCostModel
from repro.crypto.keys import KeyStore
from repro.ledger.delivery import Delivery, DeliveryStream
from repro.ledger.transaction import Transaction
from repro.ledger.txpool import TxPool
from repro.metrics.recorder import (
    EVENT_BLOCK_PROPOSAL,
    EVENT_TENTATIVE_DECISION,
    MetricsRecorder,
    NodeMetrics,
)
from repro.net.message import HEAD, Record
from repro.net.network import Network, discard
from repro.sim import Environment


class Proposal(Record):
    """A leader's batch for one instance (a HotStuff view, a BFT-SMaRt
    sequence number), filed per instance: its transactions plus the
    protocol's ``FRAMING`` bytes.  Each baseline declares its own subclass
    (its kind and framing)."""

    __slots__ = ()
    FIELDS = (*HEAD, "tx_count", "transactions", "proposed_at")
    #: Per-batch framing bytes of the protocol's wire format.
    FRAMING = 0

    @classmethod
    def of(cls, instance: int, tx_count: int, transactions: tuple,
           proposed_at: float, tx_size: int) -> "Proposal":
        kind = cls.KINDS[0]
        return tuple.__new__(cls, (
            kind, (kind, instance), instance,
            tx_count * tx_size + cls.FRAMING, tx_count, transactions,
            proposed_at))


class PooledReplicaMixin:
    """A concrete replica sets :attr:`CHANNEL`, :attr:`INBOX`,
    :attr:`PROPOSAL`, :attr:`TAG` and :attr:`COUNTERS`, proposes through
    :meth:`_propose`, calls :meth:`_commit` from its loop (``run``, or
    whatever :meth:`processes` names) and counts its other signatures and
    its leader timeouts on :attr:`recorder`."""

    #: The protocol's name in the protocol table, which is also the network
    #: channel of its traffic.
    CHANNEL = ""
    #: The record types of every message the protocol sends (all filed).
    INBOX: tuple = ()
    #: The protocol's :class:`Proposal` record.
    PROPOSAL: type = Proposal
    #: Leading element of the protocol's delivery tags.
    TAG = ""
    #: The counters the replica's recorder declares (a zero still shows).
    COUNTERS: tuple = ()
    #: How long a replica waits for the leader (a view, an instance).
    TIMEOUT = 1.0

    def __init__(self, env: Environment, network: Network, node_id: int,
                 f: int, batch_size: int, tx_size: int, cost: CryptoCostModel,
                 pool=None, fill_blocks: bool = True,
                 horizon_rounds: Optional[int] = None) -> None:
        self.env = env
        self.network = network
        self.node_id = node_id
        self.f = f
        self.batch_size = batch_size
        self.tx_size = tx_size
        self.cost = cost
        self.pool = pool
        self.fill_blocks = fill_blocks
        # The context binds the protocol's kinds to its inbox; traffic for
        # anything else is nobody's.
        self.context = ProtocolContext(env, network, node_id, self.CHANNEL,
                                       self.INBOX)
        network.endpoint(node_id).router = discard
        #: One record per commit, keyed by its slot in the total order (the
        #: sequence stands where a FireLedger round does; "worker" is 0).
        self.recorder = MetricsRecorder(
            node_id, horizon_rounds=horizon_rounds, counters=self.COUNTERS)
        #: Delivery seam: one Delivery per commit, in the protocol's total
        #: order.  The recorder subscribes first (the E event lands before
        #: any downstream consumer runs); the cluster runner subscribes the
        #: execution layer.
        self.delivery_stream = DeliveryStream()
        self.delivery_stream.subscribe(self.recorder.on_delivery)
        #: Execution layer, attached by the cluster runner (None otherwise).
        self.executor = None

    def processes(self) -> Sequence:
        """The generator(s) to run as this replica's simulation processes."""
        return (self.run(),)

    def start(self) -> None:
        """Launch the replica's process(es)."""
        for generator in self.processes():
            self.env.process(generator)

    def metrics(self, duration: float) -> NodeMetrics:
        """The recorder's fold plus the shared pool's rejections (end state)."""
        metrics = NodeMetrics.from_recorder(self.recorder, duration)
        if self.pool is not None and self.pool.max_pending is not None:
            # The pool is cluster-wide shared state: every replica reports the
            # same figure, so it averages (not sums) across correct nodes.
            metrics.means["tx_rejected"] = self.pool.rejected
        return metrics

    def _commit(self, sequence: int, tx_count: int, transactions: tuple,
                proposer: int, proposed_at: float) -> None:
        """Record one commit and publish it on the delivery stream."""
        now = self.env.now
        self.recorder.record_event(0, sequence, EVENT_BLOCK_PROPOSAL,
                                   proposed_at, tx_count=tx_count)
        self.recorder.record_event(0, sequence, EVENT_TENTATIVE_DECISION, now)
        self.delivery_stream.deliver(Delivery(
            tag=(self.TAG, sequence, tx_count), transactions=transactions,
            tx_count=tx_count, proposer=proposer, proposed_at=proposed_at,
            time=now, sequence=sequence))

    def submit_transaction(self, transaction: Transaction) -> bool:
        """Client write request, queued on the cluster-wide pending pool.

        Returns False when the pool is at its ``max_pending`` cap, mirroring
        FLO's backpressure so capped scenarios drive all protocols alike.
        """
        return self.pool is None or self.pool.submit(transaction)

    @property
    def delivered_transactions(self) -> int:
        return self.delivery_stream.transactions

    def _next_batch(self) -> "tuple[int, tuple]":
        """``(tx_count, transactions)`` for the next proposal: a full batch
        of synthetic transactions when saturated, otherwise whatever the
        client pool has pending (possibly zero — an empty batch keeps the
        pipeline's cadence observable, exactly like FireLedger's empty
        blocks)."""
        if self.fill_blocks or self.pool is None:
            return self.batch_size, ()
        batch = self.pool.take_batch(self.batch_size, fill_random=False)
        return batch.tx_count, batch.transactions

    def _propose(self, instance: int):
        """Sign the next batch and broadcast it as ``instance``'s proposal
        (process generator)."""
        tx_count, transactions = self._next_batch()
        yield from self.context.use_cpu(
            self.cost.block_sign_time(tx_count, self.tx_size))
        self.recorder.count("signatures")
        self.context.broadcast(
            self.PROPOSAL.of(instance, tx_count, transactions, self.env.now,
                             self.tx_size),
            include_self=True)


def replica_nodes(replica_class: type, env: Environment, network: Network,
                  keystore: KeyStore, config, rng: random.Random,
                  adversary=None) -> list:
    """One ``replica_class`` replica per ``config.n_nodes``.

    The baselines draw no randomness (``rng`` and ``adversary`` are the
    table's uniform signature) and sign through the cost model, not the key
    store.  Every adversary acts on a replica from outside: the runner
    silences the fail-stop ones (the equivocation strategies degrade to
    fail-stop here), and the traffic strategies act on the network.
    """
    cost = CryptoCostModel(config.machine)
    # FireLedger routes a client write to one node's least-loaded worker;
    # the leader-driven baselines model clients submitting to the ordering
    # service as a whole, so every replica feeds one pool and the proposing
    # leader drains up to a batch at a time.
    pool = TxPool(config.tx_size, max_pending=config.pool_max_pending)
    return [
        replica_class(env, network, node_id, config.f, config.batch_size,
                      config.tx_size, cost, pool=pool,
                      fill_blocks=config.fill_blocks,
                      horizon_rounds=config.effective_retention_rounds)
        for node_id in range(config.n_nodes)
    ]
