"""FLO — the FireLedger Orchestrator (Section 6.2).

A FLO node runs ``workers`` independent FireLedger instances and uses them as
a blockchain-based ordering service.  Write requests go to the least-loaded
worker; decided blocks are released to clients by merging the workers' chains
in a fixed round-robin order, which preserves a single total order across all
workers at the price of head-of-line blocking when one worker lags (visible in
the latency figures as ``workers`` grows).

:func:`flo_nodes` is the ``fireledger`` entry of the protocol table
(:mod:`repro.protocols`).
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.core.config import FireLedgerConfig
from repro.core.fireledger import COUNTERS, FireLedgerWorker
from repro.crypto.keys import KeyStore
from repro.ledger.block import Block
from repro.ledger.transaction import Transaction
from repro.metrics.recorder import MetricsRecorder, NodeMetrics
from repro.net.network import Network, discard
from repro.ledger.delivery import Delivery, DeliveryStream, RoundRobinMerge
from repro.sim import Environment


class FLONode:
    """One node of a FLO cluster: client manager + ``workers`` FireLedger instances."""

    def __init__(self, env: Environment, network: Network, node_id: int,
                 config: FireLedgerConfig, keystore: KeyStore,
                 rng: Optional[random.Random] = None,
                 worker_factory: Optional[Callable[..., FireLedgerWorker]] = None) -> None:
        self.env = env
        self.network = network
        self.node_id = node_id
        self.config = config
        self.keystore = keystore
        self.rng = rng or random.Random(node_id * 7919)
        self.recorder = MetricsRecorder(
            node_id, horizon_rounds=config.effective_retention_rounds,
            counters=COUNTERS)
        factory = worker_factory or FireLedgerWorker

        self.workers = [
            factory(env, network, node_id, worker_id, config, keystore,
                    recorder=self.recorder,
                    rng=random.Random(self.rng.randrange(2 ** 62)),
                    on_definite=self._on_definite)
            for worker_id in range(config.workers)
        ]
        for worker in self.workers:
            # The round-robin merge gates pruning: a chain may drop a round
            # only after FLO has released it to clients (head-of-line blocked
            # rounds stay live even past the retention window).
            worker.chain.released_through = -1
        # The workers bound their channels' kinds as they were built; traffic
        # for anything else is nobody's.
        network.endpoint(node_id).router = discard

        # Definite blocks are released to clients in worker round-robin order.
        self._merge = RoundRobinMerge(config.workers, self._release)
        #: The node's delivery seam: one Delivery per released block, in the
        #: round-robin total order.  The cluster runner subscribes the
        #: execution layer here; the recorder subscribes first so the E event
        #: lands before any downstream consumer runs.
        self.delivery_stream = DeliveryStream()
        self.delivery_stream.subscribe(self.recorder.on_delivery)
        #: Execution layer, attached by the cluster runner (None when running
        #: standalone or with execution disabled).
        self.executor = None

    # ------------------------------------------------------------------ wiring
    def start(self) -> None:
        """Launch every worker's main process."""
        for worker in self.workers:
            self.env.process(worker.run())

    # ----------------------------------------------------------------- client
    def submit_transaction(self, transaction: Transaction) -> bool:
        """Client write request: routed to the least-loaded worker.

        Returns False when that worker's pool is at its ``pool_max_pending``
        cap — backpressure the client observes (and the pool counts in
        ``txpool.rejected``).
        """
        workers = self.workers
        target = (workers[0] if len(workers) == 1 else
                  min(workers, key=lambda worker: worker.txpool.pending))
        return target.txpool.submit(transaction)

    # --------------------------------------------------------------- delivery
    def _on_definite(self, worker_id: int, block: Block) -> None:
        self._merge.offer(worker_id, block)

    def _release(self, worker_id: int, block: Block) -> None:
        # Deliver before mark_released: every stream consumer (recorder,
        # executor, lane merge) must observe the block strictly before the
        # pruning this release unlocks.
        self.delivery_stream.deliver(Delivery(
            tag=block.digest,
            transactions=block.batch.transactions,
            tx_count=block.tx_count,
            proposer=block.proposer,
            proposed_at=block.header.created_at,
            time=self.env.now,
            source=worker_id,
            sequence=block.round_number))
        self.workers[worker_id].chain.mark_released(block.round_number)

    # ------------------------------------------------------------- inspection
    @property
    def delivered_transactions(self) -> int:
        """Transactions released to clients (the delivery stream's counter)."""
        return self.delivery_stream.transactions

    def metrics(self, duration: float) -> NodeMetrics:
        """The recorder's fold plus the workers' pool figures (end state)."""
        metrics = NodeMetrics.from_recorder(self.recorder, duration)
        if self.config.pool_max_pending is not None:
            metrics.totals["tx_rejected"] = sum(
                worker.txpool.rejected for worker in self.workers)
            metrics.totals["tx_requeue_dropped"] = sum(
                worker.txpool.requeue_dropped for worker in self.workers)
        return metrics


def flo_nodes(env: Environment, network: Network, keystore: KeyStore,
              config: FireLedgerConfig, rng: random.Random,
              adversary=None) -> list[FLONode]:
    """One :class:`FLONode` per ``config.n_nodes``, seeded from ``rng``.

    The run's adversary strategy may substitute misbehaving workers on its
    Byzantine nodes.
    """
    worker_factory = None
    if adversary is not None:
        worker_factory = adversary.worker_factory()
    return [
        FLONode(env, network, node_id, config, keystore,
                rng=random.Random(rng.randrange(2 ** 62)),
                worker_factory=worker_factory)
        for node_id in range(config.n_nodes)
    ]
