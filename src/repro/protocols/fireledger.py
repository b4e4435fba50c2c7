"""FireLedger under the pluggable-protocol contract.

The node factory builds the :class:`~repro.core.flo.FLONode` deployment
(consulting the run's adversary strategy for misbehaving worker substitution
and silenced nodes); the metric hook adds the workers' pool figures to the
shared recorder fold.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.flo import FLONode
from repro.protocols.base import ConsensusProtocol, NodeMetrics


class FireLedgerProtocol(ConsensusProtocol):
    """The paper's protocol: FLO nodes running FireLedger worker instances."""

    name = "fireledger"
    min_nodes = 4

    def build_nodes(self, env, network, keystore, config, rng,
                    adversary=None) -> list[FLONode]:
        worker_factory = None
        if adversary is not None:
            worker_factory = adversary.worker_factory(self.name)
        return [
            FLONode(env, network, node_id, config, keystore,
                    rng=random.Random(rng.randrange(2 ** 62)),
                    worker_factory=worker_factory,
                    silent=(adversary is not None
                            and adversary.is_silent(node_id, self.name)))
            for node_id in range(config.n_nodes)
        ]

    def start(self, nodes: Sequence[FLONode]) -> None:
        for node in nodes:
            node.start()

    def node_metrics(self, node: FLONode, duration: float) -> NodeMetrics:
        metrics = super().node_metrics(node, duration)
        if node.config.pool_max_pending is not None:
            metrics.totals["tx_rejected"] = sum(
                worker.txpool.rejected for worker in node.workers)
            metrics.totals["tx_requeue_dropped"] = sum(
                worker.txpool.requeue_dropped for worker in node.workers)
        return metrics
