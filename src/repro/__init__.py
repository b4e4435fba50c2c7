"""FireLedger: a high-throughput optimistic permissioned blockchain protocol.

This package is a from-scratch reproduction of *FireLedger: A High Throughput
Blockchain Consensus Protocol* (Buchnik & Friedman, VLDB 2020) on a
deterministic discrete-event simulation substrate.  The public API is exposed
here:

* :class:`~repro.core.config.FireLedgerConfig` — deployment parameters,
* :func:`~repro.core.cluster.run_cluster` — build/run/measure a cluster
  under any protocol of the ``protocols`` table,
* :class:`~repro.core.flo.FLONode` / :class:`~repro.core.fireledger.FireLedgerWorker`
  — the orchestrator and the protocol instance,
* the ``protocols`` subpackage — the name -> node-factory table
  (FireLedger plus the HotStuff / BFT-SMaRt baselines from ``baselines``),
  and multiplexed consensus lanes over any of them,
* the ``experiments`` subpackage — one driver per table/figure of the paper.
"""

from repro.core import (
    ClusterResult,
    FireLedgerConfig,
    FireLedgerWorker,
    FLONode,
    max_faults,
    run_cluster,
)
from repro.crypto import CryptoCostModel, MachineSpec
from repro.crypto.cost_model import C5_4XLARGE, M5_XLARGE
from repro.ledger import Block, BlockHeader, Blockchain, Transaction, TxPool

__version__ = "1.0.0"

__all__ = [
    "FireLedgerConfig",
    "FireLedgerWorker",
    "FLONode",
    "ClusterResult",
    "run_cluster",
    "max_faults",
    "CryptoCostModel",
    "MachineSpec",
    "M5_XLARGE",
    "C5_4XLARGE",
    "Block",
    "BlockHeader",
    "Blockchain",
    "Transaction",
    "TxPool",
    "__version__",
]
