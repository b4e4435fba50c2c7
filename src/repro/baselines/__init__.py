"""Baseline BFT ordering protocols used for the Section 7.6 comparison.

Both baselines run on exactly the same simulated substrate (network, CPU cost
model, workload) as FireLedger — the protocol table (:mod:`repro.protocols`)
builds their replicas through :func:`repro.baselines.replica.replica_nodes`
and :func:`repro.core.cluster.run_cluster` drives them, which makes the
comparison of Figures 16 and 17 an apples-to-apples one in this reproduction:

* :mod:`repro.baselines.hotstuff` — chained HotStuff with rotating leaders,
  threshold-of-votes quorum certificates and the three-chain commit rule;
* :mod:`repro.baselines.bftsmart` — a PBFT-style, leader-driven ordering
  service in the mould of BFT-SMaRt (pre-prepare / prepare / commit).

Run them with ``run_cluster(config, protocol="hotstuff")`` /
``protocol="bftsmart"``; results come back as the unified
:class:`~repro.core.cluster.ClusterResult` (protocol-specific counters live
in ``ClusterResult.breakdown``).
"""

from repro.baselines.bftsmart import BFTSmartReplica
from repro.baselines.hotstuff import HotStuffReplica

__all__ = [
    "HotStuffReplica",
    "BFTSmartReplica",
]
