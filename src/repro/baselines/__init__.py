"""Baseline BFT ordering protocols used for the Section 7.6 comparison.

Both baselines run on exactly the same simulated substrate (network, CPU cost
model, workload) as FireLedger — they are
:class:`~repro.protocols.base.ConsensusProtocol` implementations (each module
holds its replica and its protocol class) driven by
:func:`repro.core.cluster.run_cluster`, which makes the comparison of Figures
16 and 17 an apples-to-apples one in this reproduction:

* :mod:`repro.baselines.hotstuff` — chained HotStuff with rotating leaders,
  threshold-of-votes quorum certificates and the three-chain commit rule;
* :mod:`repro.baselines.bftsmart` — a PBFT-style, leader-driven ordering
  service in the mould of BFT-SMaRt (pre-prepare / prepare / commit).

Run them with ``run_cluster(config, protocol="hotstuff")`` /
``protocol="bftsmart"``; results come back as the unified
:class:`~repro.core.cluster.ClusterResult` (protocol-specific counters live
in ``ClusterResult.breakdown``).
"""

# Import order pin: ``repro.protocols`` registers the baselines by importing
# this package's modules, and those modules subclass ``repro.protocols.base``.
# Loading the registry package first makes either entry point work — whichever
# side is imported first, ``protocols.base`` is complete before a baseline
# module needs it (tests/test_protocols.py pins this in fresh interpreters).
import repro.protocols  # noqa: F401  isort:skip

from repro.baselines.bftsmart import BFTSmartProtocol, BFTSmartReplica
from repro.baselines.hotstuff import HotStuffProtocol, HotStuffReplica

__all__ = [
    "HotStuffProtocol",
    "HotStuffReplica",
    "BFTSmartProtocol",
    "BFTSmartReplica",
]
