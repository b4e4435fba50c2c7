"""Consensus protocols for the cluster runner: one name -> node-factory table.

``run_cluster(config, protocol="hotstuff")``, scenario specs
(``protocol = "bftsmart"``) and the ``--protocol`` sweep axis all look a
name up in :data:`~repro.protocols.base.PROTOCOLS`:

* ``fireledger`` — the paper's protocol, FLO nodes running FireLedger
  worker instances (:func:`repro.core.flo.flo_nodes`);
* ``hotstuff``   — chained HotStuff with rotating leaders (Section 7.6),
  :mod:`repro.baselines.hotstuff`;
* ``bftsmart``   — a BFT-SMaRt-style stable-leader ordering service,
  :mod:`repro.baselines.bftsmart`.

Setting ``FireLedgerConfig.lanes > 1`` (``--lanes``) composes M independent
lanes of the named protocol over one shared network and merges their delivery
streams into a single total order (see :mod:`repro.protocols.multiplexed`);
it is the one way in — lanes are not part of a protocol's name.

Adding a protocol: write its node class and factory, and add one line to
the table (see ARCHITECTURE.md, "Adding a protocol").
"""

from repro.protocols.base import PROTOCOLS, get, names
from repro.protocols.multiplexed import LaneNetwork, MultiplexedNode, build_lanes

__all__ = [
    "PROTOCOLS",
    "LaneNetwork",
    "MultiplexedNode",
    "build_lanes",
    "get",
    "names",
]
