"""Pluggable consensus protocols for the cluster runner.

One :class:`~repro.protocols.base.ConsensusProtocol` implementation per
protocol, registered by name so ``run_cluster(config, protocol="hotstuff")``,
scenario specs (``protocol = "bftsmart"``) and the ``--protocol`` sweep axis
all resolve through the same registry.  Shipped protocols:

* ``fireledger`` — the paper's protocol (FLO nodes running FireLedger
  worker instances);
* ``hotstuff``   — chained HotStuff with rotating leaders (Section 7.6),
  :mod:`repro.baselines.hotstuff`;
* ``bftsmart``   — a BFT-SMaRt-style stable-leader ordering service,
  :mod:`repro.baselines.bftsmart`.

Setting ``FireLedgerConfig.lanes > 1`` (``--lanes``) composes M independent
lanes of the named protocol over one shared network and merges their delivery
streams into a single total order (see :mod:`repro.protocols.multiplexed`);
it is the one way in — lanes are not part of a protocol's name.

Adding a protocol: implement the contract in :mod:`repro.protocols.base`
and call :func:`register` (see ARCHITECTURE.md, "Protocol layer").
"""

from repro.protocols.base import (
    ConsensusProtocol,
    Delivery,
    DeliveryStream,
    NodeMetrics,
    get,
    names,
    register,
    resolve,
)
# After protocols.base, which the baselines subclass: see the import order
# note in repro/baselines/__init__.py.
from repro.baselines.bftsmart import BFTSmartProtocol
from repro.baselines.hotstuff import HotStuffProtocol
from repro.protocols.fireledger import FireLedgerProtocol
from repro.protocols.multiplexed import LaneNetwork, MultiplexedNode, MultiplexedProtocol

register(FireLedgerProtocol())
register(HotStuffProtocol())
register(BFTSmartProtocol())

__all__ = [
    "ConsensusProtocol",
    "Delivery",
    "DeliveryStream",
    "NodeMetrics",
    "FireLedgerProtocol",
    "HotStuffProtocol",
    "BFTSmartProtocol",
    "LaneNetwork",
    "MultiplexedNode",
    "MultiplexedProtocol",
    "register",
    "get",
    "names",
    "resolve",
]
