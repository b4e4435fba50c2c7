"""The protocol table: a protocol is a name mapped to a node factory.

Everything :func:`repro.core.cluster.run_cluster` needs from a protocol is
its nodes.  A node factory has one signature,
``build(env, network, keystore, config, rng, adversary=None) -> nodes``:
it turns the already-wired environment / network / key store into one node
per ``config.n_nodes``, draws any per-node seed from ``rng``
(``rng.randrange(2 ** 62)``) so runs stay deterministic per seed, and
may consult the run's bound
:class:`~repro.adversary.base.AdversaryStrategy` (None on fault-free runs)
for misbehaving workers (``worker_factory()``, FLO only).  Silencing is not
a factory's job: the runner never starts a node the strategy declares
silent and clears its endpoint's bindings, for every protocol alike.

Every node it returns owns:

* ``start()`` — launch its simulation process(es);
* ``recorder`` — a :class:`~repro.metrics.recorder.MetricsRecorder` it
  reports every event and counter to, and nothing else;
* ``metrics(duration)`` — :meth:`NodeMetrics.from_recorder
  <repro.metrics.recorder.NodeMetrics.from_recorder>` plus, at most, state
  read at the end of the run (pool rejections);
* ``node_id``, a ``delivery_stream``
  (:class:`~repro.ledger.delivery.DeliveryStream`, one ``Delivery`` per
  committed block in its local total order) and an ``executor`` slot the
  runner fills.

Nodes that should carry client workloads (``fill_blocks=False`` configs)
additionally expose ``submit_transaction(transaction)`` (False means the
pool declined it) and a ``delivered_transactions`` counter — the surface
the clients in :mod:`repro.workload.clients` drive.

Lanes are not a table entry: ``config.lanes > 1`` runs
:func:`repro.protocols.multiplexed.build_lanes` over the named factory.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.baselines.bftsmart import BFTSmartReplica
from repro.baselines.hotstuff import HotStuffReplica
from repro.baselines.replica import replica_nodes
from repro.core.flo import flo_nodes

#: Name (the ``protocol=`` value, ``--protocol`` and a spec's ``protocol``)
#: -> node factory, in the order ``names()`` lists them.
PROTOCOLS: dict[str, Callable[..., list]] = {
    "fireledger": flo_nodes,
    "hotstuff": partial(replica_nodes, HotStuffReplica),
    "bftsmart": partial(replica_nodes, BFTSmartReplica),
}


def names() -> list[str]:
    """Protocol names, in table order."""
    return list(PROTOCOLS)


def get(name: str) -> Callable[..., list]:
    """The node factory of protocol ``name``.

    Lanes are not part of the name: ``config.lanes`` (``--lanes``) is the one
    way to run M instances of a protocol.
    """
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise KeyError(f"unknown protocol {name!r}; "
                       f"known: {', '.join(names())}") from None
