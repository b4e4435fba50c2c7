"""Multiplexed consensus lanes: M instances of one protocol, one total order.

FireLedger's FLO already multiplexes *workers* of its own protocol; this
module lifts the same idea to the protocol layer.  :func:`build_lanes` is a
function over any node factory of the protocol table: it builds M completely
unmodified clusters of that protocol ("lanes") over the **one** shared
simulated network — the lanes contend for the same NICs, CPUs and links, so
lane parallelism buys pipelining, not free hardware — and merges each node's
lane delivery streams back into a single total order that feeds execution.
``run_cluster`` applies it whenever ``config.lanes > 1`` and labels the
result ``multiplexed(P, lanes=M)``.

Three pieces make that composition safe:

* **Channel namespacing** (:class:`LaneNetwork`).  Each lane sees a proxy
  network that prefixes every channel with ``l<lane>!`` on send, broadcast
  *and* bind, so a lane's traffic finds the lane's handlers in the node's one
  ``(channel, kind)`` table with no per-message work.  NIC serialisation,
  ingress queues, CPU and crash state stay per *node* — a crashed node is
  crashed in every lane, and a busy lane's bulk traffic delays the others'
  exactly as M co-located processes would.

* **Deterministic workload slicing**.  A client write is assigned to lane
  ``hash(sender) % M`` (Knuth multiplicative hash; ``client_id`` when no
  sender; :meth:`MultiplexedNode.submit_transaction`), so one sender's
  nonce stream stays lane-local and the relaxed nonce rule of
  :mod:`repro.ledger.state` keeps its per-sender ordering guarantees
  unchanged.

* **Watermark round-robin merge**.  Per node, the lanes' delivery streams
  feed one :class:`~repro.ledger.delivery.RoundRobinMerge` — the same merge
  FLO releases its workers' blocks through: head-of-line blocking, so the
  merged order is a pure function of the per-lane delivery sequences, which
  agree at every correct node.  Merged deliveries are re-tagged
  ``(lane, tag)`` so the execution state root is defensibly different
  between lane counts but byte-identical across nodes and runs.

``pool_max_pending`` is interpreted as a **cluster-global budget** split as
evenly as possible across the lanes' pools; per-lane rejection counts are
surfaced as ``lane<i>_tx_rejected`` in the cluster breakdown next to the
summed ``tx_rejected``, and a ``lane_skew`` fairness metric (the busiest
lane's share of committed transactions times M; 1.0 = perfectly even) makes
hot-sender imbalance visible.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable

from repro.ledger.delivery import Delivery, DeliveryStream, RoundRobinMerge
from repro.metrics.recorder import NodeMetrics
from repro.net.message import MESSAGE_OVERHEAD_BYTES

#: Knuth's multiplicative hash constant (2^32 / phi); spreads consecutive
#: sender ids evenly across lanes instead of striping them modulo M.
_HASH_MULTIPLIER = 2654435761
_HASH_MASK = 2 ** 32 - 1


class LaneNetwork:
    """One lane's view of the shared :class:`~repro.net.network.Network`.

    Send, broadcast and bind prefix the channel with ``l<lane>!``.
    Everything else — endpoints, crash state, stats, latency model, fault
    controller, ``n_nodes`` — is the real network's, so protocol code runs
    byte-for-byte unchanged inside a lane (it sees the prefixed name only in
    ``message.channel``, which no protocol reads).  The three names a lane
    reads every round and the network never rebinds (``endpoint``,
    ``is_crashed``, ``n_nodes``) are bound at construction; the rest is
    delegated on each read, so state the network replaces stays current.
    """

    def __init__(self, network, lane: int) -> None:
        self._network = network
        self._prefix = f"l{lane}!"
        self.endpoint = network.endpoint
        self.is_crashed = network.is_crashed
        self.n_nodes = network.n_nodes

    def bind(self, node_id: int, channel: str, handlers) -> None:
        self._network.bind(node_id, self._prefix + channel, handlers)

    def send(self, sender: int, receiver: int, channel: str, kind: str,
             payload, size_bytes: int = MESSAGE_OVERHEAD_BYTES):
        return self._network.send(sender, receiver, self._prefix + channel,
                                  kind, payload, size_bytes)

    def broadcast(self, sender: int, channel: str, kind: str, payload,
                  size_bytes: int = MESSAGE_OVERHEAD_BYTES,
                  include_self: bool = False):
        return self._network.broadcast(sender, self._prefix + channel, kind,
                                       payload, size_bytes,
                                       include_self=include_self)

    def __getattr__(self, name):
        return getattr(self._network, name)


class MultiplexedNode:
    """One node of a multiplexed cluster: M inner nodes plus the lane merge."""

    def __init__(self, node_id: int, lanes: list) -> None:
        self.node_id = node_id
        self.lanes = lanes
        #: The node's merged delivery stream — the one execution consumes.
        self.delivery_stream = DeliveryStream()
        #: Execution layer, attached by the cluster runner (None otherwise).
        self.executor = None
        self._merge = RoundRobinMerge(len(lanes), self._release)
        self._merged_sequence = 0
        for lane, inner in enumerate(lanes):
            inner.delivery_stream.subscribe(partial(self._merge.offer, lane))

    # --------------------------------------------------------------- merging
    def _release(self, lane: int, delivery: Delivery) -> None:
        self._merged_sequence += 1
        self.delivery_stream.deliver(Delivery(
            tag=(lane, delivery.tag),
            transactions=delivery.transactions,
            tx_count=delivery.tx_count,
            proposer=delivery.proposer,
            proposed_at=delivery.proposed_at,
            time=delivery.time,
            source=lane,
            sequence=self._merged_sequence))

    # ---------------------------------------------------------------- client
    def submit_transaction(self, transaction) -> bool:
        """Route a client write to its lane: a pure function of its sender.

        Keyed on ``sender`` so one account's nonce stream is ordered by a
        single lane; opaque (senderless) payloads key on ``client_id``
        instead.  The key's Knuth multiplicative hash, modulo the lane
        count, is the lane.
        """
        key = transaction.sender
        if key is None:
            key = transaction.client_id
        lanes = self.lanes
        return lanes[((key * _HASH_MULTIPLIER) & _HASH_MASK)
                     % len(lanes)].submit_transaction(transaction)

    # ------------------------------------------------------------ inspection
    @property
    def delivered_transactions(self) -> int:
        return self.delivery_stream.transactions

    def metrics(self, duration: float) -> NodeMetrics:
        """The lanes' metrics, added up; plus per-lane rejections and skew.

        The lanes are parallel pipelines on one node, so they fold with
        :meth:`NodeMetrics.combine` ``average=False``: rates, ``totals`` and
        ``means`` add (each key stays in the dict the lane's node chose, so
        the cross-node fold still sums or averages it correctly).
        """
        per_lane = [inner.metrics(duration) for inner in self.lanes]
        merged = NodeMetrics.combine(per_lane, average=False)
        for lane, metrics in enumerate(per_lane):
            for source, target in ((metrics.totals, merged.totals),
                                   (metrics.means, merged.means)):
                if "tx_rejected" in source:
                    target[f"lane{lane}_tx_rejected"] = source["tx_rejected"]
        lane_tx = [metrics.means.get("transactions_committed", 0.0)
                   for metrics in per_lane]
        total_tx = sum(lane_tx)
        if total_tx > 0:
            merged.means["lane_skew"] = max(lane_tx) / total_tx * len(self.lanes)
        return merged


def lane_configs(config) -> list:
    """Per-lane configs: ``lanes=1`` plus the split pool budget.

    ``pool_max_pending`` is a cluster-global budget: each of the
    ``config.lanes`` lanes gets an equal share (the first ``budget % lanes``
    lanes absorb the remainder), so adding lanes never adds aggregate pool
    capacity.  A lane's config says one lane, so a lane never multiplexes
    again.
    """
    lanes = config.lanes
    budget = config.pool_max_pending
    if budget is None:
        shares = [None] * lanes
    else:
        base_share, remainder = divmod(budget, lanes)
        shares = [base_share + (1 if lane < remainder else 0)
                  for lane in range(lanes)]
    return [config.with_overrides(lanes=1, pool_max_pending=share)
            for share in shares]


def build_lanes(build: Callable[..., list], env, network, keystore, config,
                rng: random.Random, adversary=None) -> list[MultiplexedNode]:
    """``config.lanes`` clusters of the node factory ``build``, one per lane,
    merged per node into :class:`MultiplexedNode` s.

    Each lane builds against its own :class:`LaneNetwork` and an rng seeded
    from ``rng`` in lane order; the lane clusters are built (and started)
    lane-major.
    """
    per_lane_nodes = []
    for lane, lane_config in enumerate(lane_configs(config)):
        lane_network = LaneNetwork(network, lane)
        lane_rng = random.Random(rng.randrange(2 ** 62))
        per_lane_nodes.append(build(env, lane_network, keystore, lane_config,
                                    lane_rng, adversary=adversary))
    return [MultiplexedNode(node_id, [lane[node_id] for lane in per_lane_nodes])
            for node_id in range(config.n_nodes)]
