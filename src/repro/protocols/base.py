"""The protocol-pluggable cluster contract.

A :class:`ConsensusProtocol` is everything :func:`repro.core.cluster.run_cluster`
needs to evaluate one BFT ordering protocol on the shared simulated substrate:

* a **node factory** (:meth:`ConsensusProtocol.build_nodes`) turning the
  already-wired environment / network / keystore into protocol nodes;
* a **launcher** (:meth:`ConsensusProtocol.start`) and a measurement-window
  hook (:meth:`ConsensusProtocol.set_measurement_window`);
* a **recorder** on every node: each node owns a
  :class:`~repro.metrics.recorder.MetricsRecorder` (its ``recorder``
  attribute) and reports commit events, signature counts and round outcomes
  to it and to nothing else; :meth:`ConsensusProtocol.node_metrics` maps any
  node's recorder onto the protocol-agnostic :class:`NodeMetrics` shape the
  runner aggregates into a :class:`~repro.core.cluster.ClusterResult`.

The runner owns *all* the wiring: seeding, latency model selection, the
:class:`~repro.net.network.Network`, the :class:`~repro.crypto.keys.KeyStore`,
the fault schedule, workload attachment and metric aggregation.  A new
protocol is therefore one module implementing this contract plus a
:func:`register` call — it immediately gains WAN topologies, fault timelines,
client workloads, ``--jobs`` sweeps and the EXPERIMENTS.md report.

Delivery flows through an explicit seam: every node exposes a
:class:`DeliveryStream` (its ``delivery_stream`` attribute, next to an
``executor`` slot the runner fills) onto which it pushes one
:class:`Delivery` per committed block, in its local total order.
Consumers — the per-node :class:`~repro.ledger.state.LedgerExecutor`,
metric counters, and the lane merge of :mod:`repro.protocols.multiplexed` —
subscribe to the stream instead of being hand-called from inside each
protocol's commit callback.  Single-lane protocols are the trivial one-stream
case; ``multiplexed(P, lanes=M)`` merges M of them.

Nodes that should carry client workloads (``fill_blocks=False`` configs)
additionally expose the small duck-typed surface the workload clients in
:mod:`repro.workload.clients` rely on: ``submit_transaction(transaction)``
(the client builds the transaction; False means the pool declined it) and a
``delivered_transactions`` counter.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.ledger.delivery import Delivery, DeliveryStream
from repro.metrics.recorder import (
    EVENT_FLO_DELIVERY,
    EVENT_TENTATIVE_DECISION,
)
from repro.metrics.summary import LatencyHistogram

if TYPE_CHECKING:
    from repro.core.config import FireLedgerConfig
    from repro.crypto.keys import KeyStore
    from repro.net.network import Network
    from repro.sim import Environment

__all__ = [
    "ConsensusProtocol", "Delivery", "DeliveryStream", "NodeMetrics",
    "get", "names", "register", "resolve",
]


@dataclass
class NodeMetrics:
    """One node's contribution to the aggregated cluster result.

    ``tps``/``bps``/``recoveries_per_second`` are rates over the node's
    measurement window.  ``latency_samples`` are per-block commit latencies in
    seconds.  The three dicts all end up in ``ClusterResult.breakdown`` but
    aggregate differently (:meth:`combine`):

    * ``stage_breakdown`` — per-round stage timings (FireLedger's ``A->B`` ...
      ``D->E`` spans), averaged per key;
    * ``totals`` — cluster-wide counters (round outcomes, recoveries, skipped
      views, signature counts), summed per key;
    * ``means`` — per-node quantities that every correct node observes
      identically (a baseline's committed block/transaction counts), averaged
      per key across nodes.
    """

    tps: float = 0.0
    bps: float = 0.0
    recoveries_per_second: float = 0.0
    latency_samples: list[float] = field(default_factory=list)
    #: Folded share of the latency distribution when the node's recorder ran
    #: in streaming (bounded-memory) mode; merged with every node's raw
    #: samples into one histogram-backed cluster summary.
    latency_histogram: Optional[LatencyHistogram] = None
    stage_breakdown: dict[str, float] = field(default_factory=dict)
    totals: dict[str, float] = field(default_factory=dict)
    means: dict[str, float] = field(default_factory=dict)

    @classmethod
    def combine(cls, parts: "Iterable[NodeMetrics]",
                average: bool) -> "NodeMetrics":
        """Fold several ``NodeMetrics`` into one — the only such fold.

        ``average=True`` folds the correct nodes of a cluster (the paper
        reports every number "averaged over nodes"): rates and ``means``
        average.  ``average=False`` folds the lanes of one node, which are
        parallel pipelines: rates and ``means`` add.  Either way
        ``stage_breakdown`` spans average per key over the parts reporting
        the key (they describe one protocol round, whoever ran it),
        ``totals`` sum, raw latency samples concatenate and the parts'
        histograms merge into a fresh one (None when no part streamed).
        Every sum adds its terms in ``parts`` order, so a result is a pure
        function of the run, not of the interpreter's ``sum``.
        """
        merged = cls()
        count = 0
        stage_counts: dict[str, int] = {}
        mean_counts: dict[str, int] = {}
        for part in parts:
            count += 1
            merged.tps += part.tps
            merged.bps += part.bps
            merged.recoveries_per_second += part.recoveries_per_second
            merged.latency_samples.extend(part.latency_samples)
            if part.latency_histogram is not None:
                if merged.latency_histogram is None:
                    merged.latency_histogram = LatencyHistogram(
                        bin_width=part.latency_histogram.bin_width)
                merged.latency_histogram.merge(part.latency_histogram)
            for key, value in part.stage_breakdown.items():
                merged.stage_breakdown[key] = (
                    merged.stage_breakdown.get(key, 0.0) + value)
                stage_counts[key] = stage_counts.get(key, 0) + 1
            for key, value in part.totals.items():
                merged.totals[key] = merged.totals.get(key, 0.0) + value
            for key, value in part.means.items():
                merged.means[key] = merged.means.get(key, 0.0) + value
                mean_counts[key] = mean_counts.get(key, 0) + 1
        for key, reporting in stage_counts.items():
            merged.stage_breakdown[key] /= reporting
        if average and count:
            merged.tps /= count
            merged.bps /= count
            merged.recoveries_per_second /= count
            for key, reporting in mean_counts.items():
                merged.means[key] /= reporting
        return merged


class ConsensusProtocol(abc.ABC):
    """Contract one BFT protocol implements to run under ``run_cluster``.

    Implementations are stateless: all per-run state lives on the node
    objects returned by :meth:`build_nodes`, so one registered instance can
    serve any number of concurrent runs.
    """

    #: Registry name (``protocol=`` value on the CLI and in scenario specs).
    name: str = ""
    #: Smallest cluster the protocol is defined for.
    min_nodes: int = 4

    @abc.abstractmethod
    def build_nodes(self, env: "Environment", network: "Network",
                    keystore: "KeyStore", config: "FireLedgerConfig",
                    rng: random.Random, adversary=None) -> list:
        """Create one node object per ``config.n_nodes``.

        ``rng`` is the run's root random source — draw per-node seeds from it
        (``rng.randrange(2 ** 62)``) so runs stay deterministic per seed.
        ``adversary`` is the run's bound
        :class:`~repro.adversary.base.AdversaryStrategy` (None on fault-free
        runs); implementations consult its ``worker_factory(self.name)`` for
        misbehaving worker substitution and ``is_silent(node_id, self.name)``
        for nodes whose process must never start; ``adversary.nodes`` is the
        Byzantine membership.
        """

    @abc.abstractmethod
    def start(self, nodes: Sequence) -> None:
        """Launch every node's simulation process(es)."""

    def set_measurement_window(self, nodes: Sequence, warmup: float) -> None:
        """Exclude ``[0, warmup)`` from every node's measured metrics."""
        for node in nodes:
            node.recorder.measure_start = warmup

    def node_metrics(self, node, duration: float) -> NodeMetrics:
        """Summarise one node's run over its measurement window.

        The one fold of recorder data: transactions count where they are
        released (E), blocks where they are decided (C), and the recorder's
        counters are the ``totals``.  A protocol overrides this only to add
        *state read at the end of the run* (a pool's rejection figure) on
        top of what ``super()`` returns — anything that is an event goes
        through the node's recorder.
        """
        recorder = node.recorder
        return NodeMetrics(
            tps=recorder.throughput_tps(duration, event=EVENT_FLO_DELIVERY),
            bps=recorder.throughput_bps(duration,
                                        event=EVENT_TENTATIVE_DECISION),
            recoveries_per_second=recorder.recoveries_per_second(duration),
            latency_samples=recorder.latency_samples(duration),
            latency_histogram=recorder.latency_histogram,
            stage_breakdown=recorder.breakdown(duration),
            totals=dict(recorder.counters),
            means={
                "blocks_committed": recorder.count_with_event(
                    EVENT_TENTATIVE_DECISION, duration),
                "transactions_committed": recorder.tx_with_event(
                    EVENT_FLO_DELIVERY, duration),
            })


_PROTOCOLS: dict[str, ConsensusProtocol] = {}


def register(protocol: ConsensusProtocol) -> ConsensusProtocol:
    """Register a protocol instance under its ``name``."""
    if not protocol.name:
        raise ValueError("a ConsensusProtocol needs a non-empty name")
    if protocol.name in _PROTOCOLS:
        raise ValueError(f"protocol {protocol.name!r} already registered")
    _PROTOCOLS[protocol.name] = protocol
    return protocol


def names() -> list[str]:
    """Registered protocol names, in registration order."""
    return list(_PROTOCOLS)


def get(name: str) -> ConsensusProtocol:
    """Look up a registered protocol by name.

    Lanes are not part of the name: ``config.lanes`` (``--lanes``) is the one
    way to run M instances of a registered protocol.
    """
    try:
        return _PROTOCOLS[name]
    except KeyError:
        raise KeyError(f"unknown protocol {name!r}; "
                       f"known: {', '.join(names())}") from None


def resolve(protocol: "str | ConsensusProtocol") -> ConsensusProtocol:
    """Accept a registry name or a :class:`ConsensusProtocol` instance."""
    if isinstance(protocol, ConsensusProtocol):
        return protocol
    return get(protocol)
