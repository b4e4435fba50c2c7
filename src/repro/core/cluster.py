"""Cluster runner: build a protocol deployment, run it, summarise the results.

This is the entry point every benchmark, example and scenario uses.
:func:`run_cluster` wires the simulation environment, network, key store and
the chosen protocol's nodes together identically for **every** protocol of
the :mod:`repro.protocols` table (FireLedger, HotStuff, BFT-SMaRt): it
optionally installs one fault schedule (timed crashes and recoveries,
partition / loss / slow-link windows, Byzantine membership, and the
adversary strategy's own phases), silences fail-stop nodes and attaches
client workloads, runs the simulation for a configured duration and folds the
nodes' own ``metrics(duration)`` into one unified :class:`ClusterResult`.

The runner owns the delivery seam end-to-end: after the node factory builds
the nodes, the runner subscribes each node's
:class:`~repro.ledger.delivery.DeliveryStream` to a per-node
:class:`~repro.ledger.state.LedgerExecutor` (when execution is enabled), so
no protocol implementation hand-wires execution.  ``config.lanes > 1``
builds the nodes through :func:`~repro.protocols.multiplexed.build_lanes`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from repro.core.config import FireLedgerConfig
from repro.crypto.keys import KeyStore
from repro.metrics.recorder import NodeMetrics
from repro.metrics.summary import LatencySummary, ThroughputSummary
from repro.net.latency import LatencyModel, SingleDatacenterLatency
from repro.net.network import Network, NetworkStats
from repro.sim import Environment

#: The two implementations of the Environment/Network contract pair.
BACKENDS = ("sim", "realtime")


@dataclass
class ClusterResult:
    """Aggregated outcome of one cluster run, for any protocol.

    Protocol-specific counters (FireLedger's round outcomes and recoveries,
    a baseline's committed block counts and skipped views, every protocol's
    signature totals) live in :attr:`breakdown` next to the per-round stage
    timings; the convenience properties below read the well-known keys for
    the figure drivers, the scenario rows and the benchmark harness.
    """

    protocol: str
    config: FireLedgerConfig
    duration: float
    throughput: ThroughputSummary
    latency: LatencySummary
    per_node_tps: list[float]
    per_node_bps: list[float]
    breakdown: dict[str, float]
    network: NetworkStats
    nodes: list = field(default_factory=list, repr=False)
    #: Execution-layer oracle (``config.execute_transactions``): the account
    #: state root at the longest common delivered prefix, asserted identical
    #: across all non-Byzantine nodes before the result is built.  None when
    #: execution is disabled.
    state_root: Optional[str] = None
    #: Deliveries covered by the agreed ``state_root``.
    state_deliveries: int = 0

    @property
    def tps(self) -> float:
        """Average transactions per second over correct nodes."""
        return self.throughput.tps

    @property
    def bps(self) -> float:
        """Average blocks per second over correct nodes."""
        return self.throughput.bps

    @property
    def recoveries_per_second(self) -> float:
        """Recovery-procedure invocations per second (0 for the baselines)."""
        return self.throughput.recoveries_per_second

    def _counter(self, key: str) -> int:
        return int(round(self.breakdown.get(key, 0.0)))

    @property
    def fast_path_rounds(self) -> int:
        """Rounds decided on FireLedger's single-step fast path."""
        return self._counter("fast_path_rounds")

    @property
    def fallback_rounds(self) -> int:
        """Rounds that needed FireLedger's OBBC fallback."""
        return self._counter("fallback_rounds")

    @property
    def failed_rounds(self) -> int:
        """Rounds that timed out undelivered."""
        return self._counter("failed_rounds")

    @property
    def recoveries(self) -> int:
        """Recovery-procedure invocations across correct nodes."""
        return self._counter("recoveries")

    @property
    def transactions_rejected(self) -> int:
        """Pool-cap rejections (0 unless ``pool_max_pending`` is set)."""
        return self._counter("tx_rejected")

    @property
    def blocks_committed(self) -> int:
        """Blocks committed in the measured window (per correct node)."""
        return self._counter("blocks_committed")

    @property
    def transactions_committed(self) -> int:
        """Transactions committed in the measured window (per correct node)."""
        return self._counter("transactions_committed")

    @property
    def transactions_applied(self) -> int:
        """Transfers applied by the execution layer (0 when disabled)."""
        return self._counter("tx_applied")

    @property
    def transactions_stale(self) -> int:
        """Transfers rejected as stale/duplicate nonces (execution layer)."""
        return self._counter("tx_stale")


def run_cluster(config: FireLedgerConfig,
                protocol: str = "fireledger",
                duration: float = 3.0,
                warmup: float = 0.5,
                seed: int = 0,
                latency_model: Optional[LatencyModel] = None,
                faults=None,
                adversary: "Optional[str | object]" = None,
                latency_trim: float = 0.0,
                setup: Optional[Callable[[Environment, Network, list], None]] = None,
                backend: str = "sim") -> ClusterResult:
    """Build, run and summarise one cluster under any protocol of the table.

    ``protocol`` is a name of the :mod:`repro.protocols` table
    (``"fireledger"``, ``"hotstuff"``, ``"bftsmart"``); the cluster size
    floor is ``FireLedgerConfig``'s n >= 4, the same for every protocol.
    The remaining parameters mirror the paper's evaluation levers and apply
    to every protocol: ``config`` carries the Table 2 parameters,
    ``latency_model`` the deployment (single data-center by default;
    :class:`~repro.net.latency.GeoDistributedLatency` is Section 7.5's
    ten-region matrix), ``warmup`` excludes start-up effects from the
    measured window.

    ``faults`` is the run's one fault timeline, a
    :class:`~repro.scenarios.faultplan.FaultSchedule` (timed crash/recover
    events, partition / loss / slow-link windows, Byzantine membership);
    nodes that end the timeline crashed or Byzantine are left out of the
    aggregated metrics.  Sections 7.4.1/7.4.2 are
    ``FaultSchedule((crash(nodes, at=t),))`` and
    ``FaultSchedule((byzantine(nodes),))``.

    ``adversary`` selects how the Byzantine nodes misbehave: a registered
    :mod:`repro.adversary` strategy name, or a bound
    :class:`~repro.adversary.base.AdversaryStrategy` instance (the scenario
    runner passes one carrying its spec's strategy parameters).  With
    Byzantine nodes and no explicit adversary the default strategy is
    ``equivocate`` — Section 7.4.2's equivocating proposer on FireLedger,
    fail-stop silence on the baselines.  The strategy's own phases (churn's
    crash/recover cycles, selective omission's one-way partitions) go ahead
    of ``faults``' in one merged schedule, validated against the cluster
    size and installed once; the nodes it declares silent are never
    started and their endpoints route nothing.

    ``setup`` is a hook invoked after the nodes are built and started and
    the fault schedule is installed, but before the simulation runs; the
    declarative scenario layer uses it to attach client workloads.

    ``backend`` selects the Environment/Network implementation pair:
    ``"sim"`` (the default) is the deterministic discrete-event kernel;
    ``"realtime"`` runs the identical protocol stack live — wall-clock
    asyncio timers and loopback TCP sockets (:mod:`repro.runtime`), with
    ``duration`` and ``warmup`` measured in real seconds.
    """
    # Lazy: the table imports the node modules, which import this package.
    from repro import protocols

    build, label = protocols.get(protocol), protocol
    if config.lanes > 1:
        build = partial(protocols.build_lanes, build)
        label = f"multiplexed({protocol}, lanes={config.lanes})"
    if duration <= 0:
        raise ValueError("duration must be positive")
    if warmup < 0 or warmup >= duration:
        raise ValueError("warmup must be within [0, duration)")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")

    # The adversary first: its phases join the run's one fault timeline.
    byzantine = frozenset() if faults is None else faults.byzantine_nodes
    phases = () if faults is None else faults.phases
    strategy = None
    if adversary is not None or byzantine:
        from repro import adversary as adversary_lib

        if isinstance(adversary, adversary_lib.AdversaryStrategy):
            strategy = adversary
        else:
            strategy = adversary_lib.build(
                adversary or adversary_lib.DEFAULT_STRATEGY, nodes=byzantine,
                windows=faults and faults.byzantine_windows())
        byzantine = byzantine or strategy.nodes
        phases = strategy.timeline(duration) + phases
    schedule = None
    if phases:
        # Lazy: the scenario package imports this module.
        from repro.scenarios.faultplan import FaultSchedule

        schedule = FaultSchedule(phases)
        schedule.validate(config.n_nodes)

    rng = random.Random(seed)
    if latency_model is None:
        latency_model = SingleDatacenterLatency()
    network_rng = random.Random(rng.randrange(2 ** 62))
    env_class, network_class = Environment, Network
    if backend == "realtime":
        from repro.runtime import RealtimeEnvironment as env_class
        from repro.runtime import RealtimeNetwork as network_class
    env = env_class()
    # A timeline with no link window has nothing to say per send: the
    # network asks nothing and every broadcast takes the fan-out branch.
    network = network_class(
        env, config.n_nodes, latency_model=latency_model,
        machine=config.machine, rng=network_rng,
        fault_controller=schedule if schedule and schedule.link_phases else None)
    keystore = KeyStore(config.n_nodes)

    silent = ()
    if strategy is not None:
        silent = [node_id for node_id in range(config.n_nodes)
                  if strategy.is_silent(node_id, protocol)]
        network = strategy.wrap_network(network)
    nodes = build(env, network, keystore, config, rng, adversary=strategy)
    # A silent node is fail-stop: it routes nothing (drops like a crashed
    # node instead of filling inboxes nothing drains) and never starts.
    for node_id in silent:
        network.endpoint(node_id).handlers.clear()
    # The delivery seam: attach one executor per node by subscribing it to
    # the node's stream — uniformly, whatever the protocol.  Protocols keep
    # their streams' earlier subscribers (metric recorders, lane merges)
    # ahead of the executor, and release bookkeeping that could unlock
    # pruning runs only after deliver() returns, so a block always executes
    # strictly before it may be dropped.
    if config.execute_transactions:
        from repro.ledger.state import LedgerExecutor

        for node in nodes:
            node.executor = LedgerExecutor.from_config(config)
            node.delivery_stream.subscribe(node.executor.on_delivery)
    # The measured window excludes [0, warmup) on every recorder; then start
    # every node in build order.  Under lanes that is lane-major (every
    # node's lane 0, then lane 1, ...): same-instant ties fire in start order.
    for members in zip(*(getattr(node, "lanes", (node,)) for node in nodes)):
        for member in members:
            member.recorder.measure_start = warmup
            if member.node_id not in silent:
                member.start()
    if schedule is not None:
        schedule.install(env, network)
    if setup is not None:
        setup(env, network, nodes)

    try:
        env.run(until=duration)
    finally:
        # The realtime backend owns an event loop; release it (its `now`
        # stays frozen at the deadline for the summarisation below).
        closer = getattr(env, "close", None)
        if closer is not None:
            closer()

    excluded = set(byzantine)
    if schedule is not None:
        excluded |= schedule.excluded_nodes()
    honest_nodes = [node for node in nodes if node.node_id not in excluded]
    correct_nodes = honest_nodes or nodes

    # The paper reports every number "averaged over nodes": one fold of the
    # correct nodes' metrics (a multiplexed node has already folded its lanes
    # with the same function).
    per_node = [node.metrics(duration) for node in correct_nodes]
    merged = NodeMetrics.combine(per_node, average=True)
    if merged.latency_histogram is not None:
        # Streaming (bounded-memory) runs: part of the distribution was
        # folded into per-node histograms; their merge plus every node's
        # still-live raw samples is one histogram-backed summary.
        merged.latency_histogram.extend(merged.latency_samples)
        latency = LatencySummary.from_histogram(
            merged.latency_histogram, trim_extreme_fraction=latency_trim)
    else:
        latency = LatencySummary.from_samples(
            merged.latency_samples, trim_extreme_fraction=latency_trim)
    breakdown = {**merged.stage_breakdown, **merged.totals, **merged.means}
    if strategy is not None:
        # Per-strategy counters, under the ``adversary_`` prefix.
        breakdown.update(strategy.counters())

    # Execution-layer oracle: every honest node must have executed the common
    # delivered prefix to the same state root (raises StateDivergenceError
    # otherwise).  Byzantine nodes are left out — their executors may follow
    # an equivocating chain.
    state_root: Optional[str] = None
    state_deliveries = 0
    if config.execute_transactions:
        from repro.ledger.state import verify_state_agreement

        executors = [node.executor for node in honest_nodes]
        if executors:
            state_deliveries, state_root = verify_state_agreement(executors)
            # Counters / fairness come from the most-advanced executor (the
            # node that delivered furthest); on a fault-free run they are
            # identical everywhere.
            reporter = max(executors, key=lambda executor: executor.deliveries)
            breakdown["tx_applied"] = float(reporter.state.applied)
            breakdown["tx_stale"] = float(reporter.state.stale)
            breakdown["tx_invalid"] = float(reporter.state.invalid)
            breakdown["tx_conflicts"] = float(reporter.conflicts)
            breakdown.update(reporter.fairness())

    return ClusterResult(
        protocol=label,
        config=config,
        duration=duration,
        throughput=ThroughputSummary(
            tps=merged.tps, bps=merged.bps,
            recoveries_per_second=merged.recoveries_per_second),
        latency=latency,
        per_node_tps=[metrics.tps for metrics in per_node],
        per_node_bps=[metrics.bps for metrics in per_node],
        breakdown=breakdown,
        network=network.stats,
        nodes=nodes,
        state_root=state_root,
        state_deliveries=state_deliveries,
    )
